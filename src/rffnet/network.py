"""Stacked random-feature layers with a linear readout: losses and full backprop.

The readout produces one logit column per class (one-vs-all margin targets for
the squared-hinge loss, one-hot targets for the squared loss, softmax for cross
entropy); the predicted class is the argmax.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, ParameterError
from .numerics import Rng
from .rff_layer import BN_EPSILON, BN_MOMENTUM, BatchNormState, LayerCache, RffLayer, backward, forward, init_layer

LOSS_KINDS = ("squared", "squared_hinge", "cross_entropy")


@dataclass
class Network:
    """Layers plus readout. Construction copies every trainable array into one
    contiguous float64 buffer, ``flat``, in parameters() order, and rebinds the
    arrays as views into it: an element-wise update of ``flat`` (Adam, the L2
    term) updates every parameter with one numpy call. Update parameters in
    place; an array rebound afterwards is no longer part of ``flat``.
    """

    layers: list[RffLayer]
    readout_w: np.ndarray  # (class_count, 2 * D_last)
    readout_b: np.ndarray  # (class_count,)
    loss_kind: str
    flat: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.loss_kind not in LOSS_KINDS:
            raise ParameterError(f"unknown loss kind {self.loss_kind!r}, expected one of {LOSS_KINDS}")
        self.flat = np.empty(sum(p.size for p in parameters(self)))
        for (owner, name), view in zip(_parameter_slots(self), unflatten(self, self.flat)):
            view[...] = getattr(owner, name)
            setattr(owner, name, view)

    @property
    def d_in(self) -> int:
        return self.layers[0].d_in

    @property
    def class_count(self) -> int:
        """One readout row, and one logit column, per class."""
        return self.readout_w.shape[0]


@dataclass
class ForwardTrace:
    caches: list[LayerCache]  # one per layer for a training pass, none for an inference pass
    logits: np.ndarray
    readout_input: np.ndarray | None  # the last layer's output, kept by a training pass for backward_full


def default_layer_count(n_samples: int) -> int:
    """Suggested depth for a training set of n samples: ceil(n/1000) + 1."""
    return math.ceil(n_samples / 1000) + 1


def build_network(
    d_in: int,
    n_classes: int,
    layer_count: int,
    D_per_layer: list[int],
    loss_kind: str,
    rng: Rng,
    batch_norm: bool = False,
    omega_stddev: float = 0.1,
    readout_stddev: float = 0.1,
) -> Network:
    """Chain layer_count layers, one per width of D_per_layer (a single width serves every layer), plus a
    linear readout."""
    layers = []
    dim = d_in
    for D in D_per_layer * (layer_count // len(D_per_layer)):
        layers.append(init_layer(dim, D, omega_stddev, rng, batchnorm=batch_norm))
        dim = 2 * D
    readout_w = rng.normal((n_classes, dim), 0.0, readout_stddev)
    readout_b = np.zeros(n_classes)
    return Network(layers=layers, readout_w=readout_w, readout_b=readout_b, loss_kind=loss_kind)


def parameter_count(d_in: int, n_classes: int, layer_count: int, D_per_layer: list[int], batch_norm: bool) -> int:
    """The length of the flat buffer build_network makes, counted without building it or repeating a single
    width: each layer's omega (and its batch norm's gamma and beta), then the readout."""
    repeats = layer_count // len(D_per_layer)
    omega = D_per_layer[0] * d_in + sum(2 * a * b for a, b in zip(D_per_layer, D_per_layer[1:]))
    omega += (repeats - 1) * 2 * D_per_layer[0] ** 2
    return omega + 4 * sum(D_per_layer) * repeats * batch_norm + n_classes * (2 * D_per_layer[-1] + 1)


def forward_full(net: Network, X, training: bool = False) -> ForwardTrace:
    """Run every layer and the readout. A training pass keeps each layer's record for
    backward_full; an inference pass keeps none, so it holds one layer's arrays at a time."""
    h = X
    caches = []
    for layer in net.layers:
        h, cache = forward(layer, h, training=training)
        if training:
            caches.append(cache)
        del cache  # else the record would outlive its layer into the next one's forward
    logits = h @ net.readout_w.T + net.readout_b
    return ForwardTrace(caches=caches, logits=logits, readout_input=h if training else None)


def _parameter_slots(net: Network):
    """(owner, attribute) of each trainable array in declared order: per layer omega (+ gamma, beta), then
    readout."""
    for layer in net.layers:
        yield layer, "omega"
        if layer.batchnorm is not None:
            yield layer.batchnorm, "gamma"
            yield layer.batchnorm, "beta"
    yield net, "readout_w"
    yield net, "readout_b"


def parameters(net: Network) -> list[np.ndarray]:
    """All trainable arrays, in _parameter_slots order."""
    return [getattr(owner, name) for owner, name in _parameter_slots(net)]


def unflatten(net: Network, vec: np.ndarray) -> list[np.ndarray]:
    """Views into vec, a vector laid out like net.flat, shaped like parameters(net), in that order."""
    views, pos = [], 0
    for p in parameters(net):
        views.append(vec[pos:pos + p.size].reshape(p.shape))
        pos += p.size
    return views


def predict_from_logits(logits: np.ndarray) -> np.ndarray:
    """Argmax per row (ties to the lowest index)."""
    return np.argmax(logits, axis=1)


def _data_loss(net: Network, logits: np.ndarray, y: np.ndarray, grad: bool):
    """Mean data loss over the batch (grad=False) or its gradient w.r.t. the
    logits (grad=True). Both come from one set of formulas; y holds class
    indices in [0, class_count), as a Dataset's labels do."""
    n = logits.shape[0]
    if net.loss_kind == "cross_entropy":
        shifted = logits - logits.max(axis=1, keepdims=True)
        expd = np.exp(shifted)
        sums = expd.sum(axis=1, keepdims=True)
        if not grad:
            # -log softmax(z)_y = logsumexp(z) - z_y: exact where softmax(z)_y underflows
            return float(np.mean(np.log(sums[:, 0]) - shifted[np.arange(n), y]))
        grad_logits = expd / sums
        grad_logits[np.arange(n), y] -= 1.0
        grad_logits /= n
        return grad_logits
    targets = _targets(net, y, n)
    if net.loss_kind == "squared":
        residual = logits - targets
        slope = 2.0
    else:  # squared_hinge: targets are +1/-1 margins
        residual = np.maximum(0.0, 1.0 - targets * logits)
        slope = -2.0 * targets
    if not grad:
        return float(np.add.reduce(residual * residual, None)) / n
    return slope * residual / n


def loss_gradient(net: Network, logits: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(mean data loss)/d(logits), the only loss output a training step needs.

    ``y`` holds class indices in [0, class_count), as a Dataset's labels do.
    """
    return _data_loss(net, logits, y, grad=True)


def compute_loss(net: Network, logits: np.ndarray, y: np.ndarray, lam: float) -> tuple[float, float, int]:
    """(mean data loss, L2 penalty over all trainable parameters, correct count).

    The penalty is 0.5 * lam times the sum of the per-array sums of squares,
    taken in parameters() order.
    """
    data_loss = _data_loss(net, logits, y, grad=False)
    reg_loss = 0.5 * lam * sum(float(np.add.reduce(p * p, None)) for p in parameters(net))
    return data_loss, reg_loss, int(np.sum(predict_from_logits(logits) == y))


def _targets(net: Network, y: np.ndarray, n: int) -> np.ndarray:
    """One-hot targets (squared) or +1/-1 margins (squared hinge), one column per class."""
    onehot = np.zeros((n, net.class_count))
    onehot[np.arange(n), y] = 1.0
    if net.loss_kind == "squared_hinge":
        return 2.0 * onehot - 1.0
    return onehot


def backward_full(net: Network, trace: ForwardTrace, grad_logits, lam: float, out: np.ndarray, views) -> np.ndarray:
    """Chain rule through readout and every layer, plus the L2 term lam * net.flat.

    Writes one gradient vector laid out like net.flat into ``out``, a buffer a
    training loop reuses, through ``views``, unflatten(net, out), which the loop
    makes once; returns out. It consumes the trace, which must be a training
    pass of net: the readout's input is dropped once the readout gradient
    is written, and each record is popped and handed, with the gradient
    computed for it, to rff_layer.backward, which consumes both.
    """
    np.matmul(grad_logits.T, trace.readout_input, out=views[-2])
    trace.readout_input = None
    np.add.reduce(grad_logits, 0, out=views[-1])
    g = grad_logits @ net.readout_w
    end = len(views) - 2
    for i in range(len(net.layers) - 1, -1, -1):
        start = end - (1 if net.layers[i].batchnorm is None else 3)
        g = backward(net.layers[i], trace.caches.pop(), g, views[start:end], input_grad=i > 0)
        end = start
    out += lam * net.flat
    return out


def accuracy(net: Network, X, y) -> float:
    return float(np.mean(predict_from_logits(forward_full(net, X, training=False).logits) == y))


# --- serialization ---------------------------------------------------------
#
# Flat binary snapshot: a magic line, a JSON header line, then raw
# little-endian float64 blobs in declared order. Round-trips are bit-exact.
# The header holds only what no array tells: the loss kind, the class names
# (one readout row each), layer 0's input width, each layer's D and whether it
# has batch norm, and the number of preprocessing stages, per-column (shift,
# div) pairs as wide as layer 0's input. Every other width follows: a layer
# reads the 2D columns of the one below, and the readout those of the last.
# A v1 header, which also stored the class count, every d_in, the stage width
# and the batch-norm constants, loads through the same decoder, which checks
# each stated d_in against the width below it and ignores the other keys but
# the batch-norm entry.

_MAGIC = b"RFFNET1\n"
_V1_BATCHNORM = {"momentum": BN_MOMENTUM, "epsilon": BN_EPSILON}


@contextlib.contextmanager
def atomic_file(path, mode: str, newline: str | None):
    """Open <path>.tmp for the block to write, then rename it to path. A failed write
    or rename removes <path>.tmp and re-raises."""
    tmp = f"{path}.tmp"
    fh = open(tmp, mode, newline=newline)
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def save_network(net: Network, path, preprocess, label_names) -> None:
    layers_meta = []
    blobs: list[np.ndarray] = []
    for layer in net.layers:
        layers_meta.append({"D": layer.D, "batchnorm": layer.batchnorm is not None})
        blobs.append(layer.omega)
        if layer.batchnorm is not None:
            bn = layer.batchnorm
            blobs.extend([bn.gamma, bn.beta, bn.running_mean, bn.running_var])
    layers_meta[0]["d_in"] = net.d_in
    blobs.extend([net.readout_w, net.readout_b])
    for stage in preprocess:
        blobs.extend(stage)
    header = {
        "loss_kind": net.loss_kind,
        "layers": layers_meta,
        "preprocess_stages": len(preprocess),
        "label_names": list(label_names),
    }
    with atomic_file(path, "wb", None) as fh:
        fh.write(_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n")
        for b in blobs:
            fh.write(np.ascontiguousarray(b, dtype="<f8"))


def load_network(path):
    """Returns (net, preprocess_stages, label_names); inverse of save_network.

    Any file that is not exactly such a snapshot raises DataError: a wrong
    magic line, an unterminated or malformed header, dimensions that are not
    positive integers, a layer's stated d_in that is not the width below it,
    an unknown loss kind, label names that are not at least two distinct
    strings, a batch-norm entry that is not true, false, null or v1's
    constants, a negative running variance, a stored value that is not
    finite, a preprocessing divisor that is not > 0, or a data section shorter
    or longer than the header describes.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(_MAGIC):
        raise DataError(f"{path} is not a network snapshot")
    header_end = blob.find(b"\n", len(_MAGIC))
    if header_end < 0:
        raise DataError(f"{path}: snapshot header has no terminating newline")
    size = len(blob) - header_end - 1
    if size % 8:
        raise DataError(f"{path}: snapshot data is {size} bytes, not a whole number of float64 values")
    data = np.frombuffer(blob, dtype="<f8", offset=header_end + 1)  # read in place, not a copied slice
    try:
        header = json.loads(blob[len(_MAGIC):header_end])
        return _decode_snapshot(header, data)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise DataError(f"{path}: malformed snapshot header ({type(exc).__name__}: {exc})") from None


def _decode_snapshot(header: dict, data: np.ndarray):
    """The arrays of data, shaped and assigned as header describes; every value must be used.

    Trainable arrays are taken as views of data: Network copies them into its
    parameter buffer. Everything else is copied here.
    """
    if not np.isfinite(data).all():
        raise DataError("snapshot stores a NaN or infinite value")
    pos = 0

    def take(*shape):
        nonlocal pos
        if not all(type(d) is int and d >= 1 for d in shape):
            raise DataError(f"array dimensions {shape} are not positive integers")
        count = math.prod(shape)
        if pos + count > data.size:
            raise DataError(f"snapshot truncated: {data.size} values stored, more than {pos + count} described")
        arr = data[pos:pos + count].reshape(shape)
        pos += count
        return arr

    names = header["label_names"]
    if not (type(names) is list and all(type(n) is str for n in names) and len(set(names)) == len(names) >= 2):
        raise DataError(f"label names {names!r} are not two or more distinct strings")
    if not header["layers"]:
        raise DataError("snapshot has no layers")
    d_in = width = header["layers"][0]["d_in"]
    layers = []
    for i, meta in enumerate(header["layers"]):
        if "d_in" in meta and meta["d_in"] != width:
            raise DataError(f"layer {i} states d_in {meta['d_in']!r}, but the layer below it has {width} outputs")
        omega = take(meta["D"], width)
        width = 2 * meta["D"]
        has_bn = meta["batchnorm"]
        if has_bn == _V1_BATCHNORM:
            has_bn = True
        if not any(has_bn is v for v in (True, False, None)):
            raise DataError(f"batch-norm entry {has_bn!r} is not true, false, null or v1's {_V1_BATCHNORM}")
        bn = None
        if has_bn:
            bn = BatchNormState(gamma=take(width), beta=take(width),
                                running_mean=take(width).copy(), running_var=take(width).copy())
            # inference divides by sqrt(running_var + epsilon): it must stay real
            if not (bn.running_var >= 0.0).all():
                raise DataError("batch-norm running variance has a negative entry")
        layers.append(RffLayer(omega=omega, batchnorm=bn))
    readout_w = take(len(names), width)
    readout_b = take(len(names))
    stages = []
    for _ in range(header["preprocess_stages"]):
        stages.append((take(d_in).copy(), take(d_in).copy()))
        if not (stages[-1][1] > 0.0).all():
            raise DataError("a preprocessing stage divides by a value that is not > 0")
    if pos != data.size:
        raise DataError(f"{8 * (data.size - pos)} bytes follow the last array the header describes")
    net = Network(layers=layers, readout_w=readout_w, readout_b=readout_b, loss_kind=header["loss_kind"])
    return net, stages, names
