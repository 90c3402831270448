"""One random-feature layer: frequency matrix, cos/sin map, optional batch norm.

A layer maps a batch (n x d_in) to (n x 2D): pre-activations f = x @ omega^T are
pushed through cos and sin and concatenated as [cos(f) | sin(f)], scaled by
sqrt(1/D) so every raw feature row has unit norm. Batch normalization, when
enabled, is applied after the trig map.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .numerics import Rng, side_by_side, split_pays

BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics
BN_EPSILON = 1e-5  # added to every variance before its square root
# A split forward cuts the frequency rows at a multiple of this many rows, and
# only when D is a multiple of 8. A column block of an OpenBLAS product keeps the
# whole product's last bits only when it starts on a multiple of 8 rows (500 of
# 1000 rows does not), and, for D from 193 to 319, only when it also ends on one.
ROW_ALIGN = 64


@dataclass
class BatchNormState:
    """Per-feature affine normalization with running statistics for inference."""

    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def identity(cls, width: int) -> "BatchNormState":
        return cls(gamma=np.ones(width), beta=np.zeros(width),
                   running_mean=np.zeros(width), running_var=np.ones(width))


@dataclass
class RffLayer:
    """Frequency matrix omega of shape (D, d_in) plus optional batch-norm state."""

    omega: np.ndarray
    batchnorm: BatchNormState | None = None

    @property
    def D(self) -> int:
        return self.omega.shape[0]

    @property
    def d_in(self) -> int:
        return self.omega.shape[1]


@dataclass
class LayerCache:
    """Intermediates of one forward call, consumed by backward."""

    x: np.ndarray            # (batch, d_in)
    features: np.ndarray     # sqrt(1/D) [cos f | sin f] with f = x @ omega^T, before batch norm
    bn: tuple[np.ndarray, np.ndarray] | None = None  # (x_hat, inv_std) of a training-mode batch norm


def init_layer(d_in: int, D: int, stddev: float, rng: Rng, batchnorm: bool = False) -> RffLayer:
    """Fresh layer with omega ~ N(0, stddev^2), i.e. an RBF-like spectral density."""
    omega = rng.normal((D, d_in), 0.0, stddev)
    bn = BatchNormState.identity(2 * D) if batchnorm else None
    return RffLayer(omega=omega, batchnorm=bn)


def batchnorm_forward(bn: BatchNormState, x: np.ndarray, training: bool, cols: slice, y: np.ndarray, record) -> None:
    """Normalize x, the columns ``cols`` of a layer's features, per feature, into the same columns of y.

    Training mode uses the batch's statistics: it writes the normalized input and
    1/std into the same columns of record = (x_hat, inv_std), which
    batchnorm_backward reads, and folds the batch's mean and variance into
    bn.running_mean[cols] and bn.running_var[cols] in place. Inference mode uses
    the running statistics; record is None. A training batch needs at least 2 rows."""
    gamma, beta = bn.gamma[cols], bn.beta[cols]
    y = y[:, cols]
    if training:
        n = x.shape[0]
        # np.add.reduce(.., 0) / n is what x.mean(axis=0) computes, minus the wrapper's overhead
        mean = np.add.reduce(x, 0) / n
        # x_hat is normalised in place from x - mean; y holds the squares until it is built
        x_hat = np.subtract(x, mean, out=record[0][:, cols])
        np.multiply(x_hat, x_hat, out=y)
        var = np.add.reduce(y, 0) / n
        x_hat *= np.divide(1.0, np.sqrt(var + BN_EPSILON), out=record[1][cols])
        np.multiply(x_hat, gamma, out=y)
        bn.running_mean[cols] = (1.0 - BN_MOMENTUM) * bn.running_mean[cols] + BN_MOMENTUM * mean
        bn.running_var[cols] = (1.0 - BN_MOMENTUM) * bn.running_var[cols] + BN_MOMENTUM * var
    else:
        np.subtract(x, bn.running_mean[cols], out=y)
        y *= 1.0 / np.sqrt(bn.running_var[cols] + BN_EPSILON)
        y *= gamma
    y += beta


def batchnorm_backward(bn: BatchNormState, record: tuple[np.ndarray, np.ndarray], grad_y: np.ndarray,
                       gamma_out: np.ndarray, beta_out: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the input of one training-mode batch-norm forward,
    given its (x_hat, inv_std) record.

    The gamma and beta gradients are written into gamma_out and beta_out
    (views into a flat gradient buffer during training). The caller hands
    grad_y over: grad_x is built inside it and returned."""
    x_hat, inv_std = record
    scratch = grad_y * x_hat
    np.add.reduce(scratch, 0, out=gamma_out)
    np.add.reduce(grad_y, 0, out=beta_out)
    grad_x = grad_y
    grad_x *= bn.gamma  # grad_xhat, turned into grad_x in place
    # inv_std / n * (n * grad_xhat - sum(grad_xhat) - x_hat * sum(grad_xhat * x_hat)),
    # evaluated in place in the same operation order, products through scratch
    n = x_hat.shape[0]
    np.multiply(grad_x, x_hat, out=scratch)
    proj = np.add.reduce(scratch, 0)
    total = np.add.reduce(grad_x, 0)
    grad_x *= n
    grad_x -= total
    np.multiply(x_hat, proj, out=scratch)
    grad_x -= scratch
    grad_x *= inv_std / n
    return grad_x


def _map_rows(layer: RffLayer, X, features, y, record, training: bool, lo: int, hi: int) -> None:
    """Map the frequency rows [lo, hi): f = X @ omega[lo:hi]^T, cos(f) into feature
    columns [lo, hi) and sin(f) into [D + lo, D + hi), scaled by sqrt(1/D), then batch
    norm into the same columns of y and record, per column block: all 2D columns at
    once for all D rows, else the cos block, then the sin block."""
    D = layer.D
    f = X @ layer.omega[lo:hi].T
    np.cos(f, out=features[:, lo:hi])
    np.sin(f, out=features[:, D + lo:D + hi])
    del f  # frees the pre-activations before batch norm
    for cols in [slice(0, 2 * D)] if hi - lo == D else [slice(lo, hi), slice(D + lo, D + hi)]:
        x = features[:, cols]
        x *= np.sqrt(1.0 / D)
        if layer.batchnorm is not None:
            batchnorm_forward(layer.batchnorm, x, training, cols, y, record)


def forward(layer: RffLayer, X, training: bool = False):
    """Apply the layer to a float64 batch; returns (output, cache).

    Output rows are sqrt(1/D) [cos(f_1)..cos(f_D), sin(f_1)..sin(f_D)]; the
    cos-then-sin order pairs feature m with m+D and is relied on by backward.
    forward makes every array of the layer once: the features, the output (the
    features themselves without batch norm) and a training-mode batch norm's
    (x_hat, inv_std) record, which batchnorm_forward fills. Frequency row m of
    omega alone makes features m and m+D, and batch norm acts on each feature
    alone. So when f = X @ omega^T is large enough (numerics.split_pays), rows
    [0, cut) are mapped on the helper thread (their product, trig map, scale and
    batch norm) while rows [cut, D) are mapped here, with the same bits as one
    pass over all D rows. cut is the largest multiple of ROW_ALIGN rows at most
    D/2; a cut of 0, or a D that is no multiple of 8, maps the layer in one pass.
    """
    D = layer.D
    bn = layer.batchnorm
    features = np.empty((X.shape[0], 2 * D))
    output = features if bn is None else np.empty_like(features)
    record = (np.empty_like(features), np.empty(2 * D)) if bn is not None and training else None
    rows = partial(_map_rows, layer, X, features, output, record, training)
    if split_pays(X.shape[0] * D) and D % 8 == 0 and (cut := D // 2 // ROW_ALIGN * ROW_ALIGN):
        side_by_side(partial(rows, 0, cut), partial(rows, cut, D), X.shape[0] * D)
    else:
        rows(0, D)
    return output, LayerCache(x=X, features=features, bn=record)


def backward(layer: RffLayer, cache: LayerCache, grad_output, out, input_grad: bool = True):
    """Backpropagate through the layer; returns grad_input.

    The parameter gradients are written into ``out``, a sequence of arrays
    shaped like omega (then gamma and beta with batch norm). grad_omega is
    summed over the batch. Derivatives of the trig pair are -sin(f) x for the
    cos branch and cos(f) x for the sin branch, carrying the same sqrt(1/D)
    scale as the forward map. With ``input_grad=False`` grad_input is skipped
    and returned as None: a network's first layer has no use for it. A
    batch-norm layer differentiates only a training-mode forward's record. backward
    consumes the record (it sets bn and features to None once read) and,
    with batch norm, builds its input gradient inside grad_output. When dF is
    large enough (numerics.split_pays) and grad_input is wanted, the grad_omega
    product runs on the helper thread beside the grad_input product
    (numerics.side_by_side runs both here, in that order, otherwise).
    """
    if layer.batchnorm is not None:
        grad_feats = batchnorm_backward(layer.batchnorm, cache.bn, grad_output, *out[1:])
        cache.bn = None
    else:
        grad_feats = grad_output
    D = layer.D
    gc = grad_feats[:, :D]
    gs = grad_feats[:, D:]
    # scale*sin(f) and scale*cos(f) are already in the cached features
    dF = gs * cache.features[:, :D]
    dF -= gc * cache.features[:, D:]
    cache.features = None
    grad_omega = partial(np.matmul, dF.T, cache.x, out=out[0])
    if not input_grad:
        grad_omega()
        return None
    return side_by_side(grad_omega, partial(np.matmul, dF, layer.omega), dF.size)[1]
