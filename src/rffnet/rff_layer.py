"""One random-feature layer: frequency matrix, cos/sin map, optional batch norm.

A layer maps a batch (n x d_in) to (n x 2D): pre-activations f = x @ omega^T are
pushed through cos and sin and concatenated as [cos(f) | sin(f)], scaled by
sqrt(1/D) so every raw feature row has unit norm. Batch normalization, when
enabled, is applied after the trig map.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import Rng

BN_MOMENTUM = 0.1  # weight of each training batch in the running statistics
BN_EPSILON = 1e-5  # added to every variance before its square root


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
    output: np.ndarray       # after batch norm (== features when disabled)
    bn: tuple[np.ndarray, np.ndarray] | None = None  # (x_hat, inv_std) of a training-mode batch norm


def init_layer(d_in: int, D: int, stddev: float, rng: Rng, batchnorm: bool = False) -> RffLayer:
    """Fresh layer with omega ~ N(0, stddev^2), i.e. an RBF-like spectral density."""
    omega = rng.normal((D, d_in), 0.0, stddev)
    bn = BatchNormState.identity(2 * D) if batchnorm else None
    return RffLayer(omega=omega, batchnorm=bn)


def batchnorm_forward(bn: BatchNormState, x: np.ndarray, training: bool):
    """Normalize per feature; returns (y, record).

    Training mode uses batch stats, updates the running averages in place and
    records (x_hat, inv_std) for batchnorm_backward; inference mode uses the
    running stats and records None. A training batch needs at least 2 rows."""
    if training:
        n = x.shape[0]
        # np.add.reduce(.., 0) / n is what x.mean(axis=0) computes, minus the wrapper's overhead
        mean = np.add.reduce(x, 0) / n
        # x_hat is normalised in place from x - mean; y holds the squares until it is built
        x_hat = x - mean
        y = x_hat * x_hat
        var = np.add.reduce(y, 0) / n
        inv_std = 1.0 / np.sqrt(var + BN_EPSILON)
        x_hat *= inv_std
        bn.running_mean = (1.0 - BN_MOMENTUM) * bn.running_mean + BN_MOMENTUM * mean
        bn.running_var = (1.0 - BN_MOMENTUM) * bn.running_var + BN_MOMENTUM * var
        np.multiply(x_hat, bn.gamma, out=y)
        record = (x_hat, inv_std)
    else:
        y = x - bn.running_mean
        y *= 1.0 / np.sqrt(bn.running_var + BN_EPSILON)
        y *= bn.gamma
        record = None
    y += bn.beta
    return y, record


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


def forward(layer: RffLayer, X, training: bool = False):
    """Apply the layer to a float64 batch; returns (output, cache).

    Output rows are sqrt(1/D) [cos(f_1)..cos(f_D), sin(f_1)..sin(f_D)]; the
    cos-then-sin order pairs feature m with m+D and is relied on by backward.
    """
    f = X @ layer.omega.T
    D = layer.D
    features = np.empty((X.shape[0], 2 * D))
    np.cos(f, out=features[:, :D])
    np.sin(f, out=features[:, D:])
    del f
    features *= np.sqrt(1.0 / D)
    if layer.batchnorm is not None:
        output, bn_cache = batchnorm_forward(layer.batchnorm, features, training)
    else:
        output, bn_cache = features, None
    return output, LayerCache(x=X, features=features, output=output, bn=bn_cache)


def backward(layer: RffLayer, cache: LayerCache, grad_output, out, input_grad: bool = True):
    """Backpropagate through the layer; returns grad_input.

    The parameter gradients are written into ``out``, a sequence of arrays
    shaped like omega (then gamma and beta with batch norm). grad_omega is
    summed over the batch. Derivatives of the trig pair are -sin(f) x for the
    cos branch and cos(f) x for the sin branch, carrying the same sqrt(1/D)
    scale as the forward map. With ``input_grad=False`` grad_input is skipped
    and returned as None: a network's first layer has no use for it. A
    batch-norm layer differentiates only a training-mode forward's record. backward
    consumes the record (it sets output, bn and features to None once read) and,
    with batch norm, builds its input gradient inside grad_output.
    """
    cache.output = None
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
    np.matmul(dF.T, cache.x, out=out[0])
    return dF @ layer.omega if input_grad else None
