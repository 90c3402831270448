import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffnet.numerics import Rng
from rffnet.rff_layer import (
    BN_EPSILON,
    BN_MOMENTUM,
    BatchNormState,
    RffLayer,
    backward,
    batchnorm_backward,
    batchnorm_forward,
    forward,
    init_layer,
)


def relative_error(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def grad_arrays(layer):
    """NaN-filled arrays for backward's ``out``: omega, then gamma and beta with batch norm."""
    shapes = [layer.omega.shape] + ([(2 * layer.D,)] * 2 if layer.batchnorm is not None else [])
    return [np.full(shape, np.nan) for shape in shapes]


def test_init_shapes_and_variance():
    layer = init_layer(6, 64, 0.1, Rng(0))
    assert layer.omega.shape == (64, 6)
    var = layer.omega.var()
    assert abs(var - 0.01) / 0.01 < 0.20


def test_init_same_seed_same_omega():
    a = init_layer(5, 8, 0.1, Rng(42))
    b = init_layer(5, 8, 0.1, Rng(42))
    assert np.array_equal(a.omega, b.omega)


def test_forward_zero_input():
    layer = init_layer(4, 8, 0.1, Rng(1))
    out, _ = forward(layer, np.zeros((3, 4)))
    scale = np.sqrt(1.0 / 8)
    expected = np.concatenate([np.full(8, scale), np.zeros(8)])
    assert np.abs(out - expected).max() < 1e-15


def test_forward_scalar_case():
    # d_in=1, D=1, omega=[2], x=[0.5] -> [cos(1), sin(1)]
    layer = RffLayer(omega=np.array([[2.0]]))
    out, _ = forward(layer, np.array([[0.5]]))
    assert abs(out[0, 0] - 0.540302) < 1e-6
    assert abs(out[0, 1] - 0.841471) < 1e-6


@given(st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_unit_norm_invariant(seed):
    rng = Rng(seed)
    d = 1 + seed % 7
    D = 1 + (seed // 7) % 32
    layer = init_layer(d, D, 0.5, rng)
    X = rng.derive("x").normal((4, d), 0.0, 3.0)
    out, _ = forward(layer, X)
    norms = np.sum(out * out, axis=1)
    assert np.abs(norms - 1.0).max() < 1e-12


def test_trig_pair_periodicity():
    rng = Rng(8)
    layer = init_layer(3, 5, 0.4, rng)
    x = rng.derive("x").normal((1, 3))
    m = 2
    w = layer.omega[m]
    shifted = x + 2.0 * np.pi * w / np.dot(w, w)
    out_a, _ = forward(layer, x)
    out_b, _ = forward(layer, shifted)
    # only the m-th cos/sin pair is invariant under this shift
    assert abs(out_a[0, m] - out_b[0, m]) < 1e-9
    assert abs(out_a[0, m + 5] - out_b[0, m + 5]) < 1e-9


def test_backward_zero_grad_output():
    layer = init_layer(3, 4, 0.1, Rng(2))
    X = Rng(3).normal((5, 3))
    _, cache = forward(layer, X)
    grads = grad_arrays(layer)
    grad_in = backward(layer, cache, np.zeros((5, 8)), grads)
    assert np.array_equal(grads[0], np.zeros((4, 3)))
    assert np.array_equal(grad_in, np.zeros((5, 3)))


def test_backward_zero_input_gives_zero_omega_grad():
    layer = init_layer(3, 4, 0.1, Rng(2))
    _, cache = forward(layer, np.zeros((5, 3)))
    grads = grad_arrays(layer)
    backward(layer, cache, Rng(4).normal((5, 8)), grads)
    assert np.abs(grads[0]).max() == 0.0


def _layer_loss(layer, X, w_out, training=False):
    out, _ = forward(layer, X, training=training)
    return float(np.sum(out * w_out))


@pytest.mark.parametrize("seed", range(100))
def test_gradient_matches_finite_differences(seed):
    rng = Rng(seed)
    d = 1 + seed % 5
    D = 1 + (seed * 7) % 6
    batch = 2 + seed % 4
    layer = init_layer(d, D, 0.5, rng)
    X = rng.derive("x").normal((batch, d))
    w_out = rng.derive("w").normal((batch, 2 * D))
    _, cache = forward(layer, X)
    grads = grad_arrays(layer)
    grad_in = backward(layer, cache, w_out, grads)
    h = 1e-6
    for i in range(D):
        for j in range(d):
            orig = layer.omega[i, j]
            layer.omega[i, j] = orig + h
            lp = _layer_loss(layer, X, w_out)
            layer.omega[i, j] = orig - h
            lm = _layer_loss(layer, X, w_out)
            layer.omega[i, j] = orig
            assert relative_error((lp - lm) / (2 * h), grads[0][i, j]) < 1e-5
    for i in range(batch):
        for j in range(d):
            orig = X[i, j]
            X[i, j] = orig + h
            lp = _layer_loss(layer, X, w_out)
            X[i, j] = orig - h
            lm = _layer_loss(layer, X, w_out)
            X[i, j] = orig
            assert relative_error((lp - lm) / (2 * h), grad_in[i, j]) < 1e-5


@pytest.mark.parametrize("training", [True, False])
def test_batchnorm_forward_leaves_features_and_input_unchanged(training):
    # batch norm works in place on its own arrays, never on the cached features or the input
    rng = Rng(21)
    layer = init_layer(5, 8, 0.7, rng, batchnorm=True)
    layer.batchnorm.running_mean = rng.derive("mean").normal(16, 0.0, 0.1)
    layer.batchnorm.running_var = 0.5 + 1.5 * rng.derive("var").uniform(16)
    X = rng.derive("x").normal((12, 5), 0.0, 2.0)
    X_before = X.copy()
    _, cache = forward(layer, X, training=training)
    assert np.array_equal(X, X_before)
    f = X @ layer.omega.T
    expected = np.sqrt(1.0 / 8) * np.concatenate([np.cos(f), np.sin(f)], axis=1)
    assert np.abs(cache.features - expected).max() < 1e-15
    assert np.array_equal(cache.features, forward(RffLayer(omega=layer.omega), X)[0])
    assert not np.shares_memory(cache.output, cache.features)


def test_batchnorm_constant_column_maps_to_zero():
    bn = BatchNormState.identity(3)
    x = np.column_stack([np.full(5, 2.0), np.arange(5.0), np.full(5, -1.0)])
    y, _ = batchnorm_forward(bn, x, training=True)
    assert np.abs(y[:, 0]).max() < 1e-12
    assert np.abs(y[:, 2]).max() < 1e-12


def test_batchnorm_normalizes_batch():
    bn = BatchNormState.identity(4)
    x = Rng(5).normal((64, 4), 2.0, 3.0)
    y, _ = batchnorm_forward(bn, x, training=True)
    assert np.abs(y.mean(axis=0)).max() < 1e-12
    assert np.abs(y.var(axis=0) - 1.0).max() < 1e-4  # epsilon shifts variance slightly


def test_batchnorm_inference_identity_stats():
    bn = BatchNormState.identity(3)
    x = Rng(6).normal((4, 3))
    y, _ = batchnorm_forward(bn, x, training=False)
    assert np.abs(y - x / np.sqrt(1 + BN_EPSILON)).max() < 1e-9


def test_batchnorm_inference_records_nothing():
    # only a training-mode forward records what backward reads; a layer without batch
    # norm still differentiates an inference record (test_gradient_matches_finite_differences)
    layer = init_layer(3, 4, 0.5, Rng(7), batchnorm=True)
    X = Rng(8).normal((5, 3))
    _, cache = forward(layer, X, training=False)
    assert cache.bn is None
    _, cache = forward(layer, X, training=True)
    x_hat, inv_std = cache.bn
    assert x_hat.shape == (5, 8) and inv_std.shape == (8,)


def test_batchnorm_running_stats_update():
    bn = BatchNormState.identity(2)
    x = np.array([[0.0, 10.0], [2.0, 30.0]])
    batchnorm_forward(bn, x, training=True)
    assert BN_MOMENTUM == 0.1
    assert np.allclose(bn.running_mean, 0.9 * 0.0 + 0.1 * np.array([1.0, 20.0]))
    assert np.allclose(bn.running_var, 0.9 * 1.0 + 0.1 * np.array([1.0, 100.0]))


def test_batchnorm_backward_finite_differences():
    rng = Rng(9)
    bn = BatchNormState.identity(6)
    bn.gamma = rng.normal(6, 1.0, 0.2)
    bn.beta = rng.normal(6, 0.0, 0.2)
    x = rng.derive("x").normal((4, 6))
    w = rng.derive("w").normal((4, 6))

    def loss(x_):
        bn_copy = BatchNormState(gamma=bn.gamma, beta=bn.beta,
                                 running_mean=bn.running_mean.copy(),
                                 running_var=bn.running_var.copy())
        y, _ = batchnorm_forward(bn_copy, x_, training=True)
        return float(np.sum(y * w))

    y, cache = batchnorm_forward(bn, x, training=True)
    ggamma, gbeta = np.full(6, np.nan), np.full(6, np.nan)
    grad_y = w.copy()  # batchnorm_backward builds grad_x inside the gradient it is handed
    gx = batchnorm_backward(bn, cache, grad_y, ggamma, gbeta)
    assert gx is grad_y
    h = 1e-6
    for i in range(4):
        for j in range(6):
            xp = x.copy(); xp[i, j] += h
            xm = x.copy(); xm[i, j] -= h
            num = (loss(xp) - loss(xm)) / (2 * h)
            assert relative_error(num, gx[i, j]) < 1e-5
    for j in range(6):
        for arr, grad in ((bn.gamma, ggamma), (bn.beta, gbeta)):
            orig = arr[j]
            arr[j] = orig + h
            lp = loss(x)
            arr[j] = orig - h
            lm = loss(x)
            arr[j] = orig
            assert relative_error((lp - lm) / (2 * h), grad[j]) < 1e-5


@given(st.integers(0, 5_000))
@settings(max_examples=30, deadline=None)
def test_backward_shapes_roundtrip(seed):
    rng = Rng(seed)
    d = 1 + seed % 6
    D = 1 + (seed // 11) % 8
    batch = 2 + seed % 5
    layer = init_layer(d, D, 0.3, rng, batchnorm=bool(seed % 2))
    X = rng.derive("x").normal((batch, d))
    out, cache = forward(layer, X, training=True)
    assert out.shape == (batch, 2 * D)
    grads = grad_arrays(layer)
    grad_in = backward(layer, cache, np.ones_like(out), grads)
    assert grad_in.shape == (batch, d)
    assert all(np.isfinite(g).all() for g in grads)  # every parameter gradient was written
