import hashlib
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from oracles import training_log_from_csv_text

from rffnet import network, optimizer
from rffnet.cli import RunConfig, log_csv_text
from rffnet.errors import ParameterError
from rffnet.network import accuracy, build_network, load_network, parameters, save_network
from rffnet.numerics import Rng
from rffnet.optimizer import adam_step, fit
from rffnet.tasks import two_blobs


def test_adam_zero_gradient_is_noop():
    p = np.array([1.0, -2.0])
    adam_step(p, np.zeros(2), np.zeros(2), np.zeros(2), 1, RunConfig())
    assert np.array_equal(p, [1.0, -2.0])


def test_adam_first_step_hand_value():
    p = np.array([0.0])
    adam_step(p, np.array([1.0]), np.zeros(1), np.zeros(1), 1, RunConfig(lr=0.001))
    expected = -0.001 / (1.0 + 1e-8)
    assert abs(p[0] - expected) < 1e-15


def test_adam_minimizes_quadratic():
    p = np.array([1.0])
    m, v, config = np.zeros(1), np.zeros(1), RunConfig(lr=0.001)
    for t in range(1, 5001):
        adam_step(p, 2.0 * p, m, v, t, config)
    assert abs(p[0]) < 1e-3


def test_adam_second_moment_nonnegative():
    rng = Rng(0)
    p = rng.normal(5)
    m, v = np.zeros(5), np.zeros(5)
    for i in range(50):
        adam_step(p, rng.derive(i).normal(5, 0.0, 10.0), m, v, i + 1, RunConfig())
        assert np.all(v >= 0.0)


def _adam_run():
    """p, m and v after 3 Adam steps on 1001 seeded parameters."""
    p, m, v = Rng(40).normal(1001), np.zeros(1001), np.zeros(1001)
    for t in range(1, 4):
        adam_step(p, Rng(41).derive(t).normal(1001), m, v, t, RunConfig(lr=0.01))
    return p, m, v


def test_split_adam_keeps_every_bit(split_everything):
    whole = _adam_run()
    split_everything()
    assert all(np.array_equal(a, b) for a, b in zip(whole, _adam_run()))


_finite = st.floats(-1e3, 1e3, allow_nan=False, allow_subnormal=False)


@given(st.lists(hnp.array_shapes(min_dims=1, max_dims=2, max_side=6), min_size=1, max_size=5), st.data())
@settings(max_examples=40, deadline=None)
def test_adam_on_one_flat_buffer_matches_per_array_updates(shapes, data):
    params = [data.draw(hnp.arrays(np.float64, s, elements=_finite)) for s in shapes]
    steps = [[data.draw(hnp.arrays(np.float64, s, elements=_finite)) for s in shapes] for _ in range(3)]
    lr = data.draw(st.floats(1e-5, 0.5))
    # reference: the per-array update written as one expression per moment
    ref = [p.copy() for p in params]
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    flat = np.concatenate([p.ravel() for p in params])
    flat_m, flat_v, config = np.zeros_like(flat), np.zeros_like(flat), RunConfig(lr=lr)
    for t, grads in enumerate(steps, start=1):
        alpha = lr / (1.0 - 0.9**t)
        root_bc2 = 1.0 / np.sqrt(1.0 - 0.999**t)
        for p, g, mi, vi in zip(ref, grads, m, v):
            mi[...] = mi * 0.9 + (1.0 - 0.9) * g
            vi[...] = vi * 0.999 + (1.0 - 0.999) * g * g
            p -= alpha * mi / (np.sqrt(vi) * root_bc2 + 1e-8)
        adam_step(flat, np.concatenate([g.ravel() for g in grads]), flat_m, flat_v, t, config)
    assert np.array_equal(flat, np.concatenate([p.ravel() for p in ref]))
    assert np.array_equal(flat_m, np.concatenate([mi.ravel() for mi in m]))
    assert np.array_equal(flat_v, np.concatenate([vi.ravel() for vi in v]))


@given(st.integers(0, 500), st.booleans())
@settings(max_examples=10, deadline=None)
def test_fit_leaves_parameters_in_one_buffer_that_round_trips(tmp_path_factory, seed, bn):
    data = two_blobs(24, seed=seed)
    net = build_network(2, 2, 2, [3, 4], "squared_hinge", Rng(seed).derive("init"), batch_norm=bn)
    fit(net, data.X, data.y, RunConfig(), 2, 8, seed)
    params = parameters(net)
    assert net.flat.size == sum(p.size for p in params)
    assert all(p.base is net.flat for p in params)
    path = tmp_path_factory.mktemp("fit") / "model.bin"
    save_network(net, path, [], ["0", "1"])
    loaded, _, _ = load_network(path)
    for p, q in zip(params, parameters(loaded)):
        assert np.array_equal(p, q)
    assert np.array_equal(network.forward_full(net, data.X).logits, network.forward_full(loaded, data.X).logits)


@pytest.mark.parametrize("rebind", [
    lambda net: setattr(net, "readout_w", np.zeros_like(net.readout_w)),
    lambda net: setattr(net.layers[0], "omega", net.layers[0].omega.copy()),
    lambda net: setattr(net.layers[1].batchnorm, "gamma", np.ones_like(net.layers[1].batchnorm.gamma)),
])
def test_fit_rejects_a_rebound_parameter_before_training(rebind, monkeypatch):
    # a rebound array is no longer part of net.flat: training would update the
    # stale buffer and leave the array the network computes with untouched
    data = two_blobs(20, seed=1)
    net = build_network(2, 2, 2, [4, 3], "squared", Rng(0), batch_norm=True)
    rebind(net)
    flat_before = net.flat.copy()
    checks = []
    monkeypatch.setattr(optimizer, "parameters", lambda n: checks.append(n) or parameters(n))
    with pytest.raises(ParameterError, match="rebound"):
        fit(net, data.X, data.y, RunConfig(), 2, 4, 0)
    assert np.array_equal(net.flat, flat_before)
    # once per fit, not once per step
    fresh = build_network(2, 2, 2, [4, 3], "squared", Rng(0), batch_norm=True)
    checks.clear()
    fit(fresh, data.X, data.y, RunConfig(), 2, 4, 0)
    assert checks == [fresh]


def test_fit_makes_the_gradient_views_once(monkeypatch):
    # the per-array layout of the gradient buffer is derived once per fit, not on every step
    data = two_blobs(20, seed=1)
    net = build_network(2, 2, 2, [4, 3], "squared", Rng(0), batch_norm=True)
    real_unflatten, buffers = network.unflatten, []

    def spy(n, vec):
        buffers.append(vec)
        return real_unflatten(n, vec)

    monkeypatch.setattr(network, "unflatten", spy)
    monkeypatch.setattr(optimizer, "unflatten", spy)
    fit(net, data.X, data.y, RunConfig(), 2, 4, 0)
    assert len(buffers) == 1 and buffers[0].shape == net.flat.shape


def test_fit_after_reloading_a_snapshot_golden(tmp_path):
    # training resumed from a snapshot keeps every seeded bit (see test_fit_golden.py for
    # how the log digest was re-recorded)
    data = two_blobs(40, seed=12)
    net = build_network(2, 2, 2, [6, 5], "squared_hinge", Rng(13).derive("init"), batch_norm=True)
    fit(net, data.X, data.y, RunConfig(lr=0.01), 6, 8, 4)
    save_network(net, tmp_path / "model.bin", [], ["0", "1"])
    loaded, _, _ = load_network(tmp_path / "model.bin")
    log = fit(loaded, data.X, data.y, RunConfig(lr=0.01), 6, 8, 5)
    h = hashlib.sha256()
    for p in parameters(loaded):
        h.update(np.ascontiguousarray(p, dtype="<f8").tobytes())
    for layer in loaded.layers:
        h.update(layer.batchnorm.running_mean.astype("<f8").tobytes())
        h.update(layer.batchnorm.running_var.astype("<f8").tobytes())
    assert h.hexdigest() == "baf18b3322d14d3e01cbfc5162491aa00b717b33edddc33cdebe9eb3d0c5cc55"
    assert hashlib.sha256(log_csv_text(log).encode()).hexdigest() == (
        "ee59660c1075e5224b8b0bb1385b0c81b8bc69a9ea4d4dd8cf43ff2b632606f1")


def test_fit_zero_epochs_is_identity():
    data = two_blobs(50, seed=1)
    net = build_network(2, 2, 1, [4], "squared", Rng(0))
    before = [p.copy() for p in parameters(net)]
    log = fit(net, data.X, data.y, RunConfig(), 0, None, 0)
    assert log == []
    for b, a in zip(before, parameters(net)):
        assert np.array_equal(b, a)


def test_fit_zero_lr_is_fixed_point():
    data = two_blobs(40, seed=2)
    net = build_network(2, 2, 1, [4], "squared_hinge", Rng(1), batch_norm=False)
    before = [p.copy() for p in parameters(net)]
    fit(net, data.X, data.y, RunConfig(lr=0.0), 3, None, 0)
    for b, a in zip(before, parameters(net)):
        assert np.array_equal(b, a)


def test_fit_separable_blobs_to_99_percent():
    data = two_blobs(200, seed=7, separation=8.0)
    # separability oracle: thresholding the first coordinate already solves it
    hand = (data.X[:, 0] > 0).astype(np.int64)
    assert np.mean(hand == data.y) == 1.0
    net = build_network(2, 2, 1, [16], "squared_hinge", Rng(3).derive("init"), batch_norm=True)
    log = fit(net, data.X, data.y, RunConfig(), 100, 32, 3)
    assert log[-1][2] >= 0.99


def test_fit_same_seed_bit_identical_log():
    data = two_blobs(60, seed=4)

    def one_run():
        net = build_network(2, 2, 1, [8], "squared_hinge", Rng(9).derive("init"), batch_norm=True)
        log = fit(net, data.X, data.y, RunConfig(), 5, 16, 11)
        return log_csv_text(log), [p.copy() for p in parameters(net)]

    text1, params1 = one_run()
    text2, params2 = one_run()
    assert text1 == text2
    for p, q in zip(params1, params2):
        assert np.array_equal(p, q)


def test_fit_loss_nonincreasing_early_epochs():
    wins = 0
    for seed in range(20):
        data = two_blobs(120, seed=seed, separation=6.0)
        net = build_network(2, 2, 1, [8], "squared_hinge", Rng(seed).derive("init"))
        log = fit(net, data.X, data.y, RunConfig(), 5, None, seed)
        losses = [loss for loss, _, _ in log]
        if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
            wins += 1
    assert wins >= 18


@pytest.mark.parametrize("bn", [False, True])
def test_fit_frees_each_step_trace_before_the_next_forward(monkeypatch, bn):
    # a step's activations must be gone before the next training step's forward
    # and before the per-epoch inference forward: only one trace is alive at a time
    real_forward, alive, checked = optimizer.forward_full, [], {True: 0, False: 0}

    def forward_full(net, X, training=False):
        assert all(ref() is None for ref in alive), "a previous step's trace is still alive"
        checked[training] += bool(alive)
        alive.clear()
        trace = real_forward(net, X, training=training)
        if training:
            alive.append(weakref.ref(trace.caches[-1].features))
        return trace

    monkeypatch.setattr(optimizer, "forward_full", forward_full)
    data = two_blobs(40, seed=3)
    net = build_network(2, 2, 2, [6, 5], "squared_hinge", Rng(8), batch_norm=bn)
    fit(net, data.X, data.y, RunConfig(), 3, 16, 2)
    assert checked == {True: 6, False: 3}


def test_fit_batchnorm_batch_one_merged():
    # n=17 with batch 4 leaves a singleton batch; with bn it must be folded in
    data = two_blobs(17, seed=8)
    net = build_network(2, 2, 1, [4], "squared", Rng(1), batch_norm=True)
    log = fit(net, data.X, data.y, RunConfig(), 2, 4, 0)
    assert len(log) == 2  # would raise inside batch norm otherwise


def test_fit_final_train_acc_matches_posthoc_eval():
    data = two_blobs(60, seed=9)
    net = build_network(2, 2, 1, [8], "squared_hinge", Rng(4), batch_norm=True)
    log = fit(net, data.X, data.y, RunConfig(), 4, 16, 1)
    assert abs(log[-1][2] - accuracy(net, data.X, data.y)) < 1e-12


def test_fit_deep_minibatch_pipeline_smoke():
    # large-data path: many layers, batch 256, nonlinear (XOR) target
    rng = Rng(40)
    n, d = 3000, 6
    X = rng.normal((n, d))
    y = ((X[:, 0] > 0) ^ (X[:, 1] > 0)).astype(np.int64)
    net = build_network(d, 2, 5, [32] * 5, "squared_hinge", rng.derive("init"), batch_norm=True)
    log = fit(net, X, y, RunConfig(), 30, 256, 1)
    assert log[-1][2] > 0.9


def test_training_log_csv_roundtrip():
    data = two_blobs(30, seed=11)
    net = build_network(2, 2, 1, [4], "squared", Rng(0))
    log = fit(net, data.X, data.y, RunConfig(), 3, None, 0)
    text = log_csv_text(log)
    back = training_log_from_csv_text(text)
    assert log_csv_text(back) == text
    assert len(back) == 3
