import json
import math
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rffnet import network
from rffnet.errors import DataError, ParameterError
from rffnet.network import (
    Network,
    accuracy,
    backward_full,
    build_network,
    compute_loss,
    default_layer_count,
    forward_full,
    load_network,
    loss_gradient,
    parameter_count,
    parameters,
    predict_from_logits,
    save_network,
    unflatten,
)
from rffnet.numerics import Rng
from rffnet.rff_layer import BatchNormState, RffLayer


def relative_error(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def backward_into_fresh_buffer(net, trace, grad_logits, lam):
    """backward_full into a new buffer laid out like net.flat, through its views as fit makes them."""
    out = np.empty_like(net.flat)
    return backward_full(net, trace, grad_logits, lam, out, unflatten(net, out))


def test_default_layer_count():
    assert default_layer_count(124) == 2
    assert default_layer_count(500) == 2
    assert default_layer_count(1001) == 3
    assert default_layer_count(1000) == 2
    assert default_layer_count(14980) == 16


def test_build_network_shapes():
    net = build_network(6, 2, 2, [64, 64], "squared_hinge", Rng(0))
    assert net.readout_w.shape == (2, 128)
    assert net.readout_b.shape == (2,)
    assert net.layers[0].omega.shape == (64, 6)
    assert net.layers[1].omega.shape == (64, 128)


def test_build_single_layer():
    net = build_network(3, 2, 1, [8], "squared", Rng(0))
    assert len(net.layers) == 1
    assert net.readout_w.shape == (2, 16)


def test_build_rejects_unknown_loss():
    with pytest.raises(ParameterError):
        build_network(3, 2, 1, [8], "absolute", Rng(0))


def test_forward_zero_input_single_layer():
    net = build_network(4, 2, 1, [8], "squared", Rng(3))
    trace = forward_full(net, np.zeros((2, 4)))
    scale = np.sqrt(1.0 / 8)
    feats = np.concatenate([np.full(8, scale), np.zeros(8)])
    expected = net.readout_w @ feats + net.readout_b
    assert np.abs(trace.logits - expected).max() < 1e-12


def test_parameter_count_is_the_length_of_the_built_buffer():
    for dims, layer_count, batch_norm in (([5], 3, True), ([4, 7], 2, False), ([3, 2, 6], 3, True)):
        net = build_network(4, 3, layer_count, dims, "squared", Rng(0), batch_norm=batch_norm)
        assert len(net.layers) == layer_count  # a single width serves every layer
        assert parameter_count(4, 3, layer_count, dims, batch_norm) == net.flat.size


def test_trace_length_equals_layer_count():
    # a training trace records every layer for backward; an inference pass records none
    net = build_network(3, 2, 3, [4, 5, 6], "squared", Rng(1))
    trace = forward_full(net, Rng(2).normal((7, 3)), training=True)
    assert len(trace.caches) == 3
    assert trace.logits.shape == (7, 2)
    assert forward_full(net, Rng(2).normal((7, 3))).caches == []


def test_logits_finite_over_many_random_networks():
    for i in range(1000):
        rng = Rng(i)
        d = 1 + i % 5
        net = build_network(d, 2 + i % 3, 1 + i % 3, [2 + i % 4] * (1 + i % 3),
                            "cross_entropy", rng, batch_norm=bool(i % 2))
        X = rng.derive("x").normal((3, d), 0.0, 5.0)
        trace = forward_full(net, X, training=True)
        assert np.all(np.isfinite(trace.logits))


def test_squared_loss_at_minimum():
    net = build_network(3, 2, 1, [4], "squared", Rng(0))
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    data_loss, _, correct = compute_loss(net, logits, np.array([0, 1]), 0.0)
    grad = loss_gradient(net, logits, np.array([0, 1]))
    assert data_loss == 0.0
    assert np.array_equal(grad, np.zeros((2, 2)))
    assert correct == 2


def test_squared_hinge_margin_values():
    # y=1 gives margin targets (-1, +1): logits (-2, 2) clear both margins -> loss 0;
    # logits (0, 0) miss each by 1 -> loss 1 + 1, gradient -2 * target * 1 per column
    net = Network(layers=build_network(2, 2, 1, [4], "squared_hinge", Rng(0)).layers,
                  readout_w=np.zeros((2, 8)), readout_b=np.zeros(2),
                  loss_kind="squared_hinge")
    assert compute_loss(net, np.array([[-2.0, 2.0]]), np.array([1]), 0.0)[0] == 0.0
    data_loss = compute_loss(net, np.array([[0.0, 0.0]]), np.array([1]), 0.0)[0]
    grad = loss_gradient(net, np.array([[0.0, 0.0]]), np.array([1]))
    assert data_loss == 2.0
    assert np.array_equal(grad, [[2.0, -2.0]])
    # half a margin short on each column: 0.5^2 + 0.5^2
    assert compute_loss(net, np.array([[-0.5, 0.5]]), np.array([1]), 0.0)[0] == 0.5


def test_cross_entropy_uniform_logits():
    net = build_network(3, 2, 1, [4], "cross_entropy", Rng(0))
    data_loss = compute_loss(net, np.zeros((4, 2)), np.array([0, 1, 0, 1]), 0.0)[0]
    assert abs(data_loss - math.log(2.0)) < 1e-12


@pytest.mark.parametrize("gap", [30.0, 1000.0, 1e6])
def test_cross_entropy_exact_at_extreme_logits(gap):
    # -log softmax_y = logsumexp(z) - z_y; the old log(p + 1e-300) form capped the
    # loss near 690.8 once p underflowed
    net = build_network(3, 3, 1, [4], "cross_entropy", Rng(0))
    logits = np.array([[gap, 0.0, -gap], [0.0, gap, 0.0]])
    y = np.array([2, 0])
    expected = (2.0 * gap + math.log1p(math.exp(-gap) + math.exp(-2.0 * gap))
                + gap + math.log1p(2.0 * math.exp(-gap))) / 2.0
    data_loss = compute_loss(net, logits, y, 0.0)[0]
    assert relative_error(data_loss, expected, floor=1.0) < 1e-15
    grad = loss_gradient(net, logits, y)
    assert np.all(np.isfinite(grad))
    assert np.allclose(grad.sum(axis=1), 0.0, atol=1e-15)
    assert abs(grad[0, 2] + 0.5) < 1e-12 and abs(grad[1, 0] + 0.5) < 1e-12


def test_cross_entropy_matches_log_softmax_on_moderate_logits():
    net = build_network(3, 3, 1, [4], "cross_entropy", Rng(0))
    logits = Rng(4).normal((6, 3), 0.0, 3.0)
    y = np.array([0, 1, 2, 2, 1, 0])
    ref = np.mean([math.log(sum(math.exp(v) for v in row)) - row[k] for row, k in zip(logits, y)])
    assert relative_error(compute_loss(net, logits, y, 0.0)[0], ref) < 1e-13


def test_reg_loss_matches_brute_force_flatten():
    net = build_network(3, 3, 2, [4, 5], "cross_entropy", Rng(7), batch_norm=True)
    lam = 0.37
    reg_loss = compute_loss(net, np.zeros((2, 3)), np.array([0, 1]), lam)[1]
    theta = np.concatenate([p.reshape(-1) for p in parameters(net)])
    assert abs(reg_loss - 0.5 * lam * float(theta @ theta)) < 1e-12


def test_backward_zero_grad_zero_lambda():
    net = build_network(3, 2, 2, [4, 4], "squared", Rng(1), batch_norm=True)
    X = Rng(2).normal((5, 3))
    trace = forward_full(net, X, training=True)
    grads = backward_into_fresh_buffer(net, trace, np.zeros_like(trace.logits), 0.0)
    assert grads.shape == net.flat.shape
    assert np.abs(grads).max() == 0.0


def test_backward_pure_regularizer():
    net = build_network(3, 2, 2, [4, 4], "squared", Rng(1), batch_norm=True)
    lam = 0.25
    X = Rng(2).normal((5, 3))
    trace = forward_full(net, X, training=True)
    grads = backward_into_fresh_buffer(net, trace, np.zeros_like(trace.logits), lam)
    for p, g in zip(parameters(net), unflatten(net, grads)):
        assert np.abs(g - lam * p).max() < 1e-14


@pytest.mark.parametrize("bn", [False, True])
def test_backward_packed_network_matches_separate_arrays(bn):
    # the L2 term is one op over the flat buffer; the result must equal adding
    # lam * p to each array's gradient bit for bit, and land in the buffer given
    net = build_network(3, 2, 3, [4, 5, 3], "squared_hinge", Rng(6), batch_norm=bn)
    X = Rng(7).normal((6, 3))
    y = np.array([0, 1, 1, 0, 1, 0])
    trace = forward_full(net, X, training=True)
    grad_logits = loss_gradient(net, trace.logits, y)
    data_grads = unflatten(net, backward_into_fresh_buffer(net, trace, grad_logits, 0.0))
    reference = [g + 0.3 * p for g, p in zip(data_grads, parameters(net))]
    out = np.full_like(net.flat, np.nan)
    trace = forward_full(net, X, training=True)  # backward_full consumed the first trace
    grads = backward_full(net, trace, grad_logits, 0.3, out, unflatten(net, out))
    assert grads is out
    views = unflatten(net, grads)
    assert [v.shape for v in views] == [p.shape for p in parameters(net)]
    for g, ref in zip(views, reference):
        assert g.base is out
        assert np.array_equal(g, ref)


def test_inference_holds_one_layer_at_a_time():
    # keeping every layer's features and output would peak near 2 x 6 arrays of n x 2D
    n, D = 2000, 64
    net = build_network(6, 2, 6, [D] * 6, "squared_hinge", Rng(11), batch_norm=True)
    X = Rng(12).normal((n, 6))
    tracemalloc.start()
    try:
        forward_full(net, X, training=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * n * 2 * D * 8, peak


@pytest.mark.parametrize("bn", [False, True])
def test_backward_full_releases_each_layer_before_the_one_below(monkeypatch, bn):
    # while layer i-1 differentiates, layer i's features and x_hat must already be gone
    net = build_network(3, 2, 3, [4, 5, 6], "squared_hinge", Rng(13), batch_norm=bn)
    trace = forward_full(net, Rng(14).normal((8, 3)), training=True)
    refs = [(weakref.ref(c.features), weakref.ref(c.bn[0]) if bn else None) for c in trace.caches]
    last_output = weakref.ref(trace.readout_input)
    real_backward, seen = network.backward, []

    def backward(layer, cache, *args, **kwargs):
        i = [id(lyr) for lyr in net.layers].index(id(layer))
        for features, x_hat in refs[i + 1:]:
            assert features() is None and (x_hat is None or x_hat() is None)
        assert len(trace.caches) == i, "the layer's record is still in the trace"
        assert bn is False or last_output() is None, "the readout's input outlived its gradient"
        seen.append(i)
        return real_backward(layer, cache, *args, **kwargs)

    monkeypatch.setattr(network, "backward", backward)
    y = np.array([0, 1] * 4)
    backward_into_fresh_buffer(net, trace, loss_gradient(net, trace.logits, y), 0.0)
    assert seen == [2, 1, 0] and trace.caches == []
    assert all(features() is None for features, _ in refs)


def _assert_packed(net):
    params = parameters(net)
    assert net.flat.size == sum(p.size for p in params)
    assert all(p.base is net.flat for p in params)


@pytest.mark.parametrize("bn", [False, True])
def test_every_construction_packs_parameters_into_flat(tmp_path, bn):
    net = build_network(3, 2, 2, [4, 5], "squared_hinge", Rng(3), batch_norm=bn)
    _assert_packed(net)
    save_network(net, tmp_path / "model.bin", [], ["0", "1"])
    loaded, _, _ = load_network(tmp_path / "model.bin")
    _assert_packed(loaded)
    assert np.array_equal(loaded.flat, net.flat)
    omega, readout_w, readout_b = np.arange(6.0).reshape(3, 2), np.ones((2, 6)), np.array([0.5, -0.5])
    batchnorm = BatchNormState.identity(6) if bn else None
    arrays = [omega] + ([batchnorm.gamma, batchnorm.beta] if bn else []) + [readout_w, readout_b]
    hand = Network(layers=[RffLayer(omega=omega, batchnorm=batchnorm)], readout_w=readout_w,
                   readout_b=readout_b, loss_kind="squared_hinge")
    _assert_packed(hand)
    assert np.array_equal(hand.flat, np.concatenate([a.ravel() for a in arrays]))
    hand.flat[0] = 7.0  # the parameters are views: writing the buffer moves them
    assert hand.layers[0].omega[0, 0] == 7.0 and omega[0, 0] == 0.0


def _objective(net, X, y, lam):
    trace = forward_full(net, X, training=True)
    data_loss, reg_loss, _ = compute_loss(net, trace.logits, y, lam)
    return data_loss + reg_loss


@pytest.mark.parametrize("loss_kind", ["squared", "squared_hinge", "cross_entropy"])
@pytest.mark.parametrize("bn", [False, True])
def test_full_network_gradient_check(loss_kind, bn):
    rng = Rng(["squared", "squared_hinge", "cross_entropy"].index(loss_kind) * 2 + int(bn))
    net = build_network(3, 2, 2, [4, 4], loss_kind, rng, batch_norm=bn)
    X = rng.derive("x").normal((5, 3))
    y = np.array([0, 1, 1, 0, 1])
    lam = 1e-3
    trace = forward_full(net, X, training=True)
    grad_logits = loss_gradient(net, trace.logits, y)
    grads = backward_into_fresh_buffer(net, trace, grad_logits, lam)
    h = 1e-6
    for p, g in zip(parameters(net), unflatten(net, grads)):
        flat, gflat = p.reshape(-1), g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = _objective(net, X, y, lam)
            flat[i] = orig - h
            lm = _objective(net, X, y, lam)
            flat[i] = orig
            assert relative_error((lp - lm) / (2 * h), gflat[i]) < 1e-5


def test_predict_basic_and_tie_break():
    assert predict_from_logits(np.array([[0.9, 0.1]]))[0] == 0
    assert predict_from_logits(np.array([[0.5, 0.5]]))[0] == 0
    assert predict_from_logits(np.array([[0.1, 0.9]]))[0] == 1


@given(st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_predict_invariant_to_logit_shift(seed):
    rng = Rng(seed)
    logits = rng.normal((6, 3))
    shifts = rng.derive("c").normal((6, 1), 0.0, 10.0)
    assert np.array_equal(predict_from_logits(logits), predict_from_logits(logits + shifts))


def test_untrained_network_is_chance_level():
    rng = Rng(123)
    net = build_network(4, 2, 1, [16], "squared_hinge", rng)
    n = 20_000
    X = rng.derive("x").normal((n, 4))
    y = (rng.derive("y").uniform(n) < 0.5).astype(np.int64)
    acc = accuracy(net, X, y)
    assert abs(acc - 0.5) < 0.05


def test_objective_decreases_on_separable_toy(tmp_path):
    from rffnet.cli import RunConfig
    from rffnet.optimizer import fit
    from rffnet.tasks import two_blobs

    successes = 0
    for seed in range(20):
        data = two_blobs(100, seed=seed, separation=6.0)
        net = build_network(2, 2, 1, [8], "squared_hinge", Rng(seed).derive("init"))
        log = fit(net, data.X, data.y, RunConfig(shuffle=False), 10, None, seed)
        losses = [loss for loss, _, _ in log]
        if losses[-1] < losses[0]:
            successes += 1
    assert successes >= 19


def test_serialization_roundtrip_bit_exact(tmp_path):
    net = build_network(5, 3, 2, [4, 6], "cross_entropy", Rng(11), batch_norm=True)
    stages = [(Rng(1).normal(5), np.abs(Rng(2).normal(5)) + 0.5)]
    path = tmp_path / "model.bin"
    save_network(net, path, preprocess=stages, label_names=["a", "b", "c"])
    loaded, loaded_stages, names = load_network(path)
    assert names == ["a", "b", "c"]
    assert loaded.loss_kind == net.loss_kind
    assert loaded.class_count == net.class_count
    for p, q in zip(parameters(net), parameters(loaded)):
        assert np.array_equal(p, q)
    for layer, ll in zip(net.layers, loaded.layers):
        assert np.array_equal(layer.batchnorm.running_mean, ll.batchnorm.running_mean)
        assert np.array_equal(layer.batchnorm.running_var, ll.batchnorm.running_var)
    for (s, d), (s2, d2) in zip(stages, loaded_stages):
        assert np.array_equal(s, s2)
        assert np.array_equal(d, d2)
    X = Rng(3).normal((4, 5))
    assert np.array_equal(forward_full(net, X).logits, forward_full(loaded, X).logits)


def test_serialization_deterministic_bytes(tmp_path):
    net = build_network(3, 2, 1, [4], "squared", Rng(5))
    p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
    save_network(net, p1, [], ["0", "1"])
    save_network(net, p2, [], ["0", "1"])
    assert p1.read_bytes() == p2.read_bytes()


def test_a_failed_snapshot_write_leaves_no_file(tmp_path):
    # the header is written, then the first stage's array cannot be converted to float64
    net = build_network(3, 2, 1, [4], "squared", Rng(5))
    with pytest.raises(ValueError):
        save_network(net, tmp_path / "model.bin", [(np.array(["x"]),)], ["0", "1"])
    assert list(tmp_path.iterdir()) == []


def _snapshot_bytes(tmp_path):
    net = build_network(3, 2, 2, [4, 3], "squared_hinge", Rng(12), batch_norm=True)
    path = tmp_path / "model.bin"
    save_network(net, path, preprocess=[(np.zeros(3), np.ones(3))], label_names=["a", "b"])
    return net, path.read_bytes()


def _header_end(blob):
    return blob.index(b"\n", len(b"RFFNET1\n"))


def _edit_header(blob, edit):
    """blob with its header replaced by edit(header), written as save_network writes one."""
    end = _header_end(blob)
    header = json.loads(blob[len(b"RFFNET1\n"):end])
    edit(header)
    return b"RFFNET1\n" + json.dumps(header, sort_keys=True).encode() + blob[end:]


def _set_value(blob, index, value):
    # index counts float64 values from the start of the data section, or from its end if negative
    at = _header_end(blob) + 1 + 8 * index if index >= 0 else len(blob) + 8 * index
    return blob[:at] + np.array([value], dtype="<f8").tobytes() + blob[at + 8:]


def _set_first_running_var(blob, value):
    # layer 0 stores omega (4x3), then gamma, beta, running_mean and running_var (8 each)
    return _set_value(blob, 4 * 3 + 3 * 8, value)


@pytest.mark.parametrize("mangle", [
    lambda b: b[:-16],                                          # two values short
    lambda b: b[:-3],                                           # not a whole float64
    lambda b: b + b"\0" * 8,                                    # one trailing value
    lambda b: b + b"x",                                         # trailing byte
    lambda b: b[:_header_end(b)],                               # header without newline
    lambda b: b[:_header_end(b) - 1] + b"\n" + b[_header_end(b) + 1:],  # malformed JSON
    lambda b: b.replace(b'"D": 4', b'"D": -4', 1),              # negative dimension
    lambda b: b.replace(b'"D": 4', b'"D": "4"', 1),             # dimension of the wrong type
    lambda b: b.replace(b'"d_in": 3', b'"d_in": 3.0', 1),       # float dimension
    lambda b: b.replace(b'"layers": [', b'"lay": [', 1),         # missing key
    lambda b: b.replace(b'"loss_kind": "squared_hinge"', b'"loss_kind": "hinge"', 1),
    lambda b: b[:8] + b"[]" + b[_header_end(b):],               # header is not an object
    lambda b: b.replace(b'["a", "b"]', b'["a", "b", "c"]', 1),  # three classes, two readout rows
    lambda b: b.replace(b'["a", "b"]', b'["a"]', 1),            # one class
    lambda b: b.replace(b'"batchnorm": true', b'"batchnorm": 1', 1),   # batch norm: not true, false or null
    lambda b: b.replace(b'"batchnorm": true', b'"batchnorm": "true"', 1),
    lambda b: b.replace(b'"batchnorm": true', b'"batchnorm": {"epsilon": 1e-06, "momentum": 0.1}', 1),  # not v1's
    lambda b: b.replace(b'"batchnorm": true', b'"batchnorm": {"epsilon": 1e-05, "momentum": 0.5}', 1),
    lambda b: b.replace(b'"batchnorm": true', b'"batchnorm": {"momentum": 0.1}', 1),
    lambda b: _edit_header(b, lambda h: h["layers"][1].update(batchnorm=False)),  # layer 1 said to have no batch norm
    lambda b: _set_first_running_var(b, -1.0),                  # negative running variance
    lambda b: _set_first_running_var(b, float("nan")),
    lambda b: _set_first_running_var(b, float("inf")),
    lambda b: b.replace(b'"label_names": ["a", "b"]', b'"label_names": 5', 1),    # not a list
    lambda b: b.replace(b'"label_names": ["a", "b"]', b'"label_names": "10"', 1),  # two characters, not a list
    lambda b: b.replace(b'"batchnorm": true', b'"batchnorm": []', 1),
    lambda b: b.replace(b'"preprocess_stages": 1', b'"preprocess_stages": 1.0', 1),  # a count that is no integer
    lambda b: b.replace(b'"label_names": ["a", "b"]', b'"label_names": ["a", "a"]', 1),  # not distinct
    lambda b: _set_value(b, 0, float("nan")),                   # a NaN omega entry
    lambda b: _set_value(b, -8, float("inf")),                  # readout_b, before the stage's shift and div (3 each)
    lambda b: _set_value(b, -1, 0.0),                           # a preprocessing div of zero
    lambda b: b.replace(b'"label_names": ["a", "b"]', b'"label_names": null', 1),  # no class names
    lambda b: _edit_header(b, lambda h: h.update(layers=[])),  # no layers
])
def test_load_rejects_malformed_snapshot(tmp_path, mangle):
    _, blob = _snapshot_bytes(tmp_path)
    bad = mangle(blob)
    assert bad != blob
    path = tmp_path / "bad.bin"
    path.write_bytes(bad)
    with pytest.raises(DataError):
        load_network(path)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_load_truncated_or_extended_snapshot_is_data_error(tmp_path_factory, data):
    tmp_path = tmp_path_factory.mktemp("snap")
    _, blob = _snapshot_bytes(tmp_path)
    if data.draw(st.booleans()):
        bad = blob[:data.draw(st.integers(0, len(blob) - 1))]
    else:
        bad = blob + data.draw(st.binary(min_size=1, max_size=24))
    path = tmp_path / "bad.bin"
    path.write_bytes(bad)
    with pytest.raises(DataError):
        load_network(path)


def _stored_arrays(net, stages):
    """(shape, bytes) of every array a snapshot stores, in load order."""
    arrays = parameters(net) + [a for stage in stages for a in stage]
    for layer in net.layers:
        if layer.batchnorm is not None:
            arrays += [layer.batchnorm.running_mean, layer.batchnorm.running_var]
    return [(a.shape, a.tobytes()) for a in arrays]


@pytest.fixture(scope="module")
def distinct_snapshot(tmp_path_factory):
    """(bytes, net, stages) of a 2-layer batch-norm snapshot with one preprocessing stage
    whose stored values are all distinct and > 0, so an array read from the wrong place shows."""
    path = tmp_path_factory.mktemp("snap") / "model.bin"
    _, blob = _snapshot_bytes(path.parent)
    end = _header_end(blob)
    values = np.abs(Rng(4).normal((len(blob) - end - 1) // 8)) + 0.5
    path.write_bytes(blob[:end + 1] + values.astype("<f8").tobytes())
    return path.read_bytes(), *load_network(path)[:2]


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_one_changed_header_byte_is_a_data_error_or_changes_no_array(distinct_snapshot, tmp_path_factory, data):
    blob, net, stages = distinct_snapshot
    end = _header_end(blob)
    # half the draws change a digit into a digit: the dimensions and the stage count
    digits = [i for i in range(end) if chr(blob[i]).isdigit()]
    at = data.draw(st.one_of(st.integers(0, end), st.sampled_from(digits)))
    byte = data.draw(st.one_of(st.integers(0, 255), st.sampled_from(b"0123456789")).filter(lambda v: v != blob[at]))
    path = tmp_path_factory.getbasetemp() / "changed-header.bin"
    path.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1:])
    try:
        changed, changed_stages, _ = load_network(path)
    except DataError:
        return
    assert changed.loss_kind == net.loss_kind
    assert _stored_arrays(changed, changed_stages) == _stored_arrays(net, stages)


# written by the save_network that also stored class_count, out_dim, every layer's
# d_in, preprocess_dim and the batch-norm momentum and epsilon (2 layers of D = 4
# and 3 with batch norm, two preprocessing stages, trained on the blobs task)
V1_SNAPSHOT = Path(__file__).parent / "data" / "blobs-bn-v1.bin"


def test_a_v1_snapshot_loads_and_resaves_the_same_payload(tmp_path):
    old = V1_SNAPSHOT.read_bytes()
    assert b'"class_count": 2' in old and b'"momentum": 0.1' in old
    net, stages, names = load_network(V1_SNAPSHOT)
    assert [(layer.d_in, layer.D) for layer in net.layers] == [(2, 4), (8, 3)]
    assert all(layer.batchnorm is not None for layer in net.layers)
    assert (len(stages), names) == (2, ["0", "1"])
    path = tmp_path / "model.bin"
    save_network(net, path, stages, names)
    new = path.read_bytes()
    assert new[_header_end(new):] == old[_header_end(old):]
    header = json.loads(new[len(b"RFFNET1\n"):_header_end(new)])
    assert not {"class_count", "out_dim", "preprocess_dim"} & set(header)
    assert [sorted(meta) for meta in header["layers"]] == [["D", "batchnorm", "d_in"], ["D", "batchnorm"]]
