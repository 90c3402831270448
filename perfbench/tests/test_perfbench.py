"""Self-tests of the benchmark code: python3 -m pytest perfbench/tests -q"""

import json
import math
import sys
import types

import pytest

import spans
import workloads as wl


def test_self_time_excludes_child_spans(monkeypatch):
    clock = [0.0]
    monkeypatch.setattr(spans, "perf_counter", lambda: clock[0])
    tracer = spans.Tracer()

    def inner():
        clock[0] += 5.0

    inner = tracer.wrap("fake.inner", inner)

    def outer():
        clock[0] += 2.0
        inner()
        clock[0] += 3.0
        inner()

    outer = tracer.wrap("fake.outer", outer)
    tracer.active = True
    outer()
    assert tracer.calls("fake.outer") == 1 and tracer.calls("fake.inner") == 2
    assert tracer.total_s("fake.outer") == 15.0
    assert tracer.self_s("fake.outer") == 5.0
    assert tracer.total_s("fake.inner") == tracer.self_s("fake.inner") == 10.0
    assert tracer.top_s == 15.0 and tracer.top_self_s == 5.0
    metrics = spans.per_layer_metrics(tracer, [20.0], [19.0])
    assert metrics["trace.unattributed_frac"][0] == 1.0 - 10.0 / 20.0
    assert metrics["trace.overhead_s"][0] == 1.0


def _bindings():
    """Every attribute of every rffnet module and class, by identity."""
    out = {}
    for mod in spans.package_modules():
        for name, obj in vars(mod).items():
            out[(mod.__name__, name)] = id(obj)
            if isinstance(obj, type) and obj.__module__.startswith("rffnet"):
                for attr, member in vars(obj).items():
                    out[(mod.__name__, name, attr)] = id(member)
    return out


def test_install_wraps_every_binding_site_and_uninstall_restores():
    cli = wl.import_rffnet()
    optimizer = sys.modules["rffnet.optimizer"]
    network = sys.modules["rffnet.network"]
    original = network.forward_full
    before = _bindings()
    tracer = spans.Tracer()
    tracer.install()
    try:
        for site in (network, optimizer, cli, sys.modules["rffnet"]):
            assert site.forward_full is not original
            assert site.forward_full.__wrapped__ is original
        assert sys.modules["rffnet.kernel_analysis"].sym_eig_topk.__wrapped__ is sys.modules[
            "rffnet.numerics"].sym_eig_topk.__wrapped__
        assert isinstance(vars(sys.modules["rffnet.numerics"].Rng)["permutation"].__wrapped__, types.FunctionType)
        assert _bindings() != before
    finally:
        tracer.uninstall()
    assert _bindings() == before


@pytest.fixture(scope="module")
def reference():
    return wl.load_reference()


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_every_per_layer_metric_records_calls_on_its_workloads(name, tmp_path, reference):
    w = wl.WORKLOADS[name](wl.DEFAULT_SEED, tmp_path, reference)
    w.setup()
    tracer = spans.Tracer()
    tracer.install()
    try:
        untraced_s, plain_digest = w.op(0)
        tracer.active = True
        traced_s, traced_digest = w.op(0)
        tracer.active = False
    finally:
        tracer.uninstall()
    assert plain_digest == traced_digest
    metrics = spans.per_layer_metrics(tracer, [traced_s], [untraced_s])
    assert set(metrics) == {row[0] for row in spans.PER_LAYER}
    for metric, _, _, span_names, arrows in spans.PER_LAYER:
        value, _ = metrics[metric]
        assert math.isfinite(value), metric
        if name not in arrows:
            continue
        for span in span_names:
            assert tracer.calls(span) > 0, f"{metric}: no calls of {span} on {name}"
        if not metric.startswith("trace."):
            assert value > 0, f"{metric} is {value} on {name}"


def test_benchmark_json_lists_the_metrics_the_code_reports():
    with open(wl.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] == list(wl.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [row[:2] for row in spans.PER_LAYER]
