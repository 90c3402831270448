"""Span tracing of the rffnet package, installed from outside the package.

``Tracer.install`` replaces every public function of every ``rffnet`` module,
and every public plain method of the classes defined there, with a wrapper
that records a span. A function imported by name into another module (for
example ``network.forward_full`` inside ``optimizer`` and ``cli``) is the same
object at every binding site, so each site is replaced. ``uninstall`` puts the
original objects back.

A span's self time is its duration minus the time covered by its child spans.
Spans are kept as running totals per name (calls, total, self), in memory.
Three functions carry extra counters, because the per-layer metrics need to
know which forward passes train and which only evaluate:

* ``network.forward_full``: training and inference calls, and rows per mode
  while ``optimizer.fit`` is on the stack;
* ``network.compute_loss``: calls inside ``fit`` that follow an inference
  forward pass, whose report ``fit`` reads;
* ``optimizer.fit``: nesting depth, so the two counters above know they are
  inside it.
"""

from __future__ import annotations

import functools
import statistics
import sys
import types
from time import perf_counter

from workloads import BLOBS, DIAGNOSTICS, MONKS1

PACKAGE = "rffnet"
FORWARD_FULL = "network.forward_full"
COMPUTE_LOSS = "network.compute_loss"
FIT = "optimizer.fit"


class Tracer:
    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self._stack: list[list] = []  # open spans: [name, child_s]
        self._restore: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        """Forget every recorded span and counter; wrappers stay installed."""
        for entry in self.stats.values():
            entry[:] = [0, 0.0, 0.0]
        self.top_s = 0.0  # time covered by spans with no parent
        self.top_self_s = 0.0  # the part of top_s not covered by any child span
        self.train_calls = 0
        self.infer_calls = 0
        self.fit_train_rows = 0
        self.fit_infer_rows = 0
        self.fit_eval_s = 0.0
        self.loss_calls = 0
        self.useful_loss_calls = 0
        self._fit_depth = 0
        self._last_forward_infer = False

    # --- installing ----------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        modules = package_modules()
        wrapped: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                    wrapped[id(obj)] = self.wrap(f"{short}.{name}", obj)
                elif isinstance(obj, type) and obj.__module__ == mod.__name__:
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") or not isinstance(member, types.FunctionType):
                            continue
                        self._restore.append((obj, attr, member))
                        setattr(obj, attr, self.wrap(f"{short}.{name}.{attr}", member))
        # replace every binding site of every wrapped function, the package namespace included
        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and id(obj) in wrapped:
                    self._restore.append((mod, name, obj))
                    setattr(mod, name, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()
        self.active = False

    def wrap(self, name: str, func):
        """A wrapper of func that records spans under name while the tracer is active."""
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        before = self._observer(name)
        stack = self._stack
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return func(*args, **kwargs)
            after = before(args, kwargs) if before is not None else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                entry[0] += 1
                entry[1] += dt
                entry[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
                else:
                    tracer.top_s += dt
                    tracer.top_self_s += dt - frame[1]
                if after is not None:
                    after(dt)

        return wrapper

    # --- per-function counters ---------------------------------------------

    def _observer(self, name: str):
        if name == FORWARD_FULL:
            return self._before_forward_full
        if name == COMPUTE_LOSS:
            return self._before_compute_loss
        if name == FIT:
            return self._before_fit
        return None

    def _before_forward_full(self, args, kwargs):
        training = bool(kwargs["training"] if "training" in kwargs else (args[2] if len(args) > 2 else False))
        rows = len(args[1]) if len(args) > 1 else len(kwargs["X"])
        if training:
            self.train_calls += 1
        else:
            self.infer_calls += 1
        self._last_forward_infer = not training
        if self._fit_depth == 0:
            return None
        if training:
            self.fit_train_rows += rows
            return None
        self.fit_infer_rows += rows
        return self._after_fit_eval

    def _after_fit_eval(self, dt: float) -> None:
        self.fit_eval_s += dt

    def _before_compute_loss(self, args, kwargs):
        self.loss_calls += 1
        if self._fit_depth and self._last_forward_infer:
            self.useful_loss_calls += 1
        return None

    def _before_fit(self, args, kwargs):
        self._fit_depth += 1
        return self._after_fit

    def _after_fit(self, dt: float) -> None:
        self._fit_depth -= 1

    # --- reading ---------------------------------------------------------------

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def total_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0])[1]

    def self_s(self, name: str) -> float:
        return self.stats.get(name, [0, 0.0, 0.0])[2]


def package_modules() -> list[types.ModuleType]:
    """The imported rffnet package and its submodules, in name order."""
    names = sorted(n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + "."))
    return [sys.modules[n] for n in names]


# --- per-layer metrics ----------------------------------------------------------
#
# name, unit, how it is read from the tracer, the spans it reads, and the
# workloads on whose ops those spans must record calls (the workloads whose
# end-to-end metrics the layer should move). Times and counts are per traced op.

M1, BW, DG = MONKS1, BLOBS, DIAGNOSTICS
TRAINING = (M1, BW)
ALL = (M1, BW, DG)
CSV_EXPORT = ("kernel_analysis.kernel_to_csv_text", "kernel_analysis.kpca_to_csv_text",
              "kernel_analysis.histogram_to_csv_text")

PER_LAYER = (
    ("rff_layer.forward.self_s", "s/op", "self", ("rff_layer.forward",), ALL),
    ("rff_layer.forward.calls", "count/op", "calls", ("rff_layer.forward",), ALL),
    ("rff_layer.batchnorm_forward.s", "s/op", "total", ("rff_layer.batchnorm_forward",), ALL),
    ("rff_layer.backward.self_s", "s/op", "self", ("rff_layer.backward",), TRAINING),
    ("rff_layer.batchnorm_backward.s", "s/op", "total", ("rff_layer.batchnorm_backward",), TRAINING),
    ("network.forward_full.self_s", "s/op", "self", (FORWARD_FULL,), ALL),
    ("network.forward_full.train_calls", "count/op", "train_calls", (FORWARD_FULL,), TRAINING),
    ("network.forward_full.infer_calls", "count/op", "infer_calls", (FORWARD_FULL,), ALL),
    ("network.backward_full.self_s", "s/op", "self", ("network.backward_full",), TRAINING),
    ("network.gradient_list.s", "s/op", "total", ("network.gradient_list",), TRAINING),
    ("network.compute_loss.s", "s/op", "total", (COMPUTE_LOSS,), TRAINING),
    ("network.compute_loss.calls", "count/op", "calls", (COMPUTE_LOSS,), TRAINING),
    ("network.compute_loss.useful_frac", "ratio", "useful_frac", (COMPUTE_LOSS,), TRAINING),
    ("optimizer.adam_step.s", "s/op", "total", ("optimizer.adam_step",), TRAINING),
    ("optimizer.adam_step.calls", "count/op", "calls", ("optimizer.adam_step",), TRAINING),
    ("optimizer.fit.self_s", "s/op", "self", (FIT,), TRAINING),
    ("optimizer.fit.eval_s", "s/op", "fit_eval_s", (FIT,), TRAINING),
    ("optimizer.fit.eval_rows_per_train_row", "ratio", "eval_rows_per_train_row", (FIT,), TRAINING),
    ("numerics.sym_eig_topk.s", "s/op", "total", ("numerics.sym_eig_topk",), (DG,)),
    ("numerics.Rng.permutation.s", "s/op", "total", ("numerics.Rng.permutation",), ALL),
    ("numerics.gaussian_matrix.s", "s/op", "total", ("numerics.gaussian_matrix",), TRAINING),
    ("kernel_analysis.empirical_kernel.s", "s/op", "total", ("kernel_analysis.empirical_kernel",), (DG,)),
    ("kernel_analysis.kpca_project.self_s", "s/op", "self", ("kernel_analysis.kpca_project",), (DG,)),
    ("kernel_analysis.omega_histogram.s", "s/op", "total", ("kernel_analysis.omega_histogram",), (DG,)),
    ("kernel_analysis.csv_export.s", "s/op", "total", CSV_EXPORT, (DG,)),
    ("kernel_analysis.rff_approx_error.self_s", "s/op", "self", ("kernel_analysis.rff_approx_error",), (DG,)),
    ("kernel_analysis.feature_map.s", "s/op", "total", ("kernel_analysis.feature_map",), (DG,)),
    ("kernel_analysis.sample_frequencies.s", "s/op", "total", ("kernel_analysis.sample_frequencies",), (DG,)),
    ("network.save_network.s", "s/op", "total", ("network.save_network",), TRAINING),
    ("network.load_network.s", "s/op", "total", ("network.load_network",), (DG,)),
    ("dataio.parse_registry.s", "s/op", "total", ("dataio.parse_registry",), ALL),
    ("dataio.load_csv.s", "s/op", "total", ("dataio.load_csv",), (M1, DG)),
    ("dataio.preprocess_pair.s", "s/op", "total", ("dataio.preprocess_pair",), TRAINING),
    ("dataio.split.s", "s/op", "total", ("dataio.split",), (BW,)),
    ("dataio.apply_stages.s", "s/op", "total", ("dataio.apply_stages",), ALL),
    ("tasks.two_blobs.s", "s/op", "total", ("tasks.two_blobs",), (BW,)),
    ("cli.run_training.self_s", "s/op", "self", ("cli.run_training",), TRAINING),
    ("cli.write_text_atomic.s", "s/op", "total", ("cli.write_text_atomic",), ALL),
    ("cli.main.self_s", "s/op", "self", ("cli.main",), (DG,)),
    ("trace.unattributed_frac", "ratio", "unattributed_frac", (), ALL),
    ("trace.overhead_s", "s/op", "overhead_s", (), ALL),
)


def per_layer_metrics(tracer: Tracer, traced_op_s: list, untraced_op_s: list) -> dict:
    """Every PER_LAYER metric from the tracer's totals over len(traced_op_s) traced ops.

    unattributed_frac is the share of the traced ops' wall time not covered by a
    span below the top-level one (cli.run_training or cli.main): time outside every
    span plus the top-level spans' self time. overhead_s is the median traced op
    time minus the median untraced one."""
    ops = len(traced_op_s)
    derived = {
        "train_calls": tracer.train_calls / ops,
        "infer_calls": tracer.infer_calls / ops,
        "useful_frac": tracer.useful_loss_calls / tracer.loss_calls if tracer.loss_calls else 0.0,
        "fit_eval_s": tracer.fit_eval_s / ops,
        "eval_rows_per_train_row": (tracer.fit_infer_rows / tracer.fit_train_rows
                                    if tracer.fit_train_rows else 0.0),
        "unattributed_frac": 1.0 - (tracer.top_s - tracer.top_self_s) / sum(traced_op_s),
        "overhead_s": statistics.median(traced_op_s) - statistics.median(untraced_op_s),
    }
    read = {"self": tracer.self_s, "total": tracer.total_s, "calls": tracer.calls}
    out = {}
    for name, unit, kind, spans, _ in PER_LAYER:
        value = sum(read[kind](s) for s in spans) / ops if kind in read else derived[kind]
        out[name] = (value, unit)
    return out
