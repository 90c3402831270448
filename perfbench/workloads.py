"""The benchmark's three workloads, driven through rffnet's public API.

Every workload runs the same way: set up several times, then run its own ops
in a closed loop (one process, the next op starts when the previous one ends)
for the measured window. In untraced runs of the training workloads, each
trial is followed by evals of its snapshot and more set-ups, so every
end-to-end metric is measured on every workload and set-up time is sampled
over the whole run. Each op checks its outputs; a failed check or an
exception counts the op as failed.

An op's inputs come from the workload seed only: trial ``i`` trains with
``train.seed = 16 * seed + i % 16`` and diagnostics round ``r`` runs ``inspect``
with ``--seed 4 * seed + r % 4``. References recorded from the seed code
(``reference.json``) cover the default seed 0, so every op of a seed-0 run is
compared with them.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import statistics
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REGISTRY = ROOT / "data" / "registry.txt"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

MONKS1 = "monks1-minibatch"
BLOBS = "blobs-wide-fullbatch"
DIAGNOSTICS = "diagnostics"

DEFAULT_SEED = 0
SEED_CYCLE = 16  # trial seeds repeat after this many trials, so references cover every trial
ACC_TRIALS = 3  # test_acc is the mean over the first three trials, whatever the run length
# The Jacobi solver's cost varies by up to a factor of two with the subsample, so a
# run's inspects cycle through INSPECT_CYCLE subsamples instead of repeating one.
INSPECT_CYCLE = 4
INSPECT_SAMPLES = 64  # about 1 s per inspect with the Jacobi solver of the seed code
EVALS_PER_ROUND = 26  # four rounds give 104 evals, so ten lie beyond p90
APPROX_PER_ROUND = 2
KPCA_ATOL = 1e-7  # coordinates; leaves room for an eigensolver with different rounding
EIG_RTOL = 1e-8

# name, unit, better: the end-to-end metrics of the result line, measured on every workload.
# Trial times are medians over the run's trials. eval_ms is the fastest eval: an eval is
# short, and in runs of ten seeds its fastest call moved less than its median.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("trial_s", "s", "lower"),
    ("train_steps_per_s", "1/s", "higher"),
    ("test_acc", "ratio", "higher"),
    ("eval_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
# printed above the result line only, where measured: their run-to-run spread exceeds any
# bound allowed (README.md). inspect_s and approx_bench_ms are measured on diagnostics only.
UNBOUNDED = (("eval_ms_p50", "ms"), ("eval_ms_p90", "ms"),
             ("inspect_s", "s"), ("inspect_s_p50", "s"), ("approx_bench_ms", "ms"))


def trial_seed(seed: int, i: int) -> int:
    return SEED_CYCLE * seed + i % SEED_CYCLE


def inspect_seed(seed: int, j: int) -> int:
    return INSPECT_CYCLE * seed + j % INSPECT_CYCLE


def import_rffnet():
    """Import rffnet afresh from the checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "rffnet" or n.startswith("rffnet.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    cli = importlib.import_module("rffnet.cli")
    if Path(cli.__file__).resolve().parent != SRC / "rffnet":
        raise ImportError(f"rffnet imported from {cli.__file__}, not from {SRC}")
    return cli


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def snapshot_digest(path) -> str:
    """sha256 of every array of a reloaded snapshot, in load order."""
    from rffnet.network import load_network

    net, stages, _ = load_network(path)
    h = hashlib.sha256()
    for layer in net.layers:
        h.update(layer.omega.astype("<f8").tobytes())
        bn = layer.batchnorm
        if bn is not None:
            for arr in (bn.gamma, bn.beta, bn.running_mean, bn.running_var):
                h.update(arr.astype("<f8").tobytes())
    for arr in [net.readout_w, net.readout_b] + [a for stage in stages for a in stage]:
        h.update(arr.astype("<f8").tobytes())
    return h.hexdigest()


class CheckFailed(Exception):
    pass


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Hooks:
    """For one op: times ``fit``, counts its steps (its training ``forward_full``
    calls, at that function's binding site in ``optimizer``) and keeps the network
    handed to ``save_network``. ``fit`` and ``save_network`` are replaced at their
    binding sites in ``cli``, where ``run_training`` looks them up."""

    def __init__(self, cli):
        self.cli = cli
        self.optimizer = sys.modules["rffnet.optimizer"]
        self.fit_s = 0.0
        self.steps = 0
        self.net = None

    def __enter__(self):
        self._fit, self._save = self.cli.fit, self.cli.save_network
        self._forward = self.optimizer.forward_full
        self.cli.fit, self.cli.save_network = self._timed_fit, self._keep_net
        self.optimizer.forward_full = self._counted_forward
        return self

    def __exit__(self, *exc):
        self.cli.fit, self.cli.save_network = self._fit, self._save
        self.optimizer.forward_full = self._forward

    def _timed_fit(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return self._fit(*args, **kwargs)
        finally:
            self.fit_s += perf_counter() - t0

    def _counted_forward(self, net, X, training=False):
        self.steps += training
        return self._forward(net, X, training=training)

    def _keep_net(self, net, *args, **kwargs):
        self.net = net
        return self._save(net, *args, **kwargs)


@dataclass
class Samples:
    setup_s: list = field(default_factory=list)
    trial_s: list = field(default_factory=list)
    steps_per_s: list = field(default_factory=list)
    test_acc: list = field(default_factory=list)
    eval_s: list = field(default_factory=list)
    inspect_s: dict = field(default_factory=dict)  # inspect seed -> seconds of each call
    approx_s: list = field(default_factory=list)

    def summary(self, peak_rss_mb: float) -> dict:
        """name -> (value, sample count) for END_TO_END and the UNBOUNDED ones measured.

        Trial metrics are medians over trials. Evals and approx-bench calls are short
        and each repeat one cost, so their metric is the fastest repeat. An inspect's cost
        depends on its subsample, so inspect_s is the mean over the subsamples of each
        one's fastest call."""
        evals_ms = sorted(1e3 * t for t in self.eval_s)
        p90_rank = -(-9 * len(evals_ms) // 10)  # nearest rank
        out = {
            "setup_s": (statistics.median(self.setup_s), len(self.setup_s)),
            "trial_s": (statistics.median(self.trial_s), len(self.trial_s)),
            "train_steps_per_s": (statistics.median(self.steps_per_s), len(self.steps_per_s)),
            "test_acc": (statistics.fmean(self.test_acc[:ACC_TRIALS]), min(len(self.test_acc), ACC_TRIALS)),
            "eval_ms": (evals_ms[0], len(evals_ms)),
            "peak_rss_mb": (peak_rss_mb, 1),
            "eval_ms_p50": (statistics.median(evals_ms), len(evals_ms)),
            "eval_ms_p90": (evals_ms[p90_rank - 1], len(evals_ms)),
        }
        if self.inspect_s:
            inspects = [t for ts in self.inspect_s.values() for t in ts]
            out["inspect_s"] = (statistics.fmean(min(ts) for ts in self.inspect_s.values()), len(inspects))
            out["inspect_s_p50"] = (statistics.median(inspects), len(inspects))
            out["approx_bench_ms"] = (1e3 * min(self.approx_s), len(self.approx_s))
        return out


def quiet(fn, *args):
    """Call fn with its stdout captured; returns (seconds, result, stdout text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        t0 = perf_counter()
        result = fn(*args)
        dt = perf_counter() - t0
    return dt, result, buf.getvalue()


def _read_csv_floats(path, drop_last_column: bool):
    with open(path) as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:] if line]
    if drop_last_column:
        rows = [r[:-1] for r in rows]
    return np.array([[float(v) for v in r] for r in rows])


class Workload:
    """Training ops and evals of a snapshot, shared by the workloads."""

    name = ""
    task = ""
    setup_repeats = 10  # set-ups before the first op; a set-up takes about 0.1 s
    setups_per_op = 6  # untraced runs set up again after each op, so setup_s samples the whole run
    min_ops = 5

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        """reference=None skips every comparison with recorded outputs (used to record them)."""
        self.seed = seed
        self.workdir = Path(workdir)
        self.reference = reference
        self.samples = Samples()
        self.cli = None
        self.tracer = None  # set while traced ops run; checks run with it inactive
        self.last_trial = None
        # per-seed references exist for the default seed only
        self.seeded_reference = reference if seed == DEFAULT_SEED else None

    def call(self, fn, *args):
        """quiet(fn, *args), traced when a tracer is set."""
        if self.tracer is None:
            return quiet(fn, *args)
        self.tracer.active = True
        try:
            return quiet(fn, *args)
        finally:
            self.tracer.active = False

    # --- training ---------------------------------------------------------------

    def config(self, seed_t: int):
        raise NotImplementedError

    def _split_args(self, seed_t: int) -> list[str]:
        return []

    def setup(self) -> None:
        """Import, registry and data load, preprocessing and network build."""
        t0 = perf_counter()
        cli = self.cli = import_rffnet()
        cfg = self.config(trial_seed(self.seed, 0))
        data = cli.load_task_data(cfg)
        train_raw, test_raw = data.for_trial(cfg.seed)
        train, _, _ = cli.preprocess_pair(train_raw, test_raw, cfg.normalize)
        model = cli.resolve_model(cfg, train.n, train.class_count)
        cli.build_network(d_in=train.d, n_classes=train.class_count, layer_count=model.layer_count,
                          D_per_layer=model.dims, loss_kind=model.loss_kind,
                          rng=cli.Rng(cfg.seed).derive("init"), batch_norm=cfg.batch_norm,
                          omega_stddev=cfg.omega_stddev, readout_stddev=cfg.readout_stddev)
        self.samples.setup_s.append(perf_counter() - t0)

    def train(self, i: int):
        """One trial through cli.run_training; returns (seconds, digest, trial info)."""
        cli = self.cli
        seed_t = trial_seed(self.seed, i)
        cfg = self.config(seed_t)
        with Hooks(cli) as hooks:
            dt, results, _ = self.call(cli.run_training, cfg)
        check(hooks.steps > 0, "fit made no training call through optimizer.forward_full")
        model = Path(cfg.out) / "model-trial0.bin"
        acc = results[0].test_acc
        self._check_reload(cfg, hooks.net, model)
        digest = snapshot_digest(model)
        if self.seeded_reference is not None:
            ref = self.seeded_reference["trials"][self.task][i % SEED_CYCLE]
            check(acc == ref["test_acc"], f"trial {i}: test_acc {acc!r} != reference {ref['test_acc']!r}")
            check(digest == ref["digest"], f"trial {i}: parameter digest differs from the reference")
        trial = {"seed": seed_t, "model": model, "test_acc": acc, "steps_per_s": hooks.steps / hooks.fit_s}
        return dt, digest, trial

    def _check_reload(self, cfg, net, model) -> None:
        """The reloaded snapshot must reproduce the in-memory logits bit for bit."""
        from rffnet.network import forward_full, load_network

        cli = self.cli
        train_raw, test_raw = cli.load_task_data(cfg).for_trial(cfg.seed)
        _, test, _ = cli.preprocess_pair(train_raw, test_raw, cfg.normalize)
        reloaded, _, _ = load_network(model)
        live = forward_full(net, test.X, training=False).logits
        again = forward_full(reloaded, test.X, training=False).logits
        check(np.array_equal(live, again), "reloaded snapshot predicts differently from the trained network")

    def record_trial(self, dt: float, trial: dict) -> None:
        self.samples.trial_s.append(dt)
        self.samples.steps_per_s.append(trial["steps_per_s"])
        self.samples.test_acc.append(trial["test_acc"])

    # --- evals -------------------------------------------------------------------------

    def evals(self, trial: dict, check_reference: bool, count: int = EVALS_PER_ROUND):
        """count x eval on one snapshot; returns (seconds spent in the commands,
        digest of their outputs)."""
        eval_dir = self.workdir / "eval"
        busy = 0.0
        for _ in range(count):
            dt, code, acc_text = self.call(self.cli.main, ["eval", str(trial["model"]), *self._data_args(trial),
                                                           "--out", str(eval_dir)])
            check(code == 0, f"eval exited with {code}")
            self.samples.eval_s.append(dt)
            busy += dt
        confusion = (eval_dir / "confusion.csv").read_bytes()
        check(float(acc_text) == trial["test_acc"], f"eval accuracy {acc_text.strip()} != trained {trial['test_acc']!r}")
        if check_reference and self.seeded_reference is not None:
            ref = self.seeded_reference["diagnostics"]
            check(float(acc_text) == ref["eval_acc"], "eval accuracy differs from the reference")
            check(sha256(confusion) == ref["confusion_sha256"], "confusion.csv differs from the reference")
        return busy, sha256(acc_text.encode() + confusion)

    def _data_args(self, trial: dict) -> list[str]:
        return ["--task", self.task, "--registry", str(REGISTRY)] + self._split_args(trial["seed"])

    # --- ops ----------------------------------------------------------------------------

    def op(self, i: int):
        """Op i of the window, a trial; returns (seconds, digest of its outputs)."""
        dt, digest, trial = self.train(i)
        self.record_trial(dt, trial)
        self.last_trial = trial
        return dt, digest

    def follow_up(self, i: int) -> None:
        """Untraced runs only: evals on op i's snapshot, so eval_ms is measured on
        this workload's model, spread over the run rather than in one block; then
        setups_per_op set-ups."""
        self.evals(self.last_trial, check_reference=False)
        for _ in range(self.setups_per_op):
            self.setup()


class Monks1Minibatch(Workload):
    name = MONKS1
    task = "monks1"

    def config(self, seed_t: int):
        # the monks1 protocol of scripts/run_benchmarks.py: auto depth (2), 64 pairs, BN,
        # batch 32, 1000 epochs, squared hinge
        return self.cli.RunConfig(task="monks1", registry=str(REGISTRY), trials=1, seed=seed_t,
                                  out=str(self.workdir / "train"))


class BlobsWideFullbatch(Workload):
    name = BLOBS
    task = "blobs"
    EPOCHS = 100  # the fewest epochs at which every probed seed beats chance clearly
    min_ops = 4  # a trial and its evals take about 8 s

    def config(self, seed_t: int):
        return self.cli.RunConfig(task="blobs", registry=str(REGISTRY), trials=1, seed=seed_t,
                                  layers="2", dim="512", batch_size="full",
                                  epochs=str(self.EPOCHS), out=str(self.workdir / "train"))

    def _split_args(self, seed_t: int) -> list[str]:
        return ["--split-seed", str(seed_t)]


class Diagnostics(Monks1Minibatch):
    """Setup trains one monks1 snapshot; ops are read-only rounds over it."""

    name = DIAGNOSTICS
    setup_repeats = 3  # each trains the snapshot, about 6 s
    min_ops = INSPECT_CYCLE  # every subsample is inspected

    def setup(self) -> None:
        t0 = perf_counter()
        self.cli = import_rffnet()
        import_s = perf_counter() - t0
        dt, digest, trial = self.train(0)
        self.samples.setup_s.append(import_s + dt)
        self.record_trial(dt, trial)
        if hasattr(self, "snapshot"):
            check(digest == self.snapshot_digest, "retraining the snapshot gave different parameters")
        self.snapshot, self.snapshot_digest = trial, digest

    follow_up = None  # its ops are already the read-only rounds

    def op(self, i: int):
        return self.round(i, check_reference=True)

    def round(self, r: int, check_reference: bool):
        """Round r on the snapshot: eval x EVALS_PER_ROUND, in two blocks around inspect x 1,
        then approx-bench x APPROX_PER_ROUND; returns (seconds spent in the commands,
        digest of their outputs)."""
        cli = self.cli
        half = EVALS_PER_ROUND // 2
        busy, eval_digest = self.evals(self.snapshot, check_reference, half)
        h = hashlib.sha256(eval_digest.encode())

        inspect_dir = self.workdir / "inspect"
        dt, code, _ = self.call(cli.main, ["inspect", str(self.snapshot["model"]), *self._data_args(self.snapshot),
                                           "--max-samples", str(INSPECT_SAMPLES), "--seed", str(inspect_seed(self.seed, r)),
                                           "--out", str(inspect_dir)])
        check(code == 0, f"inspect exited with {code}")
        self.samples.inspect_s.setdefault(r % INSPECT_CYCLE, []).append(dt)
        busy += dt
        kpca = self._check_inspect(inspect_dir)
        h.update(b"".join((inspect_dir / f"kpca-layer{i}.csv").read_bytes() for i in range(len(kpca))))
        if check_reference and self.seeded_reference is not None:
            for i, (coords, eigs) in enumerate(kpca):
                layer_ref = self.seeded_reference["diagnostics"]["kpca"][r % INSPECT_CYCLE][i]
                check(np.allclose(coords, layer_ref["coordinates"], rtol=0, atol=KPCA_ATOL),
                      f"layer {i}: kPCA coordinates differ from the reference by more than {KPCA_ATOL}")
                check(np.allclose(eigs, layer_ref["eigenvalues"], rtol=EIG_RTOL, atol=0),
                      f"layer {i}: kPCA eigenvalues differ from the reference by more than {EIG_RTOL}")
        dt, eval_digest = self.evals(self.snapshot, check_reference, EVALS_PER_ROUND - half)
        busy += dt
        h.update(eval_digest.encode())

        for _ in range(APPROX_PER_ROUND):
            dt, code, table = self.call(cli.main, ["approx-bench"])
            check(code == 0, f"approx-bench exited with {code}")
            self.samples.approx_s.append(dt)
            busy += dt
        self._check_approx(table)
        h.update(table.encode())
        return busy, h.hexdigest()

    def _check_inspect(self, inspect_dir: Path):
        """kPCA eigenvalues (the squared column norms of the coordinates) must be the
        top eigenvalues of the double-centred kernel the same command wrote."""
        out = []
        for i in range(len(list(inspect_dir.glob("kpca-layer*.csv")))):
            coords = _read_csv_floats(inspect_dir / f"kpca-layer{i}.csv", drop_last_column=True)
            K = _read_csv_floats(inspect_dir / f"kernel-layer{i}.csv", drop_last_column=False)
            check(coords.shape == (min(INSPECT_SAMPLES, K.shape[0]), 2), f"layer {i}: kPCA shape {coords.shape}")
            check(np.allclose(np.diag(K), 1.0, atol=1e-10), f"layer {i}: kernel diagonal is not 1")
            Kc = K - K.mean(axis=0) - K.mean(axis=1)[:, None] + K.mean()
            expect = np.linalg.eigvalsh((Kc + Kc.T) / 2)[::-1][:2]
            eigs = np.sum(coords * coords, axis=0)
            check(np.allclose(eigs, expect, rtol=1e-6, atol=1e-12),
                  f"layer {i}: kPCA eigenvalues {eigs} != centred-kernel eigenvalues {expect}")
            out.append((coords, eigs))
        return out

    def _check_approx(self, text: str) -> None:
        rows = [line.split(",") for line in text.splitlines()[1:]]
        got = np.array([[float(v) for v in r] for r in rows])
        check(bool(np.all(np.isfinite(got))) and got.shape == (4, 3), "approx-bench printed a malformed table")
        if self.reference is not None:
            ref = np.array(self.reference["approx_bench"])
            check(np.allclose(got, ref, rtol=1e-9, atol=0), "approx-bench errors differ from the reference")


WORKLOADS = {cls.name: cls for cls in (Monks1Minibatch, BlobsWideFullbatch, Diagnostics)}
