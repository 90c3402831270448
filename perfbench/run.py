"""rffnet benchmark: one workload, one process, one result line.

    python3 perfbench/run.py --workload monks1-minibatch --seed 0 --seconds 10 --trace 0

With --trace 0 the ops run unwrapped and the end-to-end metrics are reported.
With --trace 1 every public function of rffnet is wrapped from outside
(spans.py); each op runs once untraced and once traced on the same inputs,
the two must give identical output digests, and the per-layer metrics are
reported. The last line of stdout is the JSON result; the lines before it
give each metric's sample count and the environment. See README.md.
"""

from __future__ import annotations

import os

# BLAS runs single-threaded: on the 2-core machine the baseline was taken on,
# a second thread did not speed up the widest workload.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_THREADS)

import ctypes  # noqa: E402


def keep_freed_memory() -> dict:
    """Stop glibc from handing freed large arrays back to the kernel. Otherwise every
    eval of the 512-wide model page-faults about 15 MB back in (3800 faults), and on a
    shared VM the cost of a fault varies with the host's memory load: the fastest of
    26 evals moved between 28 and 37 ms from one second to the next. Returns the
    setting, for the environment record."""
    m_trim_threshold, m_mmap_threshold = -1, -3
    setting = {"M_MMAP_THRESHOLD": 32 << 20, "M_TRIM_THRESHOLD": 2**31 - 1}
    try:
        libc = ctypes.CDLL(None)
        ok = (libc.mallopt(m_mmap_threshold, setting["M_MMAP_THRESHOLD"]) == 1
              and libc.mallopt(m_trim_threshold, setting["M_TRIM_THRESHOLD"]) == 1)
    except (OSError, AttributeError):  # not glibc
        ok = False
    return setting if ok else {}


MALLOC = keep_freed_memory()

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402


def environment() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=wl.ROOT, capture_output=True, text=True,
                              timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(wl.ROOT.parent)})
        commit = proc.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "mallopt": MALLOC,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


TRACED_PAIRS = 2  # at least this many (untraced, traced) op pairs per traced run
CALIBRATIONS_PER_OP = 4


def calibration_ms() -> float:
    """Milliseconds of fixed numpy work that calls no rffnet code. Printed beside the
    metrics, it shows how loaded the shared machine was while the run measured."""
    a = np.linspace(0.0, 1.0, 32 * 64).reshape(32, 64)
    t0 = perf_counter()
    for _ in range(300):
        a = a * 0.999 + np.cos(a) * 0.001
    return 1e3 * (perf_counter() - t0)


class Run:
    def __init__(self, workload: wl.Workload, seconds: float):
        self.w = workload
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.calibration_ms = []

    def attempt(self, fn, *args):
        """Run one op; an exception or failed check counts it as failed and returns None."""
        self.attempted += 1
        try:
            return fn(*args)
        except Exception:  # an op boundary: report the failure and keep measuring
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None

    def setup(self) -> None:
        for _ in range(self.w.setup_repeats):
            self.w.setup()

    def window(self, op, min_ops: int) -> None:
        """Closed loop: ops back to back until the time is up and min_ops have run."""
        start = perf_counter()
        i = 0
        while i < min_ops or perf_counter() - start < self.seconds:
            op(i)
            self.calibration_ms += [calibration_ms() for _ in range(CALIBRATIONS_PER_OP)]
            i += 1

    def untraced(self) -> dict:
        self.setup()

        def step(i):
            if self.attempt(self.w.op, i) is not None and self.w.follow_up is not None:
                self.attempt(self.w.follow_up, i)

        self.window(step, self.w.min_ops)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return self.w.samples.summary(peak_mb)

    def traced(self) -> dict:
        self.setup()
        tracer = spans.Tracer()
        tracer.install()
        traced_s, untraced_s = [], []

        def pair(i):
            plain = self.attempt(self.w.op, i)
            self.w.tracer = tracer
            try:
                traced = self.attempt(self.w.op, i)
            finally:
                self.w.tracer = None
            if plain is None or traced is None:
                return
            if plain[1] != traced[1]:
                self.failed += 1
                print(f"op {i}: traced and untraced output digests differ", file=sys.stderr)
                return
            untraced_s.append(plain[0])
            traced_s.append(traced[0])

        try:
            self.window(pair, TRACED_PAIRS)
        finally:
            tracer.uninstall()
        return spans.per_layer_metrics(tracer, traced_s, untraced_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    for needed in (wl.SRC / "rffnet" / "cli.py", wl.REGISTRY):
        if not needed.exists():
            print(f"error: {needed} is missing; run from a full checkout of the repository", file=sys.stderr)
            return 2

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=wl.ROOT))
    try:
        workload = wl.WORKLOADS[args.workload](args.seed, workdir, wl.load_reference())
        run = Run(workload, args.seconds)
        if args.trace:
            metrics = run.traced()
        else:
            summary = run.untraced()
            for name, unit in [row[:2] for row in wl.END_TO_END] + list(wl.UNBOUNDED):
                if name in summary:
                    value, samples = summary[name]
                    print(f"# {name} = {value!r} {unit} (samples: {samples})")
            metrics = {name: (summary[name][0], unit) for name, unit, _ in wl.END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# failed_frac = {run.failed / max(run.attempted, 1)!r} ({run.failed} of {run.attempted} ops)")
    calib = run.calibration_ms
    print(f"# calibration_ms = {min(calib)!r} ms fastest (samples: {len(calib)}); "
          f"calibration_ms_p50 = {statistics.median(calib)!r} ms")
    print("# env " + json.dumps(environment(), sort_keys=True))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
