"""Record perfbench/reference.json from the current code, for the default seed.

    python3 perfbench/record_reference.py

Run it only on the commit whose outputs are the reference (the seed code):
every later benchmark run with seed 0 is compared with what it writes.
Takes about five minutes.
"""

from __future__ import annotations

import os

os.environ.update({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"})

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

import workloads as wl  # noqa: E402


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=wl.ROOT)
    try:
        ref = {"seed": wl.DEFAULT_SEED, "trials": {}}
        for cls in (wl.Monks1Minibatch, wl.BlobsWideFullbatch):
            w = cls(wl.DEFAULT_SEED, workdir, reference=None)
            w.setup()
            rows = []
            for i in range(wl.SEED_CYCLE):
                _, digest, trial = w.train(i)
                rows.append({"seed": trial["seed"], "test_acc": trial["test_acc"], "digest": digest})
                print(f"{w.task} trial {i}: test_acc {trial['test_acc']!r}", flush=True)
            ref["trials"][w.task] = rows

        w = wl.Diagnostics(wl.DEFAULT_SEED, workdir, reference=None)
        w.setup()
        kpca = []
        for r in range(wl.INSPECT_CYCLE):
            w.round(r, check_reference=False)
            kpca.append([{"coordinates": coords.tolist(), "eigenvalues": eigs.tolist()}
                         for coords, eigs in w._check_inspect(w.workdir / "inspect")])
        _, _, approx = wl.quiet(w.cli.main, ["approx-bench"])
        ref["diagnostics"] = {
            "eval_acc": w.snapshot["test_acc"],
            "confusion_sha256": wl.sha256((w.workdir / "eval" / "confusion.csv").read_bytes()),
            "kpca": kpca,
        }
        ref["approx_bench"] = [[float(v) for v in line.split(",")] for line in approx.splitlines()[1:]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(f"wrote {wl.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
