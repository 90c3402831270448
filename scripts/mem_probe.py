#!/usr/bin/env python3
"""Peak RSS of `rffnet train` on large data, which perfbench does not run.

Writes a seeded eeg-shaped CSV (14980 rows of 14 features, binary label; no
download) into a temporary directory, trains on it for 3 epochs in a child
process with OPENBLAS_NUM_THREADS=1, and prints the child's peak resident set
size. The auto depth for its 7490-row training half is 9 layers, so the
per-epoch evaluation over that half is what the number mostly measures.

    python3 scripts/mem_probe.py [--rows N] [--out RUN_DIR]

--out keeps the run directory, so two checkouts can be compared with diff -r.
"""

import argparse
import os
import resource
import subprocess
import sys
import tempfile

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
sys.path.insert(0, SRC)

from rffnet.dataio import Dataset, save_csv
from rffnet.numerics import Rng

EEG_ROWS, EEG_FEATURES = 14980, 14


def eeg_shaped(rows: int, seed: int = 0) -> Dataset:
    """Electrode-like readings around 4300 with a label from a noisy linear rule."""
    rng = Rng(seed)
    X = rng.derive("x").normal((rows, EEG_FEATURES), 4300.0, 40.0)
    w = rng.derive("w").normal(EEG_FEATURES)
    score = (X - 4300.0) @ w + rng.derive("noise").normal(rows, 0.0, 40.0)
    return Dataset(X=X, y=(score > 0).astype(int), class_count=2, label_names=["0", "1"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--rows", type=int, default=EEG_ROWS)
    parser.add_argument("--out", default=None, help="keep the run directory here (default: a temporary one)")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        data = os.path.join(tmp, "eeg-shaped.csv")
        save_csv(eeg_shaped(args.rows), data)
        out = os.path.abspath(args.out or os.path.join(tmp, "run"))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        # the data path is given relative to the child's directory, so config.txt does not name the temp dir
        child = subprocess.run([sys.executable, "-m", "rffnet.cli", "train", "--data-path", os.path.basename(data),
                                "--epochs", "3", "--out", out], cwd=tmp, env=env, capture_output=True, text=True)
    if child.returncode != 0:
        print(child.stderr, file=sys.stderr, end="")
        return child.returncode
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss  # KiB on Linux
    print(f"rows {args.rows} peak_rss_mb {peak_kb / 1024:.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
