#!/usr/bin/env python3
"""Materialize the built-in rule-generated benchmark tasks as CSV files plus a
registry manifest under data/.

The monks tasks are generated from their defining rules over the full 432-point
attribute grid: the grid itself is the canonical test set and the training set
is one fixed stratified sample of the documented size (monks3 carries 5% label
noise in training), the same sample `rffnet train --task monksN` generates when
no registry file exists. Large-scale tasks (eeg, phishing) are real measured data
and cannot be generated; fetch those with scripts/fetch_data.py.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from rffnet.dataio import save_csv
from rffnet.tasks import MONKS_TRAIN_SIZES, make_monks

REGISTRY_HEADER = """\
# task registry: name format label_column split_mode path [test_path]
"""

LARGE_TASKS = """\
# Large UCI tasks (files appear once scripts/fetch_data.py has run):
#   eeg csv -1 random_half eeg.csv
#   phishing csv -1 random_half phishing.csv
"""


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="data", help="output directory")
    args = parser.parse_args()
    os.makedirs(args.out, exist_ok=True)
    lines = [REGISTRY_HEADER]
    for task in sorted(MONKS_TRAIN_SIZES):
        train, test = make_monks(task)
        train_path = os.path.join(args.out, f"{task}-train.csv")
        test_path = os.path.join(args.out, f"{task}-test.csv")
        save_csv(train, train_path)
        save_csv(test, test_path)
        lines.append(f"{task} csv -1 provided {task}-train.csv {task}-test.csv\n")
        print(f"{task}: train {train.n} x {train.d}, test {test.n} x {test.d}")
    for name in ("eeg", "phishing"):
        path = os.path.join(args.out, f"{name}.csv")
        if os.path.exists(path):
            lines.append(f"{name} csv -1 random_half {name}.csv\n")
            print(f"{name}: found {path}, registered")
    lines.append(LARGE_TASKS)
    with open(os.path.join(args.out, "registry.txt"), "w") as fh:
        fh.writelines(lines)
    print(f"registry written to {os.path.join(args.out, 'registry.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
