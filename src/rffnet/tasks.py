"""Built-in benchmark tasks.

The three monks problems are rule-defined over a 432-point attribute grid
(a1..a6 with cardinalities 3,3,2,3,4,2); the full grid is the canonical test
set and each training set is one fixed stratified sample of the documented size
(monks3 additionally carries 5% training label noise). Two-blob toy data
backs the optimizer sanity checks.
"""

from __future__ import annotations

import numpy as np

from .dataio import Dataset
from .numerics import Rng

MONKS_CARDINALITIES = (3, 3, 2, 3, 4, 2)
MONKS_TRAIN_SIZES = {"monks1": 124, "monks2": 169, "monks3": 122}
MONKS_NOISE = {"monks1": 0.0, "monks2": 0.0, "monks3": 0.05}


def monks_grid() -> np.ndarray:
    """All 432 attribute combinations, attributes valued 1..cardinality."""
    axes = [np.arange(1, c + 1) for c in MONKS_CARDINALITIES]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 6)
    return grid.astype(np.float64)


def monks_rule(task: str, A: np.ndarray) -> np.ndarray:
    a1, a2, a3, a4, a5, a6 = (A[:, j] for j in range(6))
    if task == "monks1":
        pos = (a1 == a2) | (a5 == 1)
    elif task == "monks2":
        pos = np.sum(A == 1, axis=1) == 2
    else:  # monks3
        pos = ((a5 == 3) & (a4 == 1)) | ((a5 != 4) & (a2 != 3))
    return pos.astype(np.int64)


def _stratified_sample(y: np.ndarray, size: int, rng: Rng) -> np.ndarray:
    """Indices of a class-proportional sample without replacement."""
    n = len(y)
    counts = np.bincount(y, minlength=2)
    want = [int(round(size * c / n)) for c in counts]
    want[0] += size - sum(want)
    picks = []
    for cls, w in enumerate(want):
        idx = np.flatnonzero(y == cls)
        perm = rng.derive("class", cls).permutation(len(idx))
        picks.append(idx[perm[:w]])
    return np.sort(np.concatenate(picks))


def make_monks(task: str):
    """(train, test) datasets for one monks problem; test is the full grid."""
    X = monks_grid()
    y = monks_rule(task, X)
    rng = Rng(0).derive("monks", task)
    train_idx = _stratified_sample(y, MONKS_TRAIN_SIZES[task], rng)
    y_train = y[train_idx].copy()
    noise = MONKS_NOISE[task]
    if noise > 0:
        flips = int(round(noise * len(train_idx)))
        order = rng.derive("noise").permutation(len(train_idx))[:flips]
        y_train[order] = 1 - y_train[order]
    names = ["0", "1"]
    train = Dataset(X=X[train_idx].copy(), y=y_train, label_names=names)
    test = Dataset(X=X.copy(), y=y.copy(), label_names=names)
    return train, test


def two_blobs(n: int, seed: int = 0, separation: float = 4.0) -> Dataset:
    """Two spherical Gaussian clusters in the plane labelled 0/1, centers separated along x."""
    rng = Rng(seed).derive("blobs")
    n0 = n // 2
    X = rng.normal((n, 2))
    X[:n0, 0] -= separation / 2.0
    X[n0:, 0] += separation / 2.0
    y = np.concatenate([np.zeros(n0, dtype=np.int64), np.ones(n - n0, dtype=np.int64)])
    perm = rng.derive("order").permutation(n)
    return Dataset(X=X[perm], y=y[perm], label_names=["0", "1"])
