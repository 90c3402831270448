"""Dataset loading (CSV / LIBSVM), normalization, deterministic splits, and the
benchmark-task registry.

Normalization is always fitted on the training split and applied unchanged to
the test split; each transform is a (shift, div) pair of per-column arrays,
x' = (x - shift) / div, so a saved model can replay them exactly on raw data.
"""

from __future__ import annotations

import csv
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .errors import DataError
from .numerics import Rng

DATA_FORMATS = ("csv", "libsvm")
SPLIT_MODES = ("provided", "random_half")  # a given test file, or a seeded random half
# the most float64 values (2 GiB) a LIBSVM file may expand to, rows x largest feature index, and the most
# parameters a model may hold; checked before allocating, since one stated index or width can ask for
# petabytes, or for gigabytes the OS grants lazily
MAX_DENSE_VALUES = 2**28


@contextmanager
def _open_text(path, **kwargs):
    """open(path) for reading text; bytes that do not decode raise a DataError naming the file."""
    with open(path, **kwargs) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


def _finite_columns(values: np.ndarray, what: str) -> np.ndarray:
    """values, once every entry is finite; otherwise a DataError names the first column that overflowed."""
    bad = ~np.isfinite(values)
    if bad.any():
        col = int(np.argmax(np.atleast_2d(bad).any(axis=0)))
        raise DataError(f"normalization overflowed: the {what} of feature column {col} is not finite")
    return values


def apply_stages(X: np.ndarray, stages) -> np.ndarray:
    """X with each (shift, div) stage applied in order: X = (X - shift) / div."""
    for shift, div in stages:
        X = _finite_columns((X - shift) / div, "scaled value")
    return X


@dataclass
class Dataset:
    X: np.ndarray
    y: np.ndarray
    label_names: list[str]  # class i's name; the class count is their number

    @property
    def class_count(self) -> int:
        return len(self.label_names)

    @property
    def n(self) -> int:
        return self.X.shape[0]

    @property
    def d(self) -> int:
        return self.X.shape[1]

    def __post_init__(self):
        if self.X.ndim != 2 or self.X.shape[0] < 1 or self.X.shape[1] < 1:
            raise DataError(f"feature matrix must be non-empty 2-D, got shape {self.X.shape}")
        if not np.all(np.isfinite(self.X)):
            raise DataError("features contain NaN or Inf")


def code_labels(tokens: list[str], names: list[str] | None = None):
    """(y, names): each label token's class index, and the class names in index order.

    Without names, classes are numbered by first appearance; with them, by their
    place in names, and a token outside names raises DataError."""
    index = {name: i for i, name in enumerate(names or ())}
    y = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        if names is not None and tok not in index:
            raise DataError(f"label {tok!r} is not one of the training class names")
        y[i] = index.setdefault(tok, len(index))
    return y, list(index)


def recode(data: Dataset, names: list[str] | None = None) -> Dataset:
    """data with its labels coded as load_source codes a file's label tokens: in
    first-appearance order, or through names (a test split through its training split's)."""
    y, names = code_labels([data.label_names[i] for i in data.y], names)
    return replace(data, y=y, label_names=names)


def load_csv(path, label_column: int = -1, label_names: list[str] | None = None) -> Dataset:
    """Read a rectangular numeric CSV; one column holds class labels, which are
    coded by code_labels, through label_names when given. The feature cells
    are parsed in one cast, but a bad cell is still named before any later row's fault."""
    line_nos, rows, label_tokens = [], [], []  # per data row: its line number, feature cells and label
    width = col = None
    try:
        with _open_text(path, newline="") as fh:
            reader = csv.reader(fh)
            for row in reader:
                line_no = reader.line_num  # the physical line a record ends on: a quoted newline spans two
                if not row or (len(row) == 1 and not row[0].strip()):
                    continue
                if width is None:
                    width = len(row)
                    col = label_column if label_column >= 0 else width + label_column
                if len(row) != width:
                    raise DataError(f"{path} line {line_no}: expected {width} columns, found {len(row)}")
                if not 0 <= col < width:
                    raise DataError(f"{path} line {line_no}: label column {label_column} out of range "
                                    f"for {width} columns")
                label_tokens.append(row.pop(col).strip())
                line_nos.append(line_no)
                rows.append(row)
        if not rows:
            raise DataError(f"{path}: no data rows")
        X = np.array(rows, dtype=np.float64)  # numpy parses each str cell with float()
    except (ValueError, csv.Error) as exc:  # the cast's, a later row's or the reader's: an earlier bad cell first
        for row_no, row in zip(line_nos, rows):
            for k, cell in enumerate(row):
                try:
                    float(cell)
                except ValueError:
                    raise DataError(f"{path} line {row_no}: non-numeric feature value {cell!r} "
                                    f"in column {k + (k >= col)}") from None
        if isinstance(exc, csv.Error):  # e.g. a field over csv.field_size_limit(), on the line being read
            raise DataError(f"{path} line {reader.line_num}: {exc}") from None
        raise
    return Dataset(X, *code_labels(label_tokens, label_names))


def save_csv(data: Dataset, path) -> None:
    """Write features plus a trailing label column (original label tokens)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for i in range(data.n):
            writer.writerow([repr(float(v)) for v in data.X[i]] + [data.label_names[data.y[i]]])


def load_libsvm(path, label_names: list[str] | None = None, min_dim: int = 0) -> Dataset:
    """Parse 'label idx:val idx:val ...' lines with 1-based strictly increasing
    indices; absent indices are zeros and d is the largest index seen. A file
    whose rows x d exceeds MAX_DENSE_VALUES is a DataError."""
    entries = []
    label_tokens = []
    d = min_dim
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            label_tokens.append(parts[0])
            pairs = []
            prev = 0
            for item in parts[1:]:
                try:
                    idx_str, val_str = item.split(":", 1)
                    idx = int(idx_str)
                    val = float(val_str)
                except ValueError:
                    raise DataError(f"{path} line {line_no}: malformed feature entry {item!r}") from None
                if idx <= prev:
                    raise DataError(f"{path} line {line_no}: feature index {idx} not strictly increasing "
                                    f"(previous {prev})")
                prev = idx
                pairs.append((idx, val))
            d = max(d, prev)
            entries.append(pairs)
            if len(entries) * d > MAX_DENSE_VALUES:
                raise DataError(f"{path} line {line_no}: feature index {d} makes a dense {len(entries)} x {d} "
                                f"matrix, more than the {MAX_DENSE_VALUES} values a LIBSVM file may expand to")
    if not entries:
        raise DataError(f"{path}: no data rows")
    X = np.zeros((len(entries), d))
    for i, pairs in enumerate(entries):
        for idx, val in pairs:
            X[i, idx - 1] = val
    return Dataset(X, *code_labels(label_tokens, label_names))


def load_source(fmt: str, path, label_column: int = -1, test_path=None, min_dim: int = 0):
    """Load a dataset file in ``fmt`` (csv or libsvm) and, if ``test_path`` is
    given, its test file with the training file's class names and feature width.

    ``min_dim`` zero-pads libsvm rows, which omit trailing zero features, to at
    least that width. Returns (data, test); test is None without ``test_path``.
    """
    def load(p, label_names, min_dim):
        if fmt == "csv":
            return load_csv(p, label_column=label_column, label_names=label_names)
        return load_libsvm(p, label_names=label_names, min_dim=min_dim)

    data = load(path, None, min_dim)
    if not test_path:
        return data, None
    test = load(test_path, data.label_names, data.d)
    if test.d != data.d:
        raise DataError(f"test file {test_path} has {test.d} features, training file {path} has {data.d}")
    return data, test


def minmax_stage(X: np.ndarray):
    """(shift, div) scaling each column of X to [0, 1]; div is 1 where a column
    is constant, which the shift already maps to 0."""
    lo = X.min(axis=0)
    span = _finite_columns(X.max(axis=0) - lo, "range")
    return lo, np.where(span > 0, span, 1.0)


def whiten_stage(X: np.ndarray):
    """(shift, div) standardizing each column of X with its mean and population std (floored at 1e-12)."""
    return X.mean(axis=0), np.maximum(_finite_columns(X.std(axis=0), "standard deviation"), 1e-12)


NORMALIZE_SCHEMES = ("none", "minmax", "whiten", "minmax+whiten")


def preprocess_pair(train: Dataset, test: Dataset | None, scheme: str = "minmax+whiten"):
    """Fit the scheme's stages on the training split, apply to both splits.

    Returns (train', test', stages), stages a list of (shift, div) pairs."""
    stages = []
    Xtr = train.X
    for name in [s for s in scheme.split("+") if s != "none"]:
        stage = minmax_stage(Xtr) if name == "minmax" else whiten_stage(Xtr)
        stages.append(stage)
        Xtr = apply_stages(Xtr, [stage])
    train_out = replace(train, X=Xtr)
    test_out = None
    if test is not None:
        Xte = apply_stages(test.X, stages)
        test_out = replace(test, X=Xte)
    return train_out, test_out, stages


def split(data: Dataset, seed: int):
    """Disjoint, exhaustive random-half partition (odd n puts the extra sample
    in training); membership depends only on the seed."""
    if data.n < 2:
        raise DataError(f"random_half split needs at least 2 samples, got {data.n}")
    perm = Rng(seed).derive("split").permutation(data.n)
    n_train = math.ceil(data.n / 2)
    tr = np.sort(perm[:n_train])
    te = np.sort(perm[n_train:])
    train = replace(data, X=data.X[tr], y=data.y[tr])
    test = replace(data, X=data.X[te], y=data.y[te])
    return train, test


# --- task registry ----------------------------------------------------------


# the RunConfig fields a registry line sets: data.path, data.test_path, data.format, data.label_column, data.split
TASK_SOURCE_FIELDS = ("path", "test_path", "fmt", "label_column", "split_mode")


def parse_registry(path) -> dict[str, dict]:
    """Manifest format: 'name format label_column split_mode path [test_path]'
    per line, '#' comments allowed. Each name maps to its preset, a value for
    each of TASK_SOURCE_FIELDS. Relative data paths are resolved against the
    manifest's own directory; a random_half line's test path is ignored; a
    name defined twice is a DataError."""
    base = os.path.dirname(os.path.abspath(path))

    def resolve(p):
        return p if os.path.isabs(p) else os.path.join(base, p)

    tasks, defined_on = {}, {}
    with _open_text(path) as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "\x00" in line:  # no name or path holds one, and open() rejects it
                raise DataError(f"{path} line {line_no}: NUL byte in line")
            parts = line.split()
            if len(parts) not in (5, 6):
                raise DataError(f"{path} line {line_no}: expected 5 or 6 fields, found {len(parts)}")
            name, fmt, label_col, split_mode, p = parts[:5]
            if name in defined_on:
                raise DataError(f"{path} line {line_no}: task {name!r} is already defined on line {defined_on[name]}")
            defined_on[name] = line_no
            if fmt not in DATA_FORMATS:
                raise DataError(f"{path} line {line_no}: unknown format {fmt!r}")
            if split_mode not in SPLIT_MODES:
                raise DataError(f"{path} line {line_no}: unknown split mode {split_mode!r}")
            try:
                label_column = 0 if label_col == "-" else int(label_col)
            except ValueError:
                raise DataError(f"{path} line {line_no}: label column {label_col!r} is not an integer or '-'") from None
            test_path = resolve(parts[5]) if len(parts) == 6 and split_mode == "provided" else None
            if split_mode == "provided" and test_path is None:
                raise DataError(f"{path} line {line_no}: provided split needs a test path")
            tasks[name] = dict(zip(TASK_SOURCE_FIELDS, (resolve(p), test_path, fmt, label_column, split_mode)))
    return tasks
