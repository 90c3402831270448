import tempfile
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import load_csv_oracle

from rffnet.cli import RunConfig, load_task_data
from rffnet.dataio import (
    DATA_FORMATS,
    SPLIT_MODES,
    Dataset,
    apply_stages,
    load_csv,
    load_libsvm,
    parse_registry,
    preprocess_pair,
    save_csv,
    split,
)
from rffnet.errors import DataError
from rffnet.numerics import Rng


def write(path, text):
    path.write_text(text)
    return str(path)


def test_load_csv_basic(tmp_path):
    p = write(tmp_path / "d.csv", "1.0,2.0,yes\n3.0,4.0,no\n")
    data = load_csv(p)
    assert data.n == 2 and data.d == 2
    assert np.array_equal(data.X, [[1.0, 2.0], [3.0, 4.0]])
    assert data.label_names == ["yes", "no"]


def test_load_csv_label_mapping_order(tmp_path):
    p = write(tmp_path / "d.csv", "1,yes\n2,no\n3,yes\n")
    data = load_csv(p)
    assert np.array_equal(data.y, [0, 1, 0])


def test_load_csv_header_and_label_column(tmp_path):
    p = write(tmp_path / "d.csv", "a,1,2\nb,3,4\n")
    data = load_csv(p, label_column=0)
    assert data.n == 2 and data.d == 2
    assert data.label_names == ["a", "b"]
    # files carry no header row: a line of column names is a non-numeric first row
    p = write(tmp_path / "h.csv", "label,x0,x1\na,1,2\n")
    with pytest.raises(DataError, match="line 1"):
        load_csv(p, label_column=0)


def test_load_csv_ragged_row_names_line(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n1,2,3,a\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(p)


def test_load_csv_non_numeric_cell(tmp_path):
    p = write(tmp_path / "d.csv", "1,2,a\n1,x,a\n")
    with pytest.raises(DataError, match="line 2"):
        load_csv(p)


def test_load_csv_field_over_the_csv_limit_names_its_record(tmp_path):
    # csv.reader refuses a field longer than csv.field_size_limit() (131072 by default)
    p = write(tmp_path / "d.csv", "1," + "x" * 200_000 + "\n")
    with pytest.raises(DataError, match="line 1: field larger than field limit"):
        load_csv(p)
    p = write(tmp_path / "e.csv", "1,2,a\n\n1," + "x" * 200_000 + ",a\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(p)
    p = write(tmp_path / "f.csv", "1,y,a\n1," + "x" * 200_000 + ",a\n")
    with pytest.raises(DataError, match="line 1: non-numeric feature value 'y'"):
        load_csv(p)


def test_load_csv_names_the_physical_line_after_a_quoted_newline(tmp_path):
    # a quoted label spans lines 1-2, so the next record is on line 3, not record 2
    p = write(tmp_path / "d.csv", '1,2,"a\nb"\n1,x,c\n')
    with pytest.raises(DataError, match="line 3: non-numeric feature value 'x'"):
        load_csv(p)
    p = write(tmp_path / "e.csv", '1,2,"a\nb"\n1,2,3,c\n')
    with pytest.raises(DataError, match="line 3: expected 3 columns, found 4"):
        load_csv(p)
    p = write(tmp_path / "f.csv", '1,2,"a\nb"\n\n1,' + "x" * 200_000 + ",c\n")
    with pytest.raises(DataError, match="line 4: field larger than field limit"):
        load_csv(p)


def test_csv_write_read_roundtrip(tmp_path):
    X = Rng(0).normal((7, 4), 0.0, 3.0)
    y = np.array([0, 1, 0, 1, 1, 0, 1], dtype=np.int64)
    data = Dataset(X=X, y=y, label_names=["n", "p"])
    p = tmp_path / "out.csv"
    save_csv(data, p)
    back = load_csv(str(p))
    assert np.array_equal(back.X, X)  # repr round-trips float64 exactly
    assert np.array_equal(back.y, y)


def test_load_libsvm_basic(tmp_path):
    p = write(tmp_path / "d.svm", "1 1:0.5 3:-0.2\n-1 2:1.0\n")
    data = load_libsvm(p)
    assert np.array_equal(data.X, [[0.5, 0.0, -0.2], [0.0, 1.0, 0.0]])
    assert data.label_names == ["1", "-1"]


def test_load_libsvm_empty_feature_line(tmp_path):
    p = write(tmp_path / "d.svm", "1 1:1.0\n1\n")
    data = load_libsvm(p)
    assert np.array_equal(data.X[1], [0.0])


def test_load_libsvm_rejects_non_increasing(tmp_path):
    p = write(tmp_path / "d.svm", "1 1:0.5 3:1 2:0.1\n")
    with pytest.raises(DataError, match="line 1"):
        load_libsvm(p)
    p2 = write(tmp_path / "d2.svm", "1 1:0.5\n1 2:1 2:2\n")
    with pytest.raises(DataError, match="line 2"):
        load_libsvm(p2)


def test_load_libsvm_against_reference_parser(tmp_path):
    rng = Rng(31)
    lines = []
    for i in range(100):
        label = "+1" if rng.derive("lab", i).uniform(1)[0] < 0.5 else "-1"
        k = int(rng.derive("k", i).uniform(1)[0] * 6)
        idx = sorted(set(int(v * 12) + 1 for v in rng.derive("idx", i).uniform(k)))
        vals = rng.derive("val", i).normal(len(idx))
        lines.append(label + " " + " ".join(f"{j}:{float(v)!r}" for j, v in zip(idx, vals)))
    p = write(tmp_path / "ref.svm", "\n".join(lines) + "\n")
    data = load_libsvm(p)

    # independent hand-rolled parse
    labels, rows, dim = [], [], 0
    for line in lines:
        parts = line.split()
        labels.append(parts[0])
        pairs = [(int(a.split(":")[0]), float(a.split(":")[1])) for a in parts[1:]]
        rows.append(pairs)
        if pairs:
            dim = max(dim, pairs[-1][0])
    X = np.zeros((len(rows), dim))
    for i, pairs in enumerate(rows):
        for j, v in pairs:
            X[i, j - 1] = v
    assert np.array_equal(data.X, X)
    name_map = {n: i for i, n in enumerate(data.label_names)}
    assert np.array_equal(data.y, [name_map[l] for l in labels])


def _dataset(X, y=None):
    X = np.asarray(X, dtype=np.float64)
    if y is None:
        y = np.zeros(X.shape[0], dtype=np.int64)
        y[::2] = 1
    return Dataset(X=X, y=y, label_names=["0", "1"])


def test_minmax_basic_column():
    data = _dataset([[2.0], [4.0], [6.0]])
    out, _, _ = preprocess_pair(data, None, "minmax")
    assert np.allclose(out.X[:, 0], [0.0, 0.5, 1.0])


def test_minmax_constant_column_zero():
    data = _dataset([[5.0, 1.0], [5.0, 2.0]])
    out, _, _ = preprocess_pair(data, None, "minmax")
    assert np.array_equal(out.X[:, 0], [0.0, 0.0])


def test_minmax_idempotent_on_training_split():
    data = _dataset(Rng(1).normal((20, 3), 2.0, 5.0))
    once, _, _ = preprocess_pair(data, None, "minmax")
    twice, _, _ = preprocess_pair(once, None, "minmax")
    assert np.abs(once.X - twice.X).max() < 1e-15


def test_whiten_hand_value():
    data = _dataset([[3.0], [5.0], [7.0]])  # mean 5, population std ~1.633
    out, _, _ = preprocess_pair(data, None, "whiten")
    assert abs(out.X[1, 0]) < 1e-15
    manual = (7.0 - 5.0) / data.X.std(axis=0)[0]
    assert abs(out.X[2, 0] - manual) < 1e-15


def test_whiten_training_split_standardized():
    data = _dataset(Rng(2).normal((50, 4), -3.0, 2.5))
    out, _, _ = preprocess_pair(data, None, "whiten")
    assert np.abs(out.X.mean(axis=0)).max() < 1e-10
    assert np.abs(out.X.std(axis=0) - 1.0).max() < 1e-10


def test_test_split_uses_training_stats():
    train = _dataset(Rng(3).normal((30, 2), 5.0, 2.0))
    test = _dataset(Rng(4).normal((10, 2), -100.0, 50.0))
    tr, te, stages = preprocess_pair(train, test, "whiten")
    mean, std = train.X.mean(axis=0), train.X.std(axis=0)
    manual = (test.X - mean) / np.maximum(std, 1e-12)
    assert np.abs(te.X - manual).max() < 1e-15


def test_no_test_leakage_into_stats():
    train = _dataset(Rng(5).normal((30, 2)))
    test_a = _dataset(Rng(6).normal((10, 2)))
    test_b = _dataset(np.vstack([test_a.X, [[1e6, -1e6]]]))  # adversarial extremes
    _, te_a, _ = preprocess_pair(train, test_a, "minmax+whiten")
    _, te_b, _ = preprocess_pair(train, test_b, "minmax+whiten")
    assert np.array_equal(te_a.X, te_b.X[:-1])


def test_preprocess_pipeline_order():
    train = _dataset(Rng(7).normal((25, 3), 4.0, 3.0))
    tr, _, stages = preprocess_pair(train, None, "minmax+whiten")
    assert len(stages) == 2
    manual = apply_stages(train.X, stages)
    assert np.array_equal(tr.X, manual)
    # after both stages the training split is standardized
    assert np.abs(tr.X.mean(axis=0)).max() < 1e-10
    assert np.abs(tr.X.std(axis=0) - 1.0).max() < 1e-10


def test_split_even_and_odd():
    data = _dataset(Rng(8).normal((10, 2)))
    tr, te = split(data, 1)
    assert tr.n == 5 and te.n == 5
    data11 = _dataset(Rng(9).normal((11, 2)))
    tr, te = split(data11, 1)
    assert tr.n == 6 and te.n == 5


@given(st.integers(2, 200), st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_split_disjoint_exhaustive(n, seed):
    X = np.arange(n, dtype=np.float64)[:, None]
    data = _dataset(X)
    tr, te = split(data, seed)
    together = np.sort(np.concatenate([tr.X[:, 0], te.X[:, 0]]))
    assert np.array_equal(together, X[:, 0])
    assert tr.n == -(-n // 2)


def test_split_deterministic():
    data = _dataset(Rng(10).normal((20, 2)))
    tr1, _ = split(data, 5)
    tr2, _ = split(data, 5)
    assert np.array_equal(tr1.X, tr2.X)
    tr3, _ = split(data, 6)
    assert not np.array_equal(tr1.X, tr3.X)


def test_split_rejects_tiny():
    data = _dataset(np.zeros((1, 2)) + 1.0)
    with pytest.raises(DataError):
        split(data, 0)


def test_registry_parse_and_load(tmp_path):
    train = tmp_path / "task-train.csv"
    test = tmp_path / "task-test.csv"
    train.write_text("1,2,a\n2,3,b\n5,6,a\n")
    test.write_text("0,0,b\n9,9,a\n")
    single = tmp_path / "single.csv"
    single.write_text("\n".join(f"{i},{i + 1},c{i % 2}" for i in range(10)) + "\n")
    reg = tmp_path / "registry.txt"
    reg.write_text(
        "# comment line\n"
        "paired csv -1 provided task-train.csv task-test.csv\n"
        "solo csv -1 random_half single.csv\n"
    )
    tasks = parse_registry(str(reg))
    assert set(tasks) == {"paired", "solo"}
    tr, te = load_task_data(RunConfig(task="paired", registry=str(reg))).for_trial(0)
    assert tr.n == 3 and te.n == 2
    assert tr.label_names == te.label_names  # shared mapping
    assert te.y[0] == 1  # 'b' mapped via training order
    tr, te = load_task_data(RunConfig(task="solo", registry=str(reg))).for_trial(3)
    assert tr.n == 5 and te.n == 5


def test_registry_rejects_malformed(tmp_path):
    reg = tmp_path / "registry.txt"
    for text in ("bad csv -1\n", "t csv x random_half d.csv\n"):
        reg.write_text(text)
        with pytest.raises(DataError, match="line 1"):
            parse_registry(str(reg))


def test_config_registry_and_loader_admit_the_same_formats_and_split_modes(tmp_path):
    choices = {f.metadata["key"]: f.metadata["choices"] for f in fields(RunConfig)}
    assert tuple(choices["data.format"]) == DATA_FORMATS
    assert tuple(choices["data.split"]) == SPLIT_MODES
    reg = tmp_path / "registry.txt"
    reg.write_text("".join(f"t-{fmt}-{mode} {fmt} -1 {mode} d.txt d.txt\n"
                           for fmt in DATA_FORMATS for mode in SPLIT_MODES))
    assert len(parse_registry(str(reg))) == len(DATA_FORMATS) * len(SPLIT_MODES)
    for line in ("t arff -1 random_half d.txt\n", "t csv -1 kfold d.txt\n"):
        reg.write_text(line)
        with pytest.raises(DataError, match="line 1"):
            parse_registry(str(reg))


def test_dataset_rejects_nan():
    with pytest.raises(DataError):
        Dataset(X=np.array([[np.nan, 1.0]]), y=np.array([0]), label_names=["0", "1"])


def test_label_map_shared_rejects_unseen(tmp_path):
    p = write(tmp_path / "d.csv", "1,zebra\n")
    with pytest.raises(DataError):
        load_csv(p, label_names=["cat", "dog"])


_FLOAT = st.floats(allow_nan=False, allow_infinity=False)
_CSV_CELL = st.one_of(
    _FLOAT.map(repr), _FLOAT.map(lambda v: "%.17g" % v), _FLOAT.map(lambda v: "%e" % v),
    st.sampled_from(["1e308", "-1e308", "nan", "inf", "-inf", "1_0", " 2.5 ", "\t-3", '"4.25"', '" 5 "',
                     '"1,5"', '"6\n7"', "", "x", "a", "b"]),
)
# rows of one width, a ragged row, and blank lines; any column may serve as the label
_CSV_TEXT = st.integers(1, 4).flatmap(lambda w: st.lists(st.one_of(
    st.lists(_CSV_CELL, min_size=w, max_size=w).map(",".join),
    st.lists(_CSV_CELL, min_size=w + 1, max_size=w + 1).map(",".join),
    st.sampled_from(["", "  "]),
), max_size=6).map("\n".join))


@given(_CSV_TEXT, st.sampled_from([-1, 0]), st.sampled_from([None, ["a", "b"]]))
@settings(max_examples=120, deadline=None)
def test_load_csv_matches_the_per_cell_float_oracle(text, label_column, label_names):
    # the one numpy cast gives float()'s bits, or the error the per-cell loader raised first
    with tempfile.TemporaryDirectory() as tmp:
        path = write(Path(tmp, "d.csv"), text)
        try:
            want = load_csv_oracle(path, label_column, label_names)
        except DataError as exc:
            with pytest.raises(type(exc)) as got:
                load_csv(path, label_column, label_names)
            assert str(got.value) == str(exc)
            return
        data = load_csv(path, label_column, label_names)
    assert np.array_equal(data.X.view(np.uint64), want.X.view(np.uint64))
    assert np.array_equal(data.y, want.y)
    assert (data.class_count, data.label_names) == (want.class_count, want.label_names)
