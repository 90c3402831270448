import os
import re
import tempfile
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import assert_valid_kernel, kernel_from_csv_text, training_log_from_csv_text

from rffnet import cli
from rffnet.dataio import save_csv
from rffnet.errors import ParameterError
from rffnet.network import load_network, save_network
from rffnet.tasks import two_blobs


def run_cli(*argv):
    return cli.main(list(argv))


@pytest.fixture()
def blob_csv(tmp_path):
    data = two_blobs(60, seed=1, separation=6.0)
    path = tmp_path / "blobs.csv"
    save_csv(data, path)
    return str(path)


def train_args(out, *extra):
    return ["train", "--task", "monks1", "--epochs", "5", "--batch-size", "16",
            "--trials", "1", "--seed", "0", "--out", str(out), *extra]


def test_train_writes_all_artifacts(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*train_args(out)) == 0
    for name in ("config.txt", "model-trial0.bin", "log-trial0.csv", "metrics.csv", "summary.csv"):
        assert (out / name).exists(), name
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0] == "dataset,layers,D,trials,mean_acc,std_acc"
    assert summary[1].startswith("monks1,2,64/64,1,")


def test_train_deterministic_metrics(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(*train_args(out1)) == 0
    assert run_cli(*train_args(out2)) == 0
    assert (out1 / "metrics.csv").read_bytes() == (out2 / "metrics.csv").read_bytes()
    assert (out1 / "summary.csv").read_bytes() == (out2 / "summary.csv").read_bytes()
    assert (out1 / "log-trial0.csv").read_bytes() == (out2 / "log-trial0.csv").read_bytes()
    assert (out1 / "model-trial0.bin").read_bytes() == (out2 / "model-trial0.bin").read_bytes()


@pytest.mark.parametrize("task", ["monks1", "monks2", "monks3"])
def test_builtin_monks_trains_the_registry_files_bytes(tmp_path, monkeypatch, task):
    # from a directory without data/registry.txt the task falls back to its generator,
    # whose labels must be coded as the registry's CSV loader codes them
    registry = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "data", "registry.txt")
    monkeypatch.chdir(tmp_path)
    argv = ["train", "--task", task, "--trials", "1", "--epochs", "5"]
    assert run_cli(*argv, "--out", "builtin") == 0
    assert run_cli(*argv, "--registry", registry, "--out", "registry") == 0
    for name in ("metrics.csv", "summary.csv", "log-trial0.csv", "model-trial0.bin"):
        assert (tmp_path / "builtin" / name).read_bytes() == (tmp_path / "registry" / name).read_bytes(), name


def test_train_zero_epochs_still_evaluates(tmp_path):
    out = tmp_path / "run"
    code = run_cli("train", "--task", "monks1", "--epochs", "0", "--trials", "1",
                   "--out", str(out))
    assert code == 0
    metrics = (out / "metrics.csv").read_text().splitlines()
    assert len(metrics) == 2  # header + one trial row
    log = training_log_from_csv_text((out / "log-trial0.csv").read_text())
    assert log.records == []


def test_train_multi_trial_seeds(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*train_args(out, "--trials", "3")) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    seeds = [int(r.split(",")[1]) for r in rows]
    assert seeds == [0, 1, 2]
    assert (out / "model-trial2.bin").exists()


def test_train_with_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "data.task = monks1\n"
        "train.epochs = 5\n"
        "train.batch_size = 16\n"
        "model.dim = 8\n"
        "# comment\n"
    )
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--out", str(out), "--dim", "4") == 0
    assert "model.dim = 4" in (out / "config.txt").read_text()
    summary = (out / "summary.csv").read_text()
    assert "monks1,2,4/4," in summary


def test_registry_random_half_task_per_trial_splits(tmp_path, capsys):
    # random-half registry tasks: each trial redraws the half split with its seed
    data = two_blobs(200, seed=2, separation=3.0)
    csv = tmp_path / "blobs.csv"
    save_csv(data, csv)
    reg = tmp_path / "registry.txt"
    reg.write_text("blobtask csv -1 random_half blobs.csv\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"data.task = blobtask\ndata.registry = {reg}\n"
        "train.epochs = 40\ntrain.seed = 7\nmodel.layers = 1\nmodel.dim = 8\n"
    )
    out = tmp_path / "run"
    assert run_cli("train", "--config", str(cfg), "--trials", "2", "--out", str(out)) == 0
    rows = (out / "metrics.csv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert [int(r.split(",")[1]) for r in rows] == [7, 8]
    # eval --config replays trial 0's own half split (split seed = train.seed)
    capsys.readouterr()
    code = run_cli("eval", str(out / "model-trial0.bin"), "--config", str(out / "config.txt"),
                   "--on", "test", "--out", str(tmp_path / "ev"))
    assert code == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    assert abs(printed - float(rows[0].split(",")[2])) < 1e-12


@pytest.mark.parametrize("flags, keys", [
    (["--data-path", "data/monks2-train.csv", "--test-path", "data/monks2-test.csv", "--format", "libsvm"],
     "data.path, data.test_path, data.format"),
    (["--label-column", "99"], "data.label_column"),
    (["--set", "data.split=provided"], "data.split"),
])
def test_train_refuses_a_file_source_beside_a_task(tmp_path, capsys, flags, keys):
    # a task names its own files, format, label column and split: the others would be dropped unread
    out = tmp_path / "run"
    assert run_cli("train", "--task", "monks1", *flags, "--epochs", "1", "--dim", "2", "--out", str(out)) == 1
    assert not out.exists()
    assert capsys.readouterr().err == f"error: data.task 'monks1' names its own data source; drop {keys}\n"


def test_train_csv_data_path(tmp_path, blob_csv):
    out = tmp_path / "run"
    code = run_cli("train", "--data-path", blob_csv, "--epochs", "20", "--trials", "1",
                   "--layers", "1", "--dim", "8", "--out", str(out))
    assert code == 0
    assert (out / "summary.csv").exists()


def test_train_unknown_task_is_data_error(tmp_path):
    assert run_cli("train", "--task", "nosuch", "--out", str(tmp_path / "r")) == 2


def test_train_bad_config_key_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("data.tsak = monks1\n")
    assert run_cli("train", "--config", str(cfg), "--out", str(tmp_path / "r")) == 1
    assert not (tmp_path / "r").exists()  # no partial output on config failure


def test_train_bad_loss_flag_is_usage_error(tmp_path):
    assert run_cli("train", "--task", "monks1", "--loss", "absolute",
                   "--out", str(tmp_path / "r")) == 1


def test_train_bad_set_value_is_usage_error(tmp_path):
    assert run_cli("train", "--task", "monks1", "--set", "train.seed=abc",
                   "--out", str(tmp_path / "r")) == 1
    assert run_cli("train", "--task", "monks1", "--layers", "x",
                   "--out", str(tmp_path / "r")) == 1


def test_train_on_one_class_is_a_data_error_before_any_output(tmp_path, capsys):
    data = tmp_path / "one.csv"
    data.write_text("1,2,a\n3,4,a\n5,6,a\n7,8,a\n")
    out = tmp_path / "r"
    assert run_cli("train", "--data-path", str(data), "--epochs", "1", "--out", str(out)) == 2
    assert not out.exists()
    assert capsys.readouterr().err == "data error: one: need at least 2 classes, got 1\n"


def test_train_mismatched_dims_no_partial_output(tmp_path):
    out = tmp_path / "r"
    assert run_cli("train", "--task", "monks1", "--dim", "8,8,8",
                   "--out", str(out)) == 1  # 3 widths for the 2-layer default
    assert not out.exists()


def test_eval_matches_final_train_accuracy(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(*train_args(out, "--epochs", "30")) == 0
    log = training_log_from_csv_text((out / "log-trial0.csv").read_text())
    final_train_acc = log.records[-1].train_acc
    capsys.readouterr()
    code = run_cli("eval", str(out / "model-trial0.bin"), "--task", "monks1",
                   "--on", "train", "--out", str(tmp_path / "eval"))
    assert code == 0
    printed = float(capsys.readouterr().out.strip())
    assert abs(printed - final_train_acc) < 1e-12


def test_eval_confusion_matrix_row_sums(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*train_args(out, "--epochs", "20")) == 0
    ev = tmp_path / "eval"
    assert run_cli("eval", str(out / "model-trial0.bin"), "--task", "monks1",
                   "--out", str(ev)) == 0
    lines = (ev / "confusion.csv").read_text().splitlines()
    rows = [list(map(int, line.split(",")[1:])) for line in lines[1:]]
    from rffnet.tasks import make_monks
    _, test = make_monks("monks1")
    per_class = np.bincount(test.y, minlength=2)
    assert [sum(r) for r in rows] == per_class.tolist()


def test_eval_dimension_mismatch_names_dims(tmp_path, blob_csv, capsys):
    out = tmp_path / "run"
    assert run_cli(*train_args(out)) == 0
    code = run_cli("eval", str(out / "model-trial0.bin"), "--data-path", blob_csv,
                   "--out", str(tmp_path / "ev"))
    assert code == 2
    err = capsys.readouterr().err
    assert "6" in err and "2" in err


def test_inspect_artifact_count_and_validity(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*train_args(out, "--epochs", "30")) == 0
    ins = tmp_path / "diag"
    code = run_cli("inspect", str(out / "model-trial0.bin"), "--task", "monks1",
                   "--on", "train", "--out", str(ins), "--kpca-dim", "2",
                   "--bins", "10", "--hist-dims", "0,3")
    assert code == 0
    files = sorted(os.listdir(ins))
    assert files == [
        "hist-layer0-dim0.csv", "hist-layer0-dim3.csv",
        "hist-layer1-dim0.csv", "hist-layer1-dim3.csv",
        "kernel-layer0.csv", "kernel-layer1.csv",
        "kpca-layer0.csv", "kpca-layer1.csv",
    ]
    for i in range(2):
        K = kernel_from_csv_text((ins / f"kernel-layer{i}.csv").read_text())
        assert_valid_kernel(K)  # symmetry, PSD, unit diagonal survive the round trip
    hist = (ins / "hist-layer0-dim0.csv").read_text().splitlines()[1:]
    assert sum(int(r.split(",")[2]) for r in hist) == 64


def test_inspect_unknown_layer_is_usage_error(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*train_args(out)) == 0
    code = run_cli("inspect", str(out / "model-trial0.bin"), "--task", "monks1",
                   "--layer", "7", "--out", str(tmp_path / "d"))
    assert code == 1


@pytest.fixture(scope="module")
def monks1_model(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    assert run_cli(*train_args(out)) == 0
    return str(out / "model-trial0.bin")


@pytest.mark.parametrize("flags", [
    ["--bins", "0"],
    ["--hist-dims", "9"],  # layer 0 has 6 inputs
    ["--layer", "1", "--hist-dims", "128"],  # layer 1 has 128
    ["--hist-dims", "0,x"],
    ["--kpca-dim", "3", "--max-samples", "2"],
    ["--max-samples", "-1"],
], ids=" ".join)
def test_inspect_bad_flag_is_usage_error_before_any_file(monks1_model, tmp_path, flags):
    out = tmp_path / "d"
    assert run_cli("inspect", monks1_model, "--task", "monks1", *flags, "--out", str(out)) == 1
    assert not out.exists()


def test_inspect_max_samples_zero_keeps_every_row(monks1_model, tmp_path):
    out = tmp_path / "d"
    assert run_cli("inspect", monks1_model, "--task", "monks1", "--layer", "0",
                   "--max-samples", "0", "--out", str(out)) == 0
    assert len((out / "kpca-layer0.csv").read_text().splitlines()) == 1 + 432  # monks1's test set


def _resaved(model, path, set_omega):
    """model re-saved with set_omega applied to its layer-0 frequencies; every value stays finite."""
    net, stages, names = load_network(model)
    set_omega(net.layers[0].omega)
    save_network(net, path, preprocess=stages, label_names=names)
    return str(path)


def _overflowing(omega):
    omega[...] = 1e308
    omega[::2, 1] = 0.0  # column 1 still bins, so inspect reaches the features


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the finite checks report the overflow, not numpy's warnings
def test_eval_and_inspect_of_an_overflowing_snapshot_exit_3_before_writing(monks1_model, tmp_path, capsys):
    model = _resaved(monks1_model, tmp_path / "big.bin", _overflowing)
    assert run_cli("eval", model, "--task", "monks1", "--out", str(tmp_path / "ev")) == 3
    assert not (tmp_path / "ev").exists()
    err = capsys.readouterr().err
    assert "logits are not finite" in err and err.count("\n") == 1
    out = tmp_path / "in"
    assert run_cli("inspect", model, "--task", "monks1", "--hist-dims", "1", "--out", str(out)) == 3
    assert list(out.iterdir()) == []
    err = capsys.readouterr().err
    assert "layer 0's features are not finite" in err and err.count("\n") == 1


@pytest.mark.parametrize("column", [
    lambda n: np.full(n, 1e15),  # too narrow a range for 20 finite-width bins around it
    lambda n: np.where(np.arange(n) % 2, 1e308, -1e308),  # a range wider than the largest float64
    lambda n: np.full(n, 1e308),
], ids=["constant-1e15", "alternating-1e308", "constant-1e308"])
def test_inspect_of_an_unbinnable_omega_column_exits_3_before_any_file(monks1_model, tmp_path, capsys, column):
    def set_column(omega):
        omega[:, 0] = column(omega.shape[0])
    model = _resaved(monks1_model, tmp_path / "wide.bin", set_column)
    out = tmp_path / "in"
    assert run_cli("inspect", model, "--task", "monks1", "--out", str(out)) == 3
    assert not out.exists()
    assert "omega column 0 cannot be cut into 20 finite-width bins" in capsys.readouterr().err


def test_eval_and_inspect_of_a_provided_split_ignore_split_seed(monks1_model, tmp_path, capsys):
    # monks1 ships its own test set: no split seed can change which rows are scored
    results = []
    for seed in ([], ["--split-seed", "7"]):
        where = tmp_path / (seed[1] if seed else "none")
        for on in ("test", "train"):
            assert run_cli("eval", monks1_model, "--task", "monks1", "--on", on, *seed,
                           "--out", str(where / on)) == 0
        assert run_cli("inspect", monks1_model, "--task", "monks1", "--layer", "0", "--max-samples", "50",
                       *seed, "--out", str(where / "in")) == 0
        printed = capsys.readouterr().out.replace(str(where), "OUT")
        results.append((printed, sorted((str(p.relative_to(where)), p.read_bytes()) for p in where.glob("*/*.csv"))))
    assert results[0] == results[1]
    assert len(results[0][1]) == 5


@pytest.mark.parametrize("flags", [
    ["--spread", "nan"],
    ["--spread", "inf"],
    ["--spread", "-inf"],
    ["--bandwidth", "nan"],
    ["--bandwidth", "inf"],
    ["--bandwidth", "0"],
    ["--bandwidth", "-1"],
    ["--dims", "64,x"],
    ["--dims", ","],
    ["--dims", "-4"],
    ["--dims", "64,0"],
    ["--features", "0"],
    ["--features", "-2"],
    ["--pairs", "0"],
    ["--pairs", "-1"],
], ids=" ".join)
def test_approx_bench_bad_setting_is_usage_error_before_any_output(tmp_path, capsys, flags):
    out = tmp_path / "bench.csv"
    assert run_cli("approx-bench", *flags, "--out", str(out)) == 1
    printed = capsys.readouterr()
    assert printed.out == ""
    assert printed.err.startswith("error: ") and flags[0] in printed.err  # the message names the flag
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the finite check reports the overflow, not numpy's warnings
@pytest.mark.parametrize("flags", [["--spread", "1e308"], ["--bandwidth", "1e-308"]], ids=" ".join)
def test_approx_bench_whose_error_is_not_finite_exits_3_before_any_output(tmp_path, capsys, flags):
    out = tmp_path / "bench.csv"
    assert run_cli("approx-bench", *flags, "--dims", "64", "--out", str(out)) == 3
    printed = capsys.readouterr()
    assert printed.out == ""
    assert re.fullmatch(r"numeric failure: the approximation error at D=64 is not finite: --spread \S+ "
                        r"or --bandwidth \S+ overflows float64\n", printed.err)
    assert not out.exists()


def test_approx_bench_rows_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["approx-bench", "--dims", "64,256,1024", "--pairs", "50", "--seed", "5"]
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()
    lines = out1.read_text().splitlines()
    assert lines[0] == "D,mean_error,max_error"
    assert len(lines) == 4
    means = [float(r.split(",")[1]) for r in lines[1:]]
    assert means[2] < means[0]


def test_approx_bench_zero_spread_zero_error(tmp_path):
    out = tmp_path / "z.csv"
    assert run_cli("approx-bench", "--dims", "16,64", "--pairs", "1", "--spread", "0",
                   "--out", str(out)) == 0
    for row in out.read_text().splitlines()[1:]:
        assert float(row.split(",")[2]) < 1e-12


def test_missing_model_file_is_data_error(tmp_path):
    assert run_cli("eval", str(tmp_path / "nope.bin"), "--task", "monks1") == 2


def test_eval_truncated_model_is_data_error(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(*train_args(out)) == 0
    model = out / "model-trial0.bin"
    model.write_bytes(model.read_bytes()[:-16])
    capsys.readouterr()
    assert run_cli("eval", str(model), "--task", "monks1") == 2
    assert "snapshot truncated" in capsys.readouterr().err


def test_eval_and_inspect_of_layers_that_do_not_chain_exit_2_naming_the_snapshot(tmp_path, capsys):
    # a v1 header stores layer 1's d_in, and layer 1 reads layer 0's 2D = 8 outputs. An entry
    # that does not chain, even one that describes as many values, is named before its values
    # are read, and the snapshot fails to load before any file is written
    v1 = (Path(__file__).parent / "data" / "blobs-bn-v1.bin").read_bytes()
    entry = b'{"D": 3, "batchnorm": {"epsilon": 1e-05, "momentum": 0.1}, "d_in": 8}'
    assert v1.count(entry) == 1
    model = tmp_path / "model.bin"
    model.write_bytes(v1.replace(entry, entry.replace(b'"D": 3', b'"D": 4').replace(b'"d_in": 8', b'"d_in": 3')))
    for command in ("eval", "inspect"):
        out = tmp_path / command
        capsys.readouterr()
        assert run_cli(command, str(model), "--task", "blobs", "--out", str(out)) == 2
        assert capsys.readouterr().err == (f"data error: {model}: layer 1 states d_in 3, "
                                           f"but the layer below it has 8 outputs\n")
        assert not out.exists()


def test_eval_reuses_run_config_for_data(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli(*train_args(out, "--epochs", "20")) == 0
    capsys.readouterr()
    code = run_cli("eval", str(out / "model-trial0.bin"),
                   "--config", str(out / "config.txt"), "--out", str(tmp_path / "ev"))
    assert code == 0
    printed = float(capsys.readouterr().out.strip().splitlines()[-1])
    metrics_acc = float((out / "metrics.csv").read_text().splitlines()[1].split(",")[2])
    assert abs(printed - metrics_acc) < 1e-12


def test_eval_data_path_overrides_config_test_file(tmp_path, capsys):
    # the run trained on a provided split; --data-path must replace its test file too
    save_csv(two_blobs(40, seed=2), tmp_path / "train.csv")
    save_csv(two_blobs(20, seed=3), tmp_path / "test.csv")
    save_csv(two_blobs(10, seed=4), tmp_path / "other.csv")
    out = tmp_path / "run"
    assert run_cli("train", "--data-path", str(tmp_path / "train.csv"), "--test-path", str(tmp_path / "test.csv"),
                   "--epochs", "2", "--out", str(out)) == 0
    ev = tmp_path / "ev"
    assert run_cli("eval", str(out / "model-trial0.bin"), "--config", str(out / "config.txt"),
                   "--data-path", str(tmp_path / "other.csv"), "--out", str(ev)) == 0
    rows = [list(map(int, line.split(",")[1:])) for line in (ev / "confusion.csv").read_text().splitlines()[1:]]
    assert sum(map(sum, rows)) == 10


def test_eval_config_replays_the_random_half_of_its_own_data_path(tmp_path, blob_csv, capsys):
    # only a given --data-path is scored whole; the run's own data.path is split as in training
    out = tmp_path / "run"
    assert run_cli("train", "--data-path", blob_csv, "--epochs", "3", "--layers", "1", "--dim", "8",
                   "--out", str(out)) == 0
    capsys.readouterr()
    assert run_cli("eval", str(out / "model-trial0.bin"), "--config", str(out / "config.txt"),
                   "--out", str(tmp_path / "ev")) == 0
    printed = float(capsys.readouterr().out)
    assert abs(printed - float((out / "metrics.csv").read_text().splitlines()[1].split(",")[2])) < 1e-12
    rows = (tmp_path / "ev" / "confusion.csv").read_text().splitlines()[1:]
    assert sum(int(v) for row in rows for v in row.split(",")[1:]) == 30  # the test half of 60 rows


def test_eval_and_inspect_recode_labels_onto_the_snapshot_by_name(tmp_path, capsys):
    # "orig" and "flipped" hold the same rows, but flipped's training file starts with
    # the other class, so that source codes the two labels the other way round
    save_csv(two_blobs(40, seed=2, separation=6.0), tmp_path / "train.csv")
    save_csv(two_blobs(30, seed=3, separation=6.0), tmp_path / "test.csv")
    rows = (tmp_path / "train.csv").read_text().splitlines()
    first_label = rows[0].rsplit(",", 1)[1]
    rows.sort(key=lambda row: row.rsplit(",", 1)[1] == first_label)
    (tmp_path / "flipped.csv").write_text("\n".join(rows) + "\n")
    blobs = two_blobs(20, seed=4)
    save_csv(replace(blobs, y=np.where(np.arange(20) < 3, 2, blobs.y), label_names=["0", "1", "2"]),
             tmp_path / "three.csv")
    registry = tmp_path / "registry.txt"
    registry.write_text("orig csv -1 provided train.csv test.csv\n"
                        "flipped csv -1 provided flipped.csv test.csv\n"
                        "three csv -1 random_half three.csv\n")
    out = tmp_path / "run"
    assert run_cli("train", "--task", "orig", "--registry", str(registry), "--epochs", "30",
                   "--layers", "1", "--dim", "8", "--out", str(out)) == 0
    model = str(out / "model-trial0.bin")
    results = []
    for task in ("orig", "flipped"):
        capsys.readouterr()
        source = ["--task", task, "--registry", str(registry)]
        assert run_cli("eval", model, *source, "--out", str(tmp_path / "ev" / task)) == 0
        acc = capsys.readouterr().out
        assert run_cli("inspect", model, *source, "--out", str(tmp_path / "in" / task)) == 0
        results.append((acc, (tmp_path / "ev" / task / "confusion.csv").read_bytes(),
                        (tmp_path / "in" / task / "kpca-layer0.csv").read_bytes()))
    assert results[0] == results[1]
    assert float(results[0][0]) > 0.9
    # a label the snapshot does not know is a data error, for every source
    capsys.readouterr()
    for source in (["--task", "three", "--registry", str(registry), "--on", "train"],
                   ["--data-path", str(tmp_path / "three.csv")]):
        assert run_cli("eval", model, *source, "--out", str(tmp_path / "ev3")) == 2
        assert "'2'" in capsys.readouterr().err


def test_run_training_sets_every_train_config_field(tmp_path, monkeypatch):
    # a TrainConfig field that no train key reaches is a knob no command can turn
    real_fit, configs = cli.fit, []
    monkeypatch.setattr(cli, "fit", lambda net, X, y, config: configs.append(config) or real_fit(net, X, y, config))
    cfg = cli.RunConfig(task="monks1", epochs="1", batch_size="16", lr=0.01, reg_lambda=0.5, beta1=0.8,
                        beta2=0.99, epsilon=1e-6, seed=5, trials=2, shuffle=False, out=str(tmp_path / "run"))
    assert all(getattr(cfg, f.name) != f.default for f in fields(cfg) if f.metadata["key"].startswith("train."))
    cli.run_training(cfg)
    assert len(configs) == 2
    for config in configs:
        assert [f.name for f in fields(config) if getattr(config, f.name) == f.default] == []


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the finite check reports the blow-up, not numpy's warnings
def test_numeric_blowup_exits_3_without_snapshot(tmp_path, capsys):
    out = tmp_path / "run"
    code = run_cli("train", "--task", "monks1", "--epochs", "3", "--batch-size", "16",
                   "--lr", "1e308", "--trials", "1", "--out", str(out))
    assert code == 3
    assert not (out / "model-trial0.bin").exists()
    assert re.fullmatch(r"numeric failure: non-finite parameter after epoch \d+\n", capsys.readouterr().err)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the finite check reports the overflow, not numpy's warnings
def test_initial_parameters_that_overflow_exit_3_without_snapshot(tmp_path, capsys):
    out = tmp_path / "run"
    assert run_cli("train", "--task", "monks1", "--epochs", "0", "--dim", "2",
                   "--set", "model.omega_stddev=1e308", "--out", str(out)) == 3
    assert not (out / "model-trial0.bin").exists()
    assert capsys.readouterr().err == ("numeric failure: the initial parameters are not finite: model.omega_stddev = "
                                       "1e+308 or model.readout_stddev = 0.1 overflows float64\n")


@pytest.mark.parametrize("argv", [
    ["train", "--set", "train.beta1=1"],
    ["train", "--set", "train.beta2=1"],
    ["train", "--set", "train.beta1=-0.5"],
    ["train", "--reg-lambda=-1e308"],
    ["train", "--reg-lambda=inf"],
    ["train", "--lr=-1"],
    ["train", "--lr=0"],
    ["train", "--lr=nan"],
    ["train", "--lr=inf"],
    ["train", "--set", "train.epsilon=0"],
    ["train", "--set", "train.epsilon=-1"],
    ["train", "--set", "train.epsilon=nan"],
    ["train", "--set", "data.split=bogus"],
    ["train", "--set", "model.loss=bogus"],
    ["train", "--dim", "0"],
    ["train", "--dim", "64,0"],
    ["train", "--batch-size", "0"],
    ["train", "--set", "model.omega_stddev=0"],
    ["train", "--set", "model.omega_stddev=nan"],
    ["train", "--set", "model.readout_stddev=-1"],
    ["train", "--set", "train.trials=0"],
    ["train", "--layers", "none"],
])
def test_out_of_range_adam_or_l2_setting_is_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "run"
    assert run_cli(*argv, "--task", "monks1", "--epochs", "1", "--out", str(out)) == 1
    setting = (argv[2] if argv[1] == "--set" else argv[1]).split("=")[0]  # a key, or the flag of one
    assert FLAG_KEYS.get(setting, setting) in capsys.readouterr().err
    assert not out.exists()


# feature column 0 is constant; column 1 holds values whose scaling overflows
@pytest.mark.parametrize("train_text, test_text, normalize, what", [
    ("0,1e308,0\n0,-1e308,1\n", "0,0,0\n0,1,1\n", "minmax+whiten", "range"),
    ("0,1e200,0\n0,-1e200,1\n", "0,0,0\n0,1,1\n", "whiten", "standard deviation"),
    ("0,0,0\n0,0,1\n0,1e-300,0\n", "0,0,0\n0,1e308,1\n", "minmax", "scaled value"),
], ids=["range", "std", "scaled"])
def test_normalization_overflow_is_a_data_error_naming_the_column(tmp_path, capsys, train_text, test_text,
                                                                  normalize, what):
    (tmp_path / "d.csv").write_text(train_text)
    (tmp_path / "t.csv").write_text(test_text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy overflow warning would end the command here
        code = run_cli("train", "--data-path", str(tmp_path / "d.csv"), "--test-path", str(tmp_path / "t.csv"),
                       "--normalize", normalize, "--epochs", "0", "--out", str(tmp_path / "run"))
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"data error: normalization overflowed: the {what} of feature column 1 is not finite\n"


def test_a_bad_line_in_the_test_file_is_a_data_error_naming_that_file(tmp_path, blob_csv, capsys):
    test = tmp_path / "test.csv"
    test.write_text("1.0,2.0,0\nx,2.0,1\n")
    assert run_cli("train", "--data-path", blob_csv, "--test-path", str(test), "--data-split", "provided",
                   "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == f"data error: {test} line 2: non-numeric feature value 'x' in column 0\n"
    assert not (tmp_path / "run").exists()


def test_normalize_none_is_a_scheme_not_a_missing_value(tmp_path):
    out = tmp_path / "run"
    assert run_cli(*train_args(out, "--normalize", "none")) == 0
    assert "data.normalize = none\n" in (out / "config.txt").read_text()


# the fuzzed files: clean numeric tables, which train, and tables with extremes,
# non-numbers, empty cells or ragged rows, which must be rejected cleanly
_NUMBER = st.sampled_from(["0", "1", "2.5", "-1"])
_EXTREME = st.one_of(_NUMBER, st.sampled_from(["1e308", "-1e308"]))  # numbers whose scaling may overflow
_CELL = st.one_of(_EXTREME, st.sampled_from(["nan", "inf", "", " ", "x", "1:2"]))


def _lines(line, min_size=0):
    return st.lists(line, min_size=min_size, max_size=8).map("\n".join)


def _csv_row(cell, width):
    return st.lists(cell, min_size=width, max_size=width).map(",".join)


def _svm_line(label, items):
    return st.tuples(label, items).map(lambda t: " ".join([t[0], *t[1]]))


_FILE = st.one_of(
    st.integers(2, 4).flatmap(lambda w: _lines(_csv_row(_NUMBER, w), min_size=3)),
    st.integers(2, 4).flatmap(lambda w: _lines(_csv_row(_EXTREME, w), min_size=3)),
    # libsvm indices stay small: the largest index sets the feature width
    _lines(_svm_line(_NUMBER, st.lists(_NUMBER, min_size=1, max_size=3).map(
        lambda vs: [f"{i}:{v}" for i, v in enumerate(vs, start=1)])), min_size=3),
    st.integers(1, 4).flatmap(lambda w: _lines(_csv_row(_CELL, w))),
    _lines(st.integers(1, 4).flatmap(lambda w: _csv_row(_CELL, w))),
    _lines(_svm_line(_CELL, st.lists(st.tuples(st.sampled_from(["1", "2", "3", "0", "-1", "x", ""]), _CELL).map(
        ":".join), max_size=3))),
)
# a valid registry line reaches the data files; a fuzzed one mostly stops at the registry
_VALID_LINE = st.tuples(st.sampled_from(["csv -1", "libsvm -"]), st.sampled_from(["random_half", "provided"])).map(
    lambda f: f"{f[0]} {f[1]} d t")
_FUZZED_LINE = st.tuples(
    st.sampled_from(["csv", "libsvm", "arff"]),
    st.sampled_from(["-1", "0", "-", "x", "1.5", "-9", "99"]),
    st.sampled_from(["random_half", "provided", "kfold"]),
    st.sampled_from(["d", "missing", "d\x00"]),
    st.sampled_from([" t", "", " missing"]),
).map(lambda f: "{} {} {} {}{}".format(*f))


@given(st.one_of(_VALID_LINE, _FUZZED_LINE), _FILE, _FILE, st.booleans())
@example("csv -1 provided d t", "1e308,0\n-1e308,1\n0,0", "0,0\n1,1\n0,1", True)  # normalization overflows
@settings(max_examples=100, deadline=None)
def test_train_on_fuzzed_registry_and_data_files_exits_with_a_documented_code(line, data, test, bn):
    # every input is read from disk and must load or fail with exit 1, 2 or 3, never a traceback;
    # the model size and epoch count are fixed, so no example allocates more than the files ask for
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "d").write_text(data)
        Path(tmp, "t").write_text(test)
        Path(tmp, "registry.txt").write_text(f"t {line}\n")
        code = cli.main(["train", "--task", "t", "--registry", os.path.join(tmp, "registry.txt"),
                         "--epochs", "0", "--layers", "1", "--dim", "2",
                         "--batch-norm" if bn else "--no-batch-norm", "--out", os.path.join(tmp, "run")])
    assert code in (0, 1, 2, 3)


# config lines: raw bytes, or a key of the table (or not) with a value that is valid for some key;
# no value asks for more than 2 trials, and --epochs, --layers, --dim and --out override the file
_CONFIG_VALUES = ["monks1", "blobs", "none", "", "0", "1", "-1", "2", "0.5", "nan", "inf", "1e308", "true",
                  "off", "x", "full", "auto", "minmax", "provided", "libsvm", "squared", "é", "a\x00b", " 1 "]
_CONFIG_LINE = st.one_of(
    st.binary(max_size=20),
    st.tuples(st.sampled_from([*sorted(f.metadata["key"] for f in fields(cli.RunConfig)), "bogus", ""]),
              st.sampled_from(["=", " = ", "==", ": "]), st.sampled_from(_CONFIG_VALUES),
              st.sampled_from(["", " # note", "\r"])).map(lambda t: "".join(t).encode()),
)


@given(st.lists(_CONFIG_LINE, max_size=6).map(b"\n".join), st.booleans())
@example(b"data.path = a\x00b", False)
@example(b"data.registry = r\x00", True)
@example(b"out = a\x00b", True)
@example(b"model.omega_stddev = 1e308", True)  # the initial parameters overflow: exit 3
@settings(max_examples=100, deadline=None)
def test_fuzzed_config_file_bytes_exit_with_a_documented_code(text, with_task):
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp, "config.txt")
        config.write_bytes((b"data.task = monks1\n" if with_task else b"") + text)
        try:
            assert isinstance(cli.load_config_file(config), cli.RunConfig)
        except ParameterError:
            pass
        code = cli.main(["train", "--config", str(config), "--epochs", "0", "--layers", "1", "--dim", "2",
                         "--out", os.path.join(tmp, "run")])
    assert code in (0, 1, 2, 3)


@pytest.mark.parametrize("case, code", [
    ("data_path_is_dir", 2), ("model_is_dir", 2), ("out_is_file", 2),
    ("config_not_utf8", 1), ("registry_not_utf8", 2), ("csv_not_utf8", 2),
])
def test_unreadable_or_undecodable_file_exits_naming_it(tmp_path, capsys, case, code):
    bad = tmp_path / "bad"
    if case.endswith("_dir"):
        bad.mkdir()
    else:
        bad.write_bytes(b"\xff\xfe1,2,0\n")
    argv = {
        "data_path_is_dir": ["train", "--data-path", str(bad)],
        "model_is_dir": ["eval", str(bad), "--task", "monks1"],
        "out_is_file": ["train", "--task", "monks1", "--epochs", "1", "--out", str(bad)],
        "config_not_utf8": ["train", "--config", str(bad)],
        "registry_not_utf8": ["train", "--task", "monks1", "--registry", str(bad)],
        "csv_not_utf8": ["train", "--data-path", str(bad)],
    }[case]
    assert run_cli(*argv) == code
    assert str(bad) in capsys.readouterr().err


def test_usage_error_exit_code(capsys):
    assert run_cli("train", "--no-such-flag") == 1
    assert run_cli() == 1
    assert run_cli("nope") == 1
    assert "invalid choice: 'nope'" in capsys.readouterr().err


def _subparser(parser, command):
    return next(a for a in parser._actions if a.dest == "command").choices[command]


def _actions(parser):
    return [(a.option_strings, a.dest, a.choices, a.type, a.default, a.nargs, a.help) for a in parser._actions]


@pytest.mark.parametrize("command", ["train", "eval", "inspect", "approx-bench"])
def test_a_command_parser_has_the_full_parsers_actions_and_help(command, capsys):
    full = cli.build_parser()
    own = _subparser(cli.build_parser(command), command)
    assert _actions(own) == _actions(_subparser(full, command))
    assert own._defaults == _subparser(full, command)._defaults
    # main builds the command's own parser; its help and the top-level help read as the full parser's
    for argv, want in (([command, "--help"], _subparser(full, command)), (["--help"], full)):
        with pytest.raises(SystemExit) as stop:
            run_cli(*argv)
        assert stop.value.code == 0
        assert capsys.readouterr().out == want.format_help()


def test_libsvm_test_file_wider_than_training_is_data_error(tmp_path, capsys):
    (tmp_path / "tr.svm").write_text("1 1:0.5 2:1.0\n-1 1:1.5\n1 2:0.3\n-1 1:0.2 2:0.1\n")
    (tmp_path / "te.svm").write_text("1 1:0.1 3:0.4\n-1 2:0.2\n")
    (tmp_path / "registry.txt").write_text("svm libsvm - provided tr.svm te.svm\n")
    for source in (["--data-path", str(tmp_path / "tr.svm"), "--format", "libsvm",
                    "--test-path", str(tmp_path / "te.svm")],
                   ["--task", "svm", "--registry", str(tmp_path / "registry.txt")]):
        capsys.readouterr()
        assert run_cli("train", *source, "--epochs", "1", "--out", str(tmp_path / "run")) == 2
        err = capsys.readouterr().err
        assert "has 3 features" in err and "has 2" in err


def test_eval_and_inspect_keep_the_config_label_column_under_data_path(tmp_path, capsys):
    # a data flag overrides --config only when given: --data-path alone keeps data.label_column
    blobs = two_blobs(40, seed=2, separation=6.0)
    rows = [f"{'ab'[label]},{float(x0)!r},{float(x1)!r}" for (x0, x1), label in zip(blobs.X, blobs.y)]
    data = tmp_path / "label-first.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "run"
    assert run_cli("train", "--data-path", str(data), "--label-column", "0", "--epochs", "5",
                   "--layers", "1", "--dim", "8", "--out", str(out)) == 0
    model = str(out / "model-trial0.bin")
    results = []
    for source in (["--config", str(out / "config.txt")], ["--label-column", "0"]):
        capsys.readouterr()
        where = tmp_path / source[0].strip("-")
        assert run_cli("eval", model, *source, "--data-path", str(data), "--out", str(where / "ev")) == 0
        acc = capsys.readouterr().out
        assert run_cli("inspect", model, *source, "--data-path", str(data), "--out", str(where / "in")) == 0
        results.append((acc, (where / "ev" / "confusion.csv").read_bytes(),
                        (where / "in" / "kpca-layer0.csv").read_bytes()))
    assert results[0] == results[1]
    assert sum(int(v) for line in results[0][1].decode().splitlines()[1:] for v in line.split(",")[1:]) == 40


def test_eval_and_inspect_config_split_ignores_their_own_seed_and_out(tmp_path, capsys):
    # inspect's --seed (subsampling) and eval/inspect's --out share names with train.seed and
    # out; the config's split seed must still decide which half is scored
    out = tmp_path / "run"
    assert run_cli("train", "--task", "blobs", "--seed", "3", "--epochs", "2", "--layers", "1",
                   "--dim", "8", "--out", str(out)) == 0
    model = str(out / "model-trial0.bin")
    results = []
    for source in (["--config", str(out / "config.txt")], ["--task", "blobs", "--split-seed", "3"]):
        capsys.readouterr()
        where = tmp_path / source[0].strip("-")
        assert run_cli("eval", model, *source, "--out", str(where / "ev")) == 0
        acc = capsys.readouterr().out
        assert run_cli("inspect", model, *source, "--max-samples", "50", "--out", str(where / "in")) == 0
        results.append((acc, sorted((p.name, p.read_bytes()) for p in where.glob("*/*.csv"))))
    assert results[0] == results[1]
    assert len(results[0][1]) == 4


def test_eval_pads_sparse_libsvm_to_model_width(tmp_path, capsys):
    (tmp_path / "tr.svm").write_text("1 1:0.5 2:1.0\n-1 1:1.5 2:0.2\n1 1:0.3 2:0.9\n-1 1:1.1\n")
    out = tmp_path / "run"
    assert run_cli("train", "--data-path", str(tmp_path / "tr.svm"), "--format", "libsvm",
                   "--epochs", "2", "--out", str(out)) == 0
    # the highest index is 1 of the model's 2: libsvm leaves trailing zeros out
    (tmp_path / "sparse.svm").write_text("1 1:0.4\n-1 1:1.2\n")
    (tmp_path / "dense.svm").write_text("1 1:0.4 2:0\n-1 1:1.2 2:0\n")
    results = []
    for name in ("sparse", "dense"):
        capsys.readouterr()
        assert run_cli("eval", str(out / "model-trial0.bin"), "--data-path", str(tmp_path / f"{name}.svm"),
                       "--format", "libsvm", "--out", str(tmp_path / name)) == 0
        results.append((capsys.readouterr().out, (tmp_path / name / "confusion.csv").read_bytes()))
    assert results[0] == results[1]


# `rffnet train`'s options as (option strings, dest, choices, type), and the config
# key each per-key flag sets, as they were before the flags were derived from RunConfig
TRAIN_OPTIONS = [
    (["-h", "--help"], "help", None, None),
    (["--config"], "config", None, None),
    (["--task"], "task", None, None),
    (["--registry"], "registry", None, None),
    (["--data-path"], "data_path", None, None),
    (["--format"], "format", ["csv", "libsvm"], None),
    (["--label-column"], "label_column", None, int),
    (["--test-path"], "test_path", None, None),
    (["--data-split"], "data_split", ["provided", "random_half"], None),
    (["--normalize"], "normalize", ("none", "minmax", "whiten", "minmax+whiten"), None),
    (["--layers"], "layers", None, None),
    (["--dim"], "dim", None, None),
    (["--loss"], "loss", ["auto", "squared", "squared_hinge", "cross_entropy"], None),
    (["--epochs"], "epochs", None, None),
    (["--batch-size"], "batch_size", None, None),
    (["--lr"], "lr", None, float),
    (["--reg-lambda"], "reg_lambda", None, float),
    (["--seed"], "seed", None, int),
    (["--trials"], "trials", None, int),
    (["--out"], "out", None, None),
    (["--batch-norm"], "batch_norm", None, None),
    (["--no-batch-norm"], "batch_norm", None, None),
    (["--set"], "set", None, None),
]
FLAG_KEYS = {
    "--task": "data.task", "--data-path": "data.path", "--format": "data.format",
    "--label-column": "data.label_column", "--test-path": "data.test_path",
    "--data-split": "data.split", "--normalize": "data.normalize", "--registry": "data.registry",
    "--layers": "model.layers", "--dim": "model.dim", "--loss": "model.loss",
    "--epochs": "train.epochs", "--batch-size": "train.batch_size", "--lr": "train.lr",
    "--reg-lambda": "train.lambda", "--seed": "train.seed", "--trials": "train.trials",
    "--out": "out",
}


def test_config_table_pins_keys_flags_and_readme(tmp_path):
    table = fields(cli.RunConfig)
    keys = [f.metadata["key"] for f in table]
    assert len(keys) == len(set(keys)) == 25
    # every key, moved off its default, round-trips config.txt and --set
    cfg = cli.RunConfig(task="t", registry="r.txt", path="p.svm", fmt="libsvm", label_column=2,
                        test_path="q.svm", split_mode="provided", normalize="whiten", layers="3",
                        dim="8,4,2", batch_norm=False, loss="squared", omega_stddev=0.25,
                        readout_stddev=0.5, epochs="7", batch_size="full", lr=0.01, reg_lambda=0.5,
                        beta1=0.8, beta2=0.99, epsilon=1e-6, seed=5, trials=2, shuffle=False, out="o")
    assert all(getattr(cfg, f.name) != f.default for f in table)
    text = cli.config_to_text(cfg)
    (tmp_path / "config.txt").write_text(text)
    assert cli.load_config_file(tmp_path / "config.txt") == cfg
    parser = cli.build_parser()
    sets = [arg for line in text.splitlines() for arg in ("--set", line.replace(" = ", "=", 1))]
    assert cli._config_from_args(parser.parse_args(["train", *sets])) == cfg
    # the train flags: same options, choices and types, each setting the same key
    commands = next(a for a in parser._actions if a.dest == "command").choices
    assert [(a.option_strings, a.dest, a.choices, a.type) for a in commands["train"]._actions] == TRAIN_OPTIONS
    assert {f.metadata["flag"]: f.metadata["key"] for f in table if f.metadata["flag"]} == FLAG_KEYS
    # eval and inspect take --task .. --label-column from the same rows, between --config and --on
    for command in ("eval", "inspect"):
        options = [(a.option_strings, a.dest, a.choices, a.type) for a in commands[command]._actions]
        assert [o[0] for o in options[:3]] == [["-h", "--help"], [], ["--config"]]
        assert options[3:8] == TRAIN_OPTIONS[2:7]
        assert options[8][0] == ["--on"]
    # README's table of config keys lists every key with its default and flag
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = re.findall(r"^\| `([a-z_.0-9]+)` \| `([^`]*)` \| (.*) \|$", readme, re.M)
    defaults = dict(line.split(" = ", 1) for line in cli.config_to_text(cli.RunConfig()).splitlines())
    flags = {f.metadata["key"]: f"`{f.metadata['flag']}`" if f.metadata["flag"] else "" for f in table}
    flags["model.batch_norm"] = "`--batch-norm` / `--no-batch-norm`"
    assert {key: (default, flag) for key, default, flag in rows} == \
        {key: (defaults[key], flags[key]) for key in keys}
