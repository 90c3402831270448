"""Command-line entry point: train / eval / inspect / approx-bench.

Run configs are flat dotted-key text files (e.g. ``model.layers = 2``); command
line flags override file values. Every run directory is self-describing: the
resolved config, seeds, metrics, and logs are enough to replay it exactly.

Exit codes: 0 success, and one per error class: 1 ParameterError (usage or
config), 2 DataError (also a file that cannot be read or decoded), 3
NumericError. Every command runs with numpy's floating-point warnings off, so a
failure is reported once, by the finite check that catches it, and with numpy's
bundled OpenBLAS on one thread, so its bytes do not depend on the thread count.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import functools
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import dataio, kernel_analysis, tasks
from .dataio import Dataset, apply_stages, preprocess_pair, split
from .errors import DataError, NumericError, ParameterError
from .kernel_analysis import SpectralDensity, empirical_kernel, kpca_project, omega_histogram, rff_approx_error
from .network import (
    LOSS_KINDS,
    accuracy,
    build_network,
    default_layer_count,
    forward_full,
    load_network,
    parameter_count,
    predict_from_logits,
    save_network,
)
from .numerics import Rng
from .optimizer import fit
from .rff_layer import forward

SMALL_DATA_LIMIT = 1000
SMALL_DATA_EPOCHS = 1000
SMALL_DATA_BATCH = 32  # full batch measurably underfits the small UCI tasks
LARGE_DATA_EPOCHS = 300
LARGE_DATA_BATCH = 256


def _key(default, key: str, flag: str | None = None, choices=None, check=None):
    """A RunConfig field: its dotted config key, its flag if it has one, and the values
    it admits, as `choices` or as a `check` pair (predicate, description)."""
    return field(default=default, metadata={"key": key, "flag": flag, "choices": choices, "check": check})


_AT_LEAST_ONE = (lambda v: v >= 1, ">= 1")
_FINITE = (math.isfinite, "finite")
_UNIT_INTERVAL = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_FINITE_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")


def _int_list(text) -> list[int] | None:
    """The integers of a comma list, empty items skipped, or None if an item is no integer."""
    try:
        return [int(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError:
        return None


def _int_at_least(low: int, value) -> bool:
    """Whether int() reads value, as resolve_model does, as an integer >= low."""
    try:
        return int(value) >= low
    except (TypeError, ValueError):
        return False


_LAYER_COUNT = (lambda v: v == "auto" or _int_at_least(1, v), "an integer >= 1 or 'auto'")
_WIDTHS = (lambda v: min(_int_list(v) or [0]) >= 1, "a comma list of integers >= 1")
_EPOCHS = (lambda v: v == "auto" or _int_at_least(0, v), "an integer >= 0 or 'auto'")
_BATCH_SIZE = (lambda v: v == "auto" or str(v).lower() == "full" or _int_at_least(1, v),
               "an integer >= 1, 'full' or 'auto'")


@dataclass
class RunConfig:
    """Every run setting; each field's metadata is its row in the one table of
    config keys, from which the key parser, config.txt, the flags and the value checks follow."""

    # data
    task: str | None = _key(None, "data.task", "--task")
    registry: str = _key("data/registry.txt", "data.registry", "--registry")
    path: str | None = _key(None, "data.path", "--data-path")
    fmt: str = _key("csv", "data.format", "--format", list(dataio.DATA_FORMATS))
    label_column: int = _key(-1, "data.label_column", "--label-column")
    test_path: str | None = _key(None, "data.test_path", "--test-path")
    split_mode: str = _key("random_half", "data.split", "--data-split", list(dataio.SPLIT_MODES))
    normalize: str = _key("minmax+whiten", "data.normalize", "--normalize", dataio.NORMALIZE_SCHEMES)
    # model
    layers: str = _key("auto", "model.layers", "--layers", check=_LAYER_COUNT)
    dim: str = _key("64", "model.dim", "--dim", check=_WIDTHS)
    batch_norm: bool = _key(True, "model.batch_norm", "--batch-norm")
    loss: str = _key("auto", "model.loss", "--loss", ["auto", *LOSS_KINDS])
    omega_stddev: float = _key(0.1, "model.omega_stddev", check=_FINITE_POSITIVE)
    readout_stddev: float = _key(0.1, "model.readout_stddev", check=_FINITE_NONNEGATIVE)
    # training
    epochs: str = _key("auto", "train.epochs", "--epochs", check=_EPOCHS)
    batch_size: str = _key("auto", "train.batch_size", "--batch-size", check=_BATCH_SIZE)
    lr: float = _key(1e-3, "train.lr", "--lr", check=_FINITE_POSITIVE)
    reg_lambda: float = _key(1e-4, "train.lambda", "--reg-lambda", check=_FINITE_NONNEGATIVE)
    beta1: float = _key(0.9, "train.beta1", check=_UNIT_INTERVAL)
    beta2: float = _key(0.999, "train.beta2", check=_UNIT_INTERVAL)
    epsilon: float = _key(1e-8, "train.epsilon", check=_FINITE_POSITIVE)
    seed: int = _key(0, "train.seed", "--seed")
    trials: int = _key(1, "train.trials", "--trials", check=_AT_LEAST_ONE)
    shuffle: bool = _key(True, "train.shuffle")
    out: str = _key("runs/run", "out", "--out")


_FIELD_BY_KEY = {f.metadata["key"]: f for f in fields(RunConfig)}
# eval/inspect's data flags; overriding only these keeps their own --seed and --out off train.seed and out
_EVAL_DATA_FIELDS = [_FIELD_BY_KEY[k] for k in ("data.task", "data.registry", "data.path", "data.format", "data.label_column")]
# the keys a task's registry line (its preset) or generator sets for itself
_TASK_SOURCE_FIELDS = [f for name in dataio.TASK_SOURCE_FIELDS for f in fields(RunConfig) if f.name == name]


def _parse_bool(value: str) -> bool:
    low = value.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ParameterError(f"expected a boolean, got {value!r}")


def set_config_key(cfg: RunConfig, key: str, value: str) -> None:
    if key not in _FIELD_BY_KEY:
        raise ParameterError(f"unknown config key {key!r}")
    if any(c in value for c in "\x00\n\r"):  # open() rejects a path holding a NUL; config.txt gives a value one line
        raise ParameterError(f"bad value {value!r} for config key {key!r}: a NUL byte or a line break")
    f = _FIELD_BY_KEY[key]
    ftype = f.type
    value = value.strip()
    try:
        if ftype == "bool":
            parsed = _parse_bool(value)
        elif ftype == "int":
            parsed = int(value)
        elif ftype == "float":
            parsed = float(value)
        else:
            parsed = None if f.default is None and value.lower() == "none" else value
    except ValueError:
        raise ParameterError(f"bad value {value!r} for config key {key!r}") from None
    setattr(cfg, f.name, parsed)


def _set_item(cfg: RunConfig, item: str, where: str) -> None:
    """Set the key of one `key = value` item, a config-file line or a --set value; where, the item's
    source, starts every refusal."""
    key, eq, value = item.partition("=")
    if not eq:
        raise ParameterError(f"{where}: expected 'key = value', got {item.strip()!r}")
    try:
        set_config_key(cfg, key.strip(), value)
    except ParameterError as exc:
        raise ParameterError(f"{where}: {exc}") from None


def load_config_file(path) -> RunConfig:
    """The config of a file of `key = value` lines; a blank line, and one whose first non-blank
    character is '#', is skipped, and a '#' anywhere else is part of the value."""
    cfg = RunConfig()
    try:
        with open(path) as fh:
            lines = fh.readlines()  # split at line breaks alone: a value may hold \x85 or \u2028
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            _set_item(cfg, line.rstrip("\n"), f"{path} line {line_no}")
    return cfg


def _check_widths(widths: list[int], layer_count: int) -> None:
    if len(widths) not in (1, layer_count):
        raise ParameterError(f"model.dim lists {len(widths)} widths for {layer_count} layers")


def _check_batch(batch_norm: bool, rows: int) -> None:
    if batch_norm and rows < 2:
        raise ParameterError(f"model.batch_norm needs batches of at least 2 rows; train.batch_size gives {rows}")


def _check_array_size(values: int, made_by: str) -> None:
    """Refuse, before any work, a setting that makes an array of more than dataio.MAX_DENSE_VALUES values."""
    if values > dataio.MAX_DENSE_VALUES:
        raise ParameterError(f"{made_by} makes an array of {values} values, more than the "
                             f"{dataio.MAX_DENSE_VALUES} an array may hold")


def _check_values(rows) -> None:
    """Raise ParameterError naming the first (name, value, choices, check) row whose value
    is not among its choices or fails its check pair."""
    for name, value, choices, check in rows:
        if choices is not None and value not in choices:
            raise ParameterError(f"{name} must be one of {', '.join(choices)}, got {value!r}")
        if check is not None and not check[0](value):
            raise ParameterError(f"{name} must be {check[1]}, got {value!r}")


def _check_config(cfg: RunConfig) -> None:
    """Raise ParameterError naming the key(s) of the first rule cfg breaks, of every rule that needs no data:
    each row's values, a task beside file-source keys, no data source, a provided split without its test
    file, and an explicit depth or batch size that the widths or batch norm do not fit."""
    _check_values((f.metadata["key"], getattr(cfg, f.name), f.metadata["choices"], f.metadata["check"])
                  for f in fields(cfg))
    clashing = [f.metadata["key"] for f in _TASK_SOURCE_FIELDS if getattr(cfg, f.name) != f.default]
    if cfg.task and clashing:  # the task's own source would replace them unread
        raise ParameterError(f"data.task {cfg.task!r} names its own data source; drop {', '.join(clashing)}")
    if not cfg.task and not cfg.path:
        raise ParameterError("no data source: set data.task or data.path (--task, --data-path, or a --config)")
    if cfg.split_mode == "provided" and not cfg.test_path:
        raise ParameterError("data.split = provided requires data.test_path")
    if cfg.layers != "auto":
        _check_widths(_int_list(cfg.dim), int(cfg.layers))
    if str(cfg.batch_size).lower() not in ("auto", "full"):
        _check_batch(cfg.batch_norm, int(cfg.batch_size))


def config_to_text(cfg: RunConfig) -> str:
    lines = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if value is None:
            value = "none"
        elif isinstance(value, bool):
            value = "true" if value else "false"
        lines.append(f"{f.metadata['key']} = {value}")
    return "\n".join(sorted(lines)) + "\n"


def write_text_atomic(path, text: str) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", newline="") as fh:
        fh.write(text)
    os.replace(tmp, path)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found by name among the
    files this process maps; a pair that does nothing with another BLAS library or without
    /proc/self/maps."""
    try:
        with open("/proc/self/maps") as fh:
            lib = next(ctypes.CDLL(line.split(None, 5)[5].strip()) for line in fh if "/libscipy_openblas64_" in line)
    except (OSError, StopIteration):
        return (lambda: 1), (lambda n: None)
    get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def _one_blas_thread():
    """Run with numpy's bundled OpenBLAS on one thread, then restore the caller's count: a product split
    across threads can round otherwise, and seeded bytes would differ."""
    get_threads, set_threads = _blas_threads()
    threads = get_threads()
    set_threads(1)
    try:
        yield
    finally:
        set_threads(threads)


# --- data resolution --------------------------------------------------------


@dataclass
class TaskData:
    """A task's data and its provided test split; test None means a random half of data."""

    name: str
    data: Dataset
    test: Dataset | None = None

    def for_trial(self, seed: int):
        """(train, test) for a trial: the provided split, or the random half seed draws."""
        if self.test is not None:
            return self.data, self.test
        return split(self.data, seed)


def _builtin_task(name: str) -> TaskData | None:
    """The built-in task name, its labels coded as if read from the registry's files, or None if there is none."""
    if name in tasks.MONKS_TRAIN_SIZES:
        train, test = tasks.make_monks(name)
        train = dataio.recode(train)
        return TaskData(name, train, dataio.recode(test, train.label_names))
    if name == "blobs":
        return TaskData(name, dataio.recode(tasks.two_blobs(400)))
    return None


def load_task_data(cfg: RunConfig) -> TaskData:
    if cfg.task:
        registry = dataio.parse_registry(cfg.registry) if os.path.exists(cfg.registry) else {}
        preset = registry.get(cfg.task)
        if preset is None:
            if (builtin := _builtin_task(cfg.task)) is None:
                raise DataError(
                    f"task {cfg.task!r} not found in registry {cfg.registry!r} and not built in; "
                    f"run scripts/make_datasets.py (and scripts/fetch_data.py for the large UCI sets)"
                )
            return builtin
        name = cfg.task
        cfg = replace(cfg, **preset)
    else:
        name = os.path.splitext(os.path.basename(cfg.path))[0]
    return TaskData(name, *dataio.load_source(cfg.fmt, cfg.path, cfg.label_column, cfg.test_path))


@dataclass
class ResolvedModel:
    layer_count: int
    dims: list[int]  # as model.dim states them: one width per layer, or one width for every layer
    loss_kind: str
    epochs: int
    batch_size: int | None


def resolve_model(cfg: RunConfig, n_train: int, n_classes: int) -> ResolvedModel:
    """Resolve each 'auto' of cfg, which _check_config admits, for n_train rows of n_classes, and check the
    resolved depth and batch size as _check_config checks explicit ones."""
    layer_count = default_layer_count(n_train) if cfg.layers == "auto" else int(cfg.layers)
    dims = _int_list(cfg.dim)
    _check_widths(dims, layer_count)
    loss_kind = ("squared_hinge" if n_classes == 2 else "cross_entropy") if cfg.loss == "auto" else cfg.loss
    small = n_train <= SMALL_DATA_LIMIT
    epochs = (SMALL_DATA_EPOCHS if small else LARGE_DATA_EPOCHS) if cfg.epochs == "auto" else int(cfg.epochs)
    if cfg.batch_size == "auto":
        batch_size = min(SMALL_DATA_BATCH, n_train) if small else LARGE_DATA_BATCH
    else:
        batch_size = None if str(cfg.batch_size).lower() == "full" else int(cfg.batch_size)
    _check_batch(cfg.batch_norm, batch_size or n_train)
    return ResolvedModel(layer_count=layer_count, dims=dims, loss_kind=loss_kind,
                         epochs=epochs, batch_size=batch_size)


# --- train ------------------------------------------------------------------


@dataclass
class TrialResult:
    trial: int
    seed: int
    test_acc: float
    train_acc: float


def log_csv_text(log: list[tuple]) -> str:
    """log-trial<t>.csv: fit's (loss, reg_loss, train_acc) rows, numbered by epoch."""
    lines = ["epoch,loss,reg_loss,train_acc"]
    for epoch, (loss, reg_loss, train_acc) in enumerate(log):
        lines.append(f"{epoch},{loss!r},{reg_loss!r},{train_acc!r}")
    return "\n".join(lines) + "\n"


def _run_trial(cfg: RunConfig, data: TaskData, resolved: ResolvedModel, t: int) -> TrialResult:
    """Train trial t (seed cfg.seed + t) and write its model-trial<t>.bin and log-trial<t>.csv."""
    seed_t = cfg.seed + t
    train_raw, test_raw = data.for_trial(seed_t)
    train, test, stages = preprocess_pair(train_raw, test_raw, cfg.normalize)
    net = build_network(d_in=train.d, n_classes=train.class_count, layer_count=resolved.layer_count,
                        D_per_layer=resolved.dims, loss_kind=resolved.loss_kind, rng=Rng(seed_t).derive("init"),
                        batch_norm=cfg.batch_norm, omega_stddev=cfg.omega_stddev, readout_stddev=cfg.readout_stddev)
    if not np.isfinite(net.flat).all():
        raise NumericError(f"the initial parameters are not finite: model.omega_stddev = {cfg.omega_stddev!r} "
                           f"or model.readout_stddev = {cfg.readout_stddev!r} overflows float64")
    log = fit(net, train.X, train.y, cfg, resolved.epochs, resolved.batch_size, seed_t)
    test_acc = accuracy(net, test.X, test.y)
    train_acc = log[-1][2] if log else accuracy(net, train.X, train.y)
    save_network(net, os.path.join(cfg.out, f"model-trial{t}.bin"),
                 preprocess=stages, label_names=train.label_names)
    write_text_atomic(os.path.join(cfg.out, f"log-trial{t}.csv"), log_csv_text(log))
    return TrialResult(trial=t, seed=seed_t, test_acc=test_acc, train_acc=train_acc)


@_one_blas_thread()
def run_training(cfg: RunConfig) -> list[TrialResult]:
    """Train cfg.trials models (seeds seed, seed+1, ...) and write all artifacts, with BLAS on one thread."""
    _check_config(cfg)  # every rule that needs no data, before any data is read or output created
    data = load_task_data(cfg)
    # every trial's training split has the same size and classes, so one resolution serves all
    probe_train, _ = data.for_trial(cfg.seed)
    resolved = resolve_model(cfg, probe_train.n, probe_train.class_count)
    count = parameter_count(probe_train.d, probe_train.class_count, resolved.layer_count, resolved.dims, cfg.batch_norm)
    # the parameters are one array, net.flat
    _check_array_size(count, f"model.dim = {cfg.dim!r} with model.layers = {resolved.layer_count}")
    if probe_train.class_count < 2:
        raise DataError(f"{data.name}: need at least 2 classes, got {probe_train.class_count}")
    os.makedirs(cfg.out, exist_ok=True)
    write_text_atomic(os.path.join(cfg.out, "config.txt"), config_to_text(cfg))
    results = [_run_trial(cfg, data, resolved, t) for t in range(cfg.trials)]
    metrics_lines = ["trial,seed,test_acc,train_acc"]
    for r in results:
        metrics_lines.append(f"{r.trial},{r.seed},{r.test_acc!r},{r.train_acc!r}")
    write_text_atomic(os.path.join(cfg.out, "metrics.csv"), "\n".join(metrics_lines) + "\n")
    accs = np.array([r.test_acc for r in results])
    mean_acc = float(accs.mean())
    std_acc = float(accs.std(ddof=1)) if len(accs) > 1 else 0.0
    dims_str = "/".join(str(d) for d in resolved.dims * (resolved.layer_count // len(resolved.dims)))
    summary = "dataset,layers,D,trials,mean_acc,std_acc\n"
    summary += f"{data.name},{resolved.layer_count},{dims_str},{cfg.trials},{mean_acc!r},{std_acc!r}\n"
    write_text_atomic(os.path.join(cfg.out, "summary.csv"), summary)
    print(f"{data.name}: layers={resolved.layer_count} D={dims_str} trials={cfg.trials} "
          f"mean_acc={mean_acc:.4f} std_acc={std_acc:.4f}")
    return results


def _config_from_args(args, table=fields(RunConfig)) -> RunConfig:
    """--config's keys (or the defaults), overridden by each flag of table's rows that was given."""
    cfg = load_config_file(args.config) if args.config else RunConfig()
    for f in table:
        flag = f.metadata["flag"]
        value = getattr(args, flag[2:].replace("-", "_"), None) if flag else None  # argparse's dest
        if value is not None:
            set_config_key(cfg, f.metadata["key"], str(value))
    for item in getattr(args, "set", None) or []:
        _set_item(cfg, item, "--set")
    return cfg


def cmd_train(args) -> int:
    run_training(_config_from_args(args))
    return 0


# --- eval -------------------------------------------------------------------


def _eval_inputs(args):
    """Load the snapshot args.model and the data to run it on; returns
    (net, label_names, preprocessed features, labels).

    The data is --config's keys, each overridden by a data flag that was given. A
    given --data-path replaces the config's task and is evaluated whole (libsvm
    rows zero-padded to the model's raw width). A task, or a config's own
    data.path, honours --on train|test: a random half replays the split for
    --split-seed (default: the config's train.seed). Every source codes its
    labels in its own first-appearance order, so the labels are recoded by name
    onto the snapshot's label_names. The snapshot's preprocessing stages, if any,
    have layer 0's input width."""
    cfg = _config_from_args(args, _EVAL_DATA_FIELDS)
    if args.data_path and not args.task:  # a given file replaces the config's task; beside --task it clashes
        cfg.task = None
    _check_config(cfg)  # a usage error is found before the model or the data is read
    net, stages, label_names = load_network(args.model)
    if args.data_path:
        data = dataio.load_source(cfg.fmt, cfg.path, cfg.label_column, min_dim=net.d_in)[0]
    else:
        train, test = load_task_data(cfg).for_trial(cfg.seed if args.split_seed is None else args.split_seed)
        data = train if args.on == "train" else test
    if data.d != net.d_in:
        raise DataError(f"model expects {net.d_in} raw features, dataset has {data.d}")
    y = dataio.code_labels(data.label_names, label_names)[0][data.y]
    return net, label_names, apply_stages(data.X, stages), y


def cmd_eval(args) -> int:
    net, label_names, X, y = _eval_inputs(args)
    logits = forward_full(net, X, training=False).logits
    non_finite = logits.size - int(np.isfinite(logits).sum())
    if non_finite:
        raise NumericError(f"{non_finite} of the model's {logits.size} logits are not finite")
    pred = predict_from_logits(logits)
    acc = float(np.mean(pred == y))
    classes = net.class_count
    confusion = np.bincount(y * classes + pred, minlength=classes * classes).reshape(classes, classes)
    lines = ["true\\pred," + ",".join(label_names)]
    for i in range(classes):
        lines.append(label_names[i] + "," + ",".join(str(v) for v in confusion[i]))
    os.makedirs(args.out, exist_ok=True)
    write_text_atomic(os.path.join(args.out, "confusion.csv"), "\n".join(lines) + "\n")
    print(repr(acc))
    return 0


# --- inspect ----------------------------------------------------------------


def cmd_inspect(args) -> int:
    # every flag is checked before any work, so a usage error leaves no file behind
    _check_values([("--bins", args.bins, None, _AT_LEAST_ONE),
                   ("--max-samples", args.max_samples, None, (lambda v: v >= 0, ">= 0 (0 keeps every row)")),
                   ("--hist-dims", args.hist_dims, None, (lambda v: _int_list(v) is not None,
                                                          "a comma list of integers"))])
    _check_array_size(args.bins + 1, f"--bins {args.bins}")  # the histogram's edges
    hist_dims = _int_list(args.hist_dims or "0")
    net, _, X, y = _eval_inputs(args)
    n_layers = len(net.layers)
    if args.layer is None:
        layer_indices = list(range(n_layers))
    else:
        if not 0 <= args.layer < n_layers:
            raise ParameterError(f"layer index {args.layer} out of range for {n_layers} layers")
        layer_indices = [args.layer]
    for i in layer_indices:
        d_in = net.layers[i].d_in
        if any(not 0 <= dim < d_in for dim in hist_dims):
            raise ParameterError(f"--hist-dims {args.hist_dims!r} must lie in [0, {d_in}) for layer {i}")
    if args.max_samples and X.shape[0] > args.max_samples:
        keep = np.sort(Rng(args.seed).derive("inspect").permutation(X.shape[0])[: args.max_samples])
        X, y = X[keep], y[keep]
    if args.kpca_dim > X.shape[0]:
        raise ParameterError(f"--kpca-dim {args.kpca_dim} exceeds the {X.shape[0]} samples")
    hists = {(i, dim): omega_histogram(net.layers[i], dim, args.bins) for i in layer_indices for dim in hist_dims}
    os.makedirs(args.out, exist_ok=True)
    h = X  # walk the layers up to the last exported one
    for i, layer in enumerate(net.layers[:layer_indices[-1] + 1]):
        h, cache = forward(layer, h)
        if i not in layer_indices:
            continue
        if not np.isfinite(cache.features).all():
            raise NumericError(f"layer {i}'s features are not finite: its frequencies overflow on this data")
        K = empirical_kernel(cache.features)  # raw trig features, before batch norm
        write_text_atomic(os.path.join(args.out, f"kernel-layer{i}.csv"),
                          kernel_analysis.kernel_to_csv_text(K))
        coords = kpca_project(K, args.kpca_dim)
        write_text_atomic(os.path.join(args.out, f"kpca-layer{i}.csv"),
                          kernel_analysis.kpca_to_csv_text(coords, labels=y))
        for dim in hist_dims:
            edges, counts = hists[i, dim]
            write_text_atomic(os.path.join(args.out, f"hist-layer{i}-dim{dim}.csv"),
                              kernel_analysis.histogram_to_csv_text(edges, counts))
    print(f"wrote diagnostics for layers {layer_indices} to {args.out}")
    return 0


# --- approx-bench -----------------------------------------------------------


def cmd_approx_bench(args) -> int:
    # every flag is checked before any work, so a usage error prints nothing else
    _check_values([("--dims", args.dims, None, _WIDTHS), ("--pairs", args.pairs, None, _AT_LEAST_ONE),
                   ("--features", args.features, None, _AT_LEAST_ONE),
                   ("--bandwidth", args.bandwidth, None, _FINITE_POSITIVE), ("--spread", args.spread, None, _FINITE)])
    dims = _int_list(args.dims)
    _check_array_size(args.pairs * args.features, f"--pairs {args.pairs} with --features {args.features}")  # U, V
    # each D's frequencies are D x --features, and a 2-row block of its features is 2 x 2D
    _check_array_size(max(dims) * max(args.features, 4), f"--dims {max(dims)} with --features {args.features}")
    density = SpectralDensity(kind=args.density, bandwidth=args.bandwidth)
    rng = Rng(args.seed)
    U = rng.derive("points").normal((args.pairs, args.features))
    V = U + args.spread * rng.derive("offsets").normal((args.pairs, args.features))
    lines = ["D,mean_error,max_error"]
    for D in dims:
        mean_error, max_error = rff_approx_error(density, D, U, V, rng.derive("freqs", D))
        if not (math.isfinite(mean_error) and math.isfinite(max_error)):
            raise NumericError(f"the approximation error at D={D} is not finite: --spread {args.spread} "
                               f"or --bandwidth {args.bandwidth} overflows float64")
        lines.append(f"{D},{mean_error!r},{max_error!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        out_dir = os.path.dirname(args.out)
        if out_dir:
            os.makedirs(out_dir, exist_ok=True)
        write_text_atomic(args.out, text)
    print(text, end="")
    return 0


# --- argument parsing -------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors map to exit code 1, not argparse's 2
        raise ParameterError(message)


def _add_key_flags(p, table) -> None:
    """Each row's flag; its text reaches set_config_key as a --set value does. A bool row's
    flag comes with its --no- form."""
    for f in (f for f in table if f.metadata["flag"]):
        if f.type == "bool":
            p.add_argument(f.metadata["flag"], action=argparse.BooleanOptionalAction)
        else:
            p.add_argument(f.metadata["flag"], choices=f.metadata["choices"])


def _add_data_args(p):
    p.add_argument("--config", help="reuse a run config's data section")
    _add_key_flags(p, _EVAL_DATA_FIELDS)
    p.add_argument("--on", choices=["train", "test"], default="test")
    p.add_argument("--split-seed", type=int, default=None,
                   help="split seed for random-half tasks (default: the config's train.seed)")


def _train_args(p):
    p.add_argument("--config", help="flat key=value config file")
    _add_key_flags(p, fields(RunConfig))
    p.add_argument("--set", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_train)


def _eval_args(p):
    p.add_argument("model")
    _add_data_args(p)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_eval)


def _inspect_args(p):
    p.add_argument("model")
    _add_data_args(p)
    p.add_argument("--layer", type=int, default=None, help="single layer index (default: all)")
    p.add_argument("--kpca-dim", type=int, default=2, choices=[2, 3])
    p.add_argument("--bins", type=int, default=20)
    p.add_argument("--hist-dims", default="0", help="comma list of omega columns")
    p.add_argument("--max-samples", type=int, default=256)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="inspect-out")
    p.set_defaults(func=cmd_inspect)


def _approx_bench_args(p):
    p.add_argument("--density", choices=kernel_analysis.DENSITY_KINDS, default="rbf")
    p.add_argument("--bandwidth", type=float, default=1.0)
    p.add_argument("--dims", default="64,256,1024,4096")
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--features", type=int, default=3)
    p.add_argument("--spread", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_approx_bench)


# command -> (its line in `rffnet --help`, the function that adds its arguments and sets its
# handler; the handler is looked up when the parser is built, so a wrapper bound in its place is called)
_COMMANDS = {
    "train": ("train one or more models", _train_args),
    "eval": ("evaluate a saved model", _eval_args),
    "inspect": ("export kernel/kPCA/histogram diagnostics", _inspect_args),
    "approx-bench": ("feature-map approximation error vs. D", _approx_bench_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The rffnet parser with every command (command None), or with `command`'s
    alone: an invocation pays for the one parser it uses. The top-level help and
    the unknown-command error, which list every command, come from the full one."""
    parser = _Parser(prog="rffnet", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_args) in _COMMANDS.items():
        if command in (None, name):
            add_args(sub.add_parser(name, help=help_text))
    return parser


@_one_blas_thread()
def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    try:
        args = parser.parse_args(argv)
        with np.errstate(all="ignore"):  # numpy's warnings are not the report: each failure has a finite check
            return args.func(args)
    except ParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError, UnicodeDecodeError, MemoryError) as exc:  # only a MemoryError may have no message
        print(f"data error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
