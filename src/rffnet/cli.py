"""Command-line entry point: train / eval / inspect / approx-bench.

Run configs are flat dotted-key text files (e.g. ``model.layers = 2``); command
line flags override file values. Every run directory is self-describing: the
resolved config, seeds, metrics, and logs are enough to replay it exactly.

Exit codes: 0 success, and one per error class: 1 ParameterError (usage or
config), 2 DataError (also a file that cannot be read or decoded), 3
NumericError. Every command runs with numpy's floating-point warnings off, so a
failure is reported once, by the finite check that catches it.
"""

from __future__ import annotations

import argparse
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
    predict_from_logits,
    save_network,
)
from .numerics import Rng
from .optimizer import TrainConfig, fit
from .rff_layer import forward

SMALL_DATA_LIMIT = 1000
SMALL_DATA_EPOCHS = 1000
SMALL_DATA_BATCH = 32  # full batch measurably underfits the small UCI tasks
LARGE_DATA_EPOCHS = 300
LARGE_DATA_BATCH = 256
BUILTIN_TASKS = ("monks1", "monks2", "monks3", "blobs")


def _key(default, key: str, flag: str | None = None, choices=None, check=None):
    """A RunConfig field: its dotted config key, its flag if it has one, and the values
    it admits, as `choices` or as a `check` pair (predicate, description)."""
    return field(default=default, metadata={"key": key, "flag": flag, "choices": choices, "check": check})


_UNIT_INTERVAL = (lambda v: 0.0 <= v < 1.0, "in [0, 1)")
_FINITE_NONNEGATIVE = (lambda v: math.isfinite(v) and v >= 0.0, "finite and >= 0")
_FINITE_POSITIVE = (lambda v: math.isfinite(v) and v > 0.0, "finite and > 0")


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
    layers: str = _key("auto", "model.layers", "--layers")
    dim: str = _key("64", "model.dim", "--dim")
    batch_norm: bool = _key(True, "model.batch_norm")  # --batch-norm / --no-batch-norm
    loss: str = _key("auto", "model.loss", "--loss", ["auto", *LOSS_KINDS])
    omega_stddev: float = _key(0.1, "model.omega_stddev", check=_FINITE_POSITIVE)
    readout_stddev: float = _key(0.1, "model.readout_stddev", check=_FINITE_NONNEGATIVE)
    # training
    epochs: str = _key("auto", "train.epochs", "--epochs")
    batch_size: str = _key("auto", "train.batch_size", "--batch-size")
    lr: float = _key(1e-3, "train.lr", "--lr", check=_FINITE_POSITIVE)
    reg_lambda: float = _key(1e-4, "train.lambda", "--reg-lambda", check=_FINITE_NONNEGATIVE)
    beta1: float = _key(0.9, "train.beta1", check=_UNIT_INTERVAL)
    beta2: float = _key(0.999, "train.beta2", check=_UNIT_INTERVAL)
    epsilon: float = _key(1e-8, "train.epsilon", check=_FINITE_POSITIVE)
    seed: int = _key(0, "train.seed", "--seed")
    trials: int = _key(1, "train.trials", "--trials", check=(lambda v: v >= 1, ">= 1"))
    shuffle: bool = _key(True, "train.shuffle")
    out: str = _key("runs/run", "out", "--out")


_FIELD_BY_KEY = {f.metadata["key"]: f for f in fields(RunConfig)}
_FLAG_TYPES = {"int": int, "float": float}
# eval/inspect's data flags; overriding only these keeps their own --seed and --out off train.seed and out
_EVAL_DATA_FIELDS = [_FIELD_BY_KEY[k] for k in ("data.task", "data.registry", "data.path", "data.format", "data.label_column")]
# the keys a task's registry line or generator sets for itself
_TASK_SOURCE_FIELDS = [_FIELD_BY_KEY[k] for k in ("data.path", "data.test_path", "data.format", "data.label_column",
                                                  "data.split")]


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
    if "\x00" in value:  # a NUL fits no value, and open() rejects a path that holds one
        raise ParameterError(f"bad value {value!r} for config key {key!r}: NUL byte")
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


def load_config_file(path) -> RunConfig:
    cfg = RunConfig()
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config file {path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path} line {line_no}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        try:
            set_config_key(cfg, key.strip(), value)
        except (ValueError, ParameterError) as exc:
            raise ParameterError(f"{path} line {line_no}: {exc}") from None
    return cfg


def _check_config(cfg: RunConfig) -> None:
    """Raise ParameterError naming the first key whose value its row does not admit."""
    for f in fields(cfg):
        value, meta = getattr(cfg, f.name), f.metadata
        if meta["choices"] is not None and value not in meta["choices"]:
            raise ParameterError(f"{meta['key']} must be one of {', '.join(meta['choices'])}, got {value!r}")
        if meta["check"] is not None and not meta["check"][0](value):
            raise ParameterError(f"{meta['key']} must be {meta['check'][1]}, got {value!r}")


def _check_task_source(cfg: RunConfig) -> None:
    """Raise ParameterError naming the file-source keys set beside data.task, which would be ignored."""
    clashing = [f.metadata["key"] for f in _TASK_SOURCE_FIELDS if getattr(cfg, f.name) != f.default]
    if cfg.task and clashing:
        raise ParameterError(f"data.task {cfg.task!r} names its own data source; drop {', '.join(clashing)}")


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


def _builtin_task(name: str) -> TaskData:
    """A generated task, its labels coded as if read from the registry's files."""
    if name.startswith("monks"):
        train, test = tasks.make_monks(name)
        train = dataio.recode(train)
        return TaskData(name, train, dataio.recode(test, train.label_names))
    if name == "blobs":
        return TaskData(name, dataio.recode(tasks.two_blobs(400)))


def load_task_data(cfg: RunConfig) -> TaskData:
    if cfg.task:
        registry = dataio.parse_registry(cfg.registry) if os.path.exists(cfg.registry) else {}
        entry = registry.get(cfg.task)
        if entry is None:
            if cfg.task in BUILTIN_TASKS:
                return _builtin_task(cfg.task)
            raise DataError(
                f"task {cfg.task!r} not found in registry {cfg.registry!r} and not built in; "
                f"run scripts/make_datasets.py (and scripts/fetch_data.py for the large UCI sets)"
            )
        name = cfg.task
        cfg = replace(cfg, fmt=entry.fmt, path=entry.path, label_column=entry.label_column,
                      test_path=entry.test_path, split_mode=entry.split_mode)
    elif cfg.path:
        name = os.path.splitext(os.path.basename(cfg.path))[0]
    else:
        raise ParameterError("config needs data.task or data.path")
    data, test = dataio.load_source(cfg.fmt, cfg.path, cfg.label_column, cfg.test_path)
    if test is None and cfg.split_mode == "provided":
        raise ParameterError("data.split = provided requires data.test_path")
    return TaskData(name, data, test)


@dataclass
class ResolvedModel:
    layer_count: int
    dims: list[int]
    loss_kind: str
    epochs: int
    batch_size: int | None


def _to_int(value, what: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ParameterError(f"{what} must be an integer or 'auto', got {value!r}") from None


def resolve_model(cfg: RunConfig, n_train: int, n_classes: int) -> ResolvedModel:
    layer_count = default_layer_count(n_train) if cfg.layers == "auto" else _to_int(cfg.layers, "model.layers")
    if layer_count < 1:
        raise ParameterError(f"model.layers must be >= 1, got {layer_count}")
    dim_parts = [_to_int(tok, "model.dim") for tok in str(cfg.dim).split(",") if tok.strip()]
    if len(dim_parts) == 1:
        dims = dim_parts * layer_count
    elif len(dim_parts) == layer_count:
        dims = dim_parts
    else:
        raise ParameterError(f"model.dim lists {len(dim_parts)} widths for {layer_count} layers")
    if min(dims) < 1:
        raise ParameterError(f"model.dim widths must be >= 1, got {cfg.dim!r}")
    if cfg.loss == "auto":
        loss_kind = "squared_hinge" if n_classes == 2 else "cross_entropy"
    else:
        loss_kind = cfg.loss
    small = n_train <= SMALL_DATA_LIMIT
    epochs = (SMALL_DATA_EPOCHS if small else LARGE_DATA_EPOCHS) if cfg.epochs == "auto" else _to_int(cfg.epochs, "train.epochs")
    if cfg.batch_size == "auto":
        batch_size = min(SMALL_DATA_BATCH, n_train) if small else LARGE_DATA_BATCH
    elif str(cfg.batch_size).lower() == "full":
        batch_size = None
    else:
        batch_size = _to_int(cfg.batch_size, "train.batch_size")
        if batch_size < 1:
            raise ParameterError(f"train.batch_size must be >= 1, 'full' or 'auto', got {batch_size}")
    if epochs < 0:
        raise ParameterError(f"train.epochs must be >= 0, got {epochs}")
    return ResolvedModel(layer_count=layer_count, dims=dims, loss_kind=loss_kind,
                         epochs=epochs, batch_size=batch_size)


# --- train ------------------------------------------------------------------


@dataclass
class TrialResult:
    trial: int
    seed: int
    test_acc: float
    train_acc: float


def run_training(cfg: RunConfig) -> list[TrialResult]:
    """Train cfg.trials models (seeds seed, seed+1, ...) and write all artifacts."""
    # validate the whole configuration before any output is created
    _check_config(cfg)
    _check_task_source(cfg)
    data = load_task_data(cfg)
    # every trial's training split has the same size and classes, so one resolution serves all
    probe_train, _ = data.for_trial(cfg.seed)
    resolved = resolve_model(cfg, probe_train.n, probe_train.class_count)
    if cfg.batch_norm and (resolved.batch_size or probe_train.n) < 2:
        raise ParameterError("batch norm requires batches of at least 2 samples")
    if probe_train.class_count < 2:
        raise DataError(f"{data.name}: need at least 2 classes, got {probe_train.class_count}")
    os.makedirs(cfg.out, exist_ok=True)
    write_text_atomic(os.path.join(cfg.out, "config.txt"), config_to_text(cfg))
    results = []
    for t in range(cfg.trials):
        seed_t = cfg.seed + t
        train_raw, test_raw = data.for_trial(seed_t)
        train, test, stages = preprocess_pair(train_raw, test_raw, cfg.normalize)
        net = build_network(
            d_in=train.d,
            n_classes=train.class_count,
            layer_count=resolved.layer_count,
            D_per_layer=resolved.dims,
            loss_kind=resolved.loss_kind,
            rng=Rng(seed_t).derive("init"),
            batch_norm=cfg.batch_norm,
            omega_stddev=cfg.omega_stddev,
            readout_stddev=cfg.readout_stddev,
        )
        if not np.isfinite(net.flat).all():
            raise NumericError(f"the initial parameters are not finite: model.omega_stddev = {cfg.omega_stddev!r} "
                               f"or model.readout_stddev = {cfg.readout_stddev!r} overflows float64")
        tc = TrainConfig(epochs=resolved.epochs, batch_size=resolved.batch_size,
                         reg_lambda=cfg.reg_lambda, seed=seed_t, lr=cfg.lr,
                         beta1=cfg.beta1, beta2=cfg.beta2, epsilon=cfg.epsilon,
                         shuffle=cfg.shuffle)
        log = fit(net, train.X, train.y, tc)
        test_acc = accuracy(net, test.X, test.y)
        train_acc = log.records[-1].train_acc if log.records else accuracy(net, train.X, train.y)
        save_network(net, os.path.join(cfg.out, f"model-trial{t}.bin"),
                     preprocess=stages, label_names=train.label_names)
        write_text_atomic(os.path.join(cfg.out, f"log-trial{t}.csv"), log.to_csv_text())
        results.append(TrialResult(trial=t, seed=seed_t, test_acc=test_acc, train_acc=train_acc))
    metrics_lines = ["trial,seed,test_acc,train_acc"]
    for r in results:
        metrics_lines.append(f"{r.trial},{r.seed},{r.test_acc!r},{r.train_acc!r}")
    write_text_atomic(os.path.join(cfg.out, "metrics.csv"), "\n".join(metrics_lines) + "\n")
    accs = np.array([r.test_acc for r in results])
    mean_acc = float(accs.mean())
    std_acc = float(accs.std(ddof=1)) if len(accs) > 1 else 0.0
    dims_str = "/".join(str(d) for d in resolved.dims)
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
    if getattr(args, "batch_norm", None) is not None:
        cfg.batch_norm = args.batch_norm
    for item in getattr(args, "set", None) or []:
        if "=" not in item:
            raise ParameterError(f"--set expects key=value, got {item!r}")
        key, value = item.split("=", 1)
        set_config_key(cfg, key.strip(), value)
    return cfg


def cmd_train(args) -> int:
    run_training(_config_from_args(args))
    return 0


# --- eval -------------------------------------------------------------------


def _load_eval_data(args, raw_width: int):
    """Resolve the dataset for eval/inspect from --task / --data-path / --config;
    a data flag overrides the config only when given.

    A given --data-path is evaluated whole (libsvm rows zero-padded to the model's
    raw width). A task, or a config's own data.path, honours --on train|test: a
    random half replays the split for --split-seed (default: the config's train.seed)."""
    cfg = _config_from_args(args, _EVAL_DATA_FIELDS)
    _check_config(cfg)
    if args.data_path:
        return dataio.load_source(cfg.fmt, cfg.path, cfg.label_column, min_dim=raw_width)[0]
    if not cfg.task and not cfg.path:
        raise ParameterError("need --task, --data-path, or a --config naming one")
    split_seed = args.split_seed if args.split_seed is not None else cfg.seed
    train, test = load_task_data(cfg).for_trial(split_seed)
    return train if args.on == "train" else test


def _eval_inputs(args):
    """Load the snapshot args.model and the data to run it on; returns
    (net, label_names, preprocessed features, labels).

    Every source codes its labels in its own first-appearance order, so the
    labels are recoded by name onto the snapshot's label_names. The snapshot's
    preprocessing stages, if any, have layer 0's input width."""
    net, stages, label_names = load_network(args.model)
    data = _load_eval_data(args, net.d_in)
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


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParameterError(f"{flag} must be a comma list of integers, got {text!r}") from None


def cmd_inspect(args) -> int:
    # every flag is checked before any work, so a usage error leaves no file behind
    if args.bins < 1:
        raise ParameterError(f"--bins must be >= 1, got {args.bins}")
    if args.max_samples < 0:
        raise ParameterError(f"--max-samples must be >= 0 (0 keeps every row), got {args.max_samples}")
    hist_dims = _int_list(args.hist_dims, "--hist-dims") if args.hist_dims else [0]
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
    dims = _int_list(args.dims, "--dims")
    if not dims or min(dims) < 1:
        raise ParameterError(f"--dims must list one or more feature counts >= 1, got {args.dims!r}")
    for flag, value in (("--pairs", args.pairs), ("--features", args.features)):
        if value < 1:
            raise ParameterError(f"{flag} must be >= 1, got {value}")
    if not (math.isfinite(args.bandwidth) and args.bandwidth > 0):
        raise ParameterError(f"--bandwidth must be finite and > 0, got {args.bandwidth}")
    if not math.isfinite(args.spread):
        raise ParameterError(f"--spread must be finite, got {args.spread}")
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
    for f in (f for f in table if f.metadata["flag"]):
        p.add_argument(f.metadata["flag"], type=_FLAG_TYPES.get(f.type), choices=f.metadata["choices"])


def _add_data_args(p):
    p.add_argument("--config", help="reuse a run config's data section")
    _add_key_flags(p, _EVAL_DATA_FIELDS)
    p.add_argument("--on", choices=["train", "test"], default="test")
    p.add_argument("--split-seed", type=int, default=None,
                   help="split seed for random-half tasks (default: the config's train.seed)")


def _train_args(p):
    p.add_argument("--config", help="flat key=value config file")
    _add_key_flags(p, fields(RunConfig))
    p.add_argument("--batch-norm", dest="batch_norm", action="store_true", default=None)
    p.add_argument("--no-batch-norm", dest="batch_norm", action="store_false")
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
    except (DataError, OSError, UnicodeDecodeError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
