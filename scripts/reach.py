#!/usr/bin/env python3
"""List the statements of src/rffnet that no command of a fixed corpus executes.

The corpus is every documented way into the program: train, eval, inspect and
approx-bench on each data source, scripts/make_datasets.py, and one case of
each usage, data and numeric error, with one malformed snapshot per decoder
check. Each command runs through rffnet.cli.main in this process, under a line
tracer that records only the package's own files and only while a command
runs. The inputs are written between commands, with the tracer off: as plain
text, or as byte edits of files that earlier commands wrote.

A statement counts if it lies in a function body (docstrings and
global/nonlocal declarations compile to nothing and are skipped), and it is
reached when a line of it executes; a compound statement's lines are its
header's. A statement that no command reaches is either dead or a check whose
rule is enforced where its value enters the program.

    python scripts/reach.py             # module.py:line: statement, per unreached statement
    python scripts/reach.py --commands  # first each command's exit code and stderr
"""

import argparse
import ast
import contextlib
import importlib.util
import io
import json
import os
import shlex
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import rffnet  # noqa: E402
from rffnet import cli  # noqa: E402

PACKAGE_DIR = Path(rffnet.__file__).resolve().parent
MAKE_DATASETS = "scripts/make_datasets.py"
V1_SNAPSHOT = ROOT / "tests" / "data" / "blobs-bn-v1.bin"
SNAPSHOT_MAGIC = b"RFFNET1\n"


def statements(path: Path) -> dict[int, tuple[range, str]]:
    """line -> (the lines that execute it, its first line's text), for every
    statement inside a function body of the module at path."""
    source = path.read_text()
    text = source.splitlines()
    found = {}

    def visit(node, in_function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and in_function and not (
                    isinstance(child, (ast.Global, ast.Nonlocal))
                    or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                body = getattr(child, "body", None)
                last = body[0].lineno - 1 if body else child.end_lineno
                found[child.lineno] = (range(child.lineno, max(last, child.lineno) + 1),
                                       text[child.lineno - 1].strip())
            visit(child, in_function or isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)))

    visit(ast.parse(source), False)
    return found


class LineTracer:
    """Records (file, line) of every line executed in the package's files while on."""

    def __init__(self):
        self.executed: set[tuple[str, int]] = set()
        self._mine: dict[str, bool] = {}

    def _local(self, frame, event, arg):
        if event == "line":
            self.executed.add((frame.f_code.co_filename, frame.f_lineno))
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        mine = self._mine.get(name)
        if mine is None:
            mine = self._mine[name] = Path(name).resolve().parent == PACKAGE_DIR
        return self._local if mine else None

    @contextlib.contextmanager
    def on(self):
        previous = sys.gettrace()
        sys.settrace(self._global)
        try:
            yield
        finally:
            sys.settrace(previous)

    def lines(self) -> dict[str, set[int]]:
        """module file name -> its executed lines."""
        out: dict[str, set[int]] = {}
        for name, line in self.executed:
            out.setdefault(Path(name).resolve().name, set()).add(line)
        return out


def _load_make_datasets():
    spec = importlib.util.spec_from_file_location("make_datasets", ROOT / MAKE_DATASETS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_command(argv: list[str], tracer: LineTracer, make_datasets) -> tuple[object, str]:
    """(exit code, stderr text) of one corpus command, traced; a numpy warning is
    rendered into stderr as a terminal would show it, and an exception that
    escapes main is reported as exit code None."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        try:
            with tracer.on():
                if argv[:1] == [MAKE_DATASETS]:
                    old_argv, sys.argv = sys.argv, argv
                    try:
                        code = make_datasets.main()
                    finally:
                        sys.argv = old_argv
                else:
                    code = cli.main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as exc:  # a traceback: no documented exit code
            code = None
            print(f"{type(exc).__name__}: {exc}", file=err)
    text = "".join(warnings.formatwarning(w.message, w.category, w.filename, w.lineno, w.line) for w in caught)
    return code, text + err.getvalue()


# --- the corpus -------------------------------------------------------------------


def _write(name: str, text) -> str:
    if isinstance(text, bytes):
        Path(name).write_bytes(text)
    else:
        Path(name).write_text(text)
    return name


def _read_snapshot(path: str):
    blob = Path(path).read_bytes()
    end = blob.index(b"\n", len(SNAPSHOT_MAGIC))
    return json.loads(blob[len(SNAPSHOT_MAGIC):end]), np.frombuffer(blob, "<f8", offset=end + 1).copy()


def _snapshot_bytes(header: dict, values: np.ndarray) -> bytes:
    return SNAPSHOT_MAGIC + json.dumps(header, sort_keys=True).encode() + b"\n" + values.astype("<f8").tobytes()


def _edited(model: str, name: str, edit) -> str:
    """A copy of snapshot model, with edit(header, omega0) applied; omega0 is a
    view of layer 0's frequencies in the stored values."""
    header, values = _read_snapshot(model)
    layer = header["layers"][0]
    edit(header, values[:layer["D"] * layer["d_in"]].reshape(layer["D"], layer["d_in"]))
    return _write(name, _snapshot_bytes(header, values))


def _replaced(values: np.ndarray, index: int, value: float) -> np.ndarray:
    out = values.copy()
    out[index] = value
    return out


def _set(obj, key, value):
    obj[key] = value


def corpus():
    """The corpus commands, in order, in a fresh working directory; between two
    commands this generator writes the files the next ones read."""
    yield [MAKE_DATASETS, "--out", "made"]
    reg = "made/registry.txt"
    quick = ["--epochs", "1", "--dim", "4"]

    # --- train on every source
    yield ["train", "--task", "monks1", "--registry", reg, *quick, "--out", "monks-reg"]
    yield ["train", "--task", "monks1", *quick, "--trials", "2", "--out", "monks"]  # no registry here: generated
    yield ["train", "--task", "monks1", "--batch-size", "41", *quick, "--out", "tail"]  # 124 rows: 41 + 41 + 42
    yield ["train", "--task", "blobs", "--layers", "2", "--dim", "4,3", "--epochs", "1", "--batch-size", "full",
           "--out", "blobs"]
    three = _write("three.csv", "0.0,0.0,a\n1.0,0.5,b\n0.5,1.0,c\n0.2,0.1,a\n\n0.9,0.4,b\n"
                                "0.4,0.8,c\n0.1,0.2,a\n1.0,0.7,b\n0.6,0.9,c\n")
    yield ["train", "--data-path", three, "--no-batch-norm", "--layers", "1", "--epochs", "2", "--dim", "4",
           "--out", "csv"]  # three classes: cross entropy
    svm = _write("d.svm", "# comment\n1 1:0.5 2:1.0 3:0.2\n-1 1:0.1 3:0.9\n1 2:0.7\n-1 1:0.9 2:0.1 3:0.4\n"
                          "1 1:0.4 2:0.8 3:0.3\n-1 1:0.2 3:0.6\n")
    yield ["train", "--data-path", svm, "--format", "libsvm", "--loss", "squared", "--layers", "1", "--dim", "3",
           "--epochs", "1", "--out", "svm"]
    tr = _write("tr.csv", "0,0,x\n1,1,y\n0,1,x\n1,0,y\n")
    te = _write("te.csv", "0,0,y\n1,1,x\n")
    yield ["train", "--data-path", tr, "--test-path", te, "--data-split", "provided", *quick, "--out", "given"]
    cfg = _write("run.cfg", "# a run config\ndata.task = blobs\n\ntrain.epochs = 1\nmodel.dim = 4\nout = cfg\n")
    yield ["train", "--config", cfg, "--set", "train.shuffle=false", "--normalize", "none"]
    hashed = _write("tr#1.csv", Path(three).read_text())  # config.txt must read the '#' back as part of the path
    yield ["train", "--data-path", hashed, "--no-batch-norm", "--layers", "1", "--epochs", "2", "--dim", "4",
           "--out", "hash"]

    # --- eval and inspect through --task, --config and --data-path
    model = "monks-reg/model-trial0.bin"
    shutil.copy(V1_SNAPSHOT, "v1.bin")
    yield ["eval", model, "--task", "monks1", "--registry", reg, "--out", "ev"]
    yield ["eval", model, "--config", "monks-reg/config.txt", "--on", "train", "--out", "ev"]
    yield ["eval", model, "--data-path", "made/monks1-test.csv", "--out", "ev"]
    yield ["eval", "blobs/model-trial0.bin", "--config", "blobs/config.txt", "--split-seed", "1", "--out", "ev"]
    yield ["eval", "svm/model-trial0.bin", "--data-path", svm, "--format", "libsvm", "--out", "ev"]
    yield ["eval", "v1.bin", "--task", "blobs", "--out", "ev"]
    yield ["eval", "hash/model-trial0.bin", "--config", "hash/config.txt", "--out", "ev"]
    yield ["inspect", model, "--task", "monks1", "--registry", reg, "--max-samples", "20", "--out", "in"]
    yield ["inspect", model, "--config", "monks-reg/config.txt", "--layer", "1", "--hist-dims", "0,3",
           "--max-samples", "20", "--out", "in"]
    const = _write("const.csv", "".join(f"1,2,1,2,3,1,{i % 2}\n" for i in range(8)))
    yield ["inspect", model, "--data-path", const, "--max-samples", "0", "--out", "in"]  # one point: zero kPCA
    yield ["inspect", "v1.bin", "--task", "blobs", "--max-samples", "20", "--out", "in"]

    # --- approx-bench with every density
    for density in ("rbf", "laplacian", "cauchy"):
        yield ["approx-bench", "--density", density, "--dims", "4,16", "--pairs", "5", "--features", "2"]
    yield ["approx-bench", "--dims", "8", "--pairs", "3", "--out", "ab/bench.csv"]

    # --- usage errors: exit 1
    yield []
    yield ["nope"]
    yield ["train", "--no-such-flag"]
    yield ["train"]
    yield ["train", "--set", "bogus.key=1"]
    yield ["train", "--set", "train.seed=abc"]
    yield ["train", "--trials", "x"]  # a flag's text is parsed by its key, as --set's is
    yield ["train", "--set", "model.batch_norm=maybe"]
    yield ["train", "--set", "train.seed"]
    yield ["train", "--task", "monks1", "--set", "out=a\nb"]  # config.txt could not hold it on one line
    yield ["train", "--config", "missing.cfg"]
    yield ["train", "--config", _write("noeq.cfg", "data.task monks1\n")]
    yield ["train", "--config", _write("nul.cfg", "data.path = a\x00b\n")]
    yield ["train", "--config", _write("fmt.cfg", "data.format = arff\n")]
    yield ["train", "--task", "monks1", "--lr", "-1"]
    yield ["train", "--task", "monks1", "--data-path", three]
    yield ["train", "--data-path", three, "--data-split", "provided"]
    for flags in (["--batch-size", "0"], ["--layers", "2", "--dim", "4,4,4"], ["--batch-size", "1"]):
        yield ["train", "--data-path", "missing.csv", *flags, "--out", "bad"]  # a usage error, found first
    for flags in (["--dim", "1000000000000000"], ["--layers", "1000000000000000", "--dim", "1"]):
        yield ["train", "--task", "monks1", *flags, "--epochs", "0", "--out", "bad"]  # more parameters than fit
    for flags in (["--layers", "abc"], ["--layers", "0"], ["--layers", "2", "--dim", "4,4,4"], ["--dim", "0"],
                  ["--batch-size", "0"], ["--epochs", "-1"], ["--batch-size", "1"]):
        yield ["train", "--task", "monks1", *flags, "--out", "bad"]
    yield ["eval", model]
    yield ["eval", model, "--task", "monks1", "--format", "libsvm", "--label-column", "3", "--out", "bad"]
    for flags in (["--bins", "0"], ["--bins", "1000000000000000"], ["--max-samples", "-1"], ["--hist-dims", "a"],
                  ["--layer", "5"], ["--hist-dims", "9"], ["--kpca-dim", "3", "--max-samples", "2"]):
        yield ["inspect", model, "--task", "monks1", *flags, "--out", "bad"]
    for flags in (["--dims", ","], ["--dims", "0"], ["--spread", "nan"], ["--bandwidth", "0"], ["--pairs", "0"],
                  ["--features", "-2"], ["--pairs", "1000000000000000"], ["--dims", "1000000000000000"]):
        yield ["approx-bench", *flags]

    # --- data errors: exit 2
    yield ["train", "--task", "nosuch"]
    for name, line in (("nul", "t csv -1 random_half a\x00b"), ("fields", "t csv -1"),
                       ("format", "t arff -1 random_half d.csv"), ("split", "t csv -1 kfold d.csv"),
                       ("column", "t csv x random_half d.csv"), ("test", "t csv -1 provided d.csv"),
                       ("twice", "t csv -1 random_half d.csv\nt csv -1 random_half e.csv")):
        yield ["train", "--task", "t", "--registry", _write(f"reg-{name}.txt", f"# {name}\n{line}\n")]
    for name, text in (("utf8", b"\xff\xfe1,2,0\n"), ("ragged", "1,2,a\n1,b\n"), ("empty", ""),
                       ("cell", "1,x,a\n2,3,b\n"), ("field", "1," + "9" * 140_000 + ",a\n"),
                       ("labels", "a\nb\n"), ("nan", "nan,1,a\n2,3,b\n"), ("one-row", "1,2,a\n"),
                       ("one-class", "1,2,a\n3,4,a\n5,6,a\n7,8,a\n")):
        yield ["train", "--data-path", _write(f"{name}.csv", text), "--out", "bad"]
    yield ["train", "--data-path", _write("overflow.csv", "1e308,0,x\n-1e308,1,y\n"), "--test-path", te,
           "--out", "bad"]
    yield ["train", "--data-path", three, "--label-column", "5"]
    for name, text in (("entry", "1 1:x\n"), ("order", "1 2:1 1:1\n"), ("none", "# nothing\n"),
                       ("huge", "1 1:0.5\n2 1000000000000000:1\n"), ("past", "1 1:0.5\n2 99999999999999999999:1\n")):
        yield ["train", "--data-path", _write(f"{name}.svm", text), "--format", "libsvm"]
    yield ["train", "--data-path", tr, "--test-path", _write("wide.csv", "0,0,0,x\n"), "--out", "bad"]
    yield ["train", "--data-path", tr, "--test-path", _write("unseen.csv", "0,0,z\n"), "--out", "bad"]
    yield ["eval", model, "--task", "blobs"]
    yield ["eval", model, "--data-path", _write("unseen6.csv", "1,1,1,1,1,1,z\n")]
    yield ["eval", "missing.bin", "--task", "monks1"]
    header, values = _read_snapshot(model)
    D, d_in = header["layers"][0]["D"], header["layers"][0]["d_in"]
    variance_end = D * d_in + 4 * 2 * D  # layer 0's omega, then its gamma, beta, mean and variance
    for name, blob in (
            ("magic", b"not a snapshot\n"),
            ("newline", SNAPSHOT_MAGIC + b'{"layers": []}'),
            ("ragged", _snapshot_bytes(header, values) + b"123"),
            ("json", SNAPSHOT_MAGIC + b"{not json\n"),
            ("trailing", _snapshot_bytes(header, values) + np.zeros(1).tobytes()),
            ("truncated", _snapshot_bytes(header, values[:-1])),
            ("nan", _snapshot_bytes(header, _replaced(values, 0, np.nan))),
            ("variance", _snapshot_bytes(header, _replaced(values, variance_end - 1, -1.0))),
            ("divisor", _snapshot_bytes(header, _replaced(values, -1, 0.0)))):  # the last stage's last divisor
        yield ["eval", _write(f"{name}.bin", blob), "--task", "monks1"]
    for name, edit in (("dims", lambda h, w: _set(h["layers"][0], "D", 0)),
                       ("names", lambda h, w: _set(h, "label_names", ["a"])),
                       ("layers", lambda h, w: _set(h, "layers", [])),
                       ("bn", lambda h, w: _set(h["layers"][1], "batchnorm", 1)),
                       ("loss", lambda h, w: _set(h, "loss_kind", "absolute")),
                       ("key", lambda h, w: h.pop("preprocess_stages"))):
        yield ["eval", _edited(model, f"{name}.bin", edit), "--task", "monks1"]
    yield ["eval", _edited("v1.bin", "chain.bin", lambda h, w: _set(h["layers"][1], "d_in", 3)), "--task", "blobs"]

    # --- numeric failures: exit 3
    yield ["train", "--task", "blobs", "--lr", "1e308", "--epochs", "2", "--dim", "4", "--out", "big"]
    yield ["train", "--task", "monks1", "--epochs", "0", "--dim", "2", "--set", "model.omega_stddev=1e308",
           "--out", "big"]
    for flags in (["--spread", "1e308"], ["--bandwidth", "1e-308"]):
        yield ["approx-bench", *flags, "--dims", "64"]

    def overflowing(h, omega):
        omega[...] = 1e308
        omega[::2, 1] = 0.0  # column 1 still bins, so inspect reaches the features

    big = _edited(model, "big.bin", overflowing)
    yield ["eval", big, "--task", "monks1"]
    yield ["inspect", big, "--task", "monks1", "--hist-dims", "1", "--out", "bad"]
    yield ["inspect", _edited(model, "narrow.bin", lambda h, w: _set(w, (slice(None), 0), 1e15)),
           "--task", "monks1", "--out", "bad"]  # too narrow a range for 20 bins
    yield ["inspect", _edited(model, "wide.bin", lambda h, w: _set(w, (slice(None), 0), [1e308, -1e308] * 2)),
           "--task", "monks1", "--out", "bad"]  # a range wider than the largest float64


def run() -> tuple[list[tuple[list[str], object, str]], list[tuple[str, int, str]]]:
    """Run the corpus in a temporary directory; returns ([(argv, exit code,
    stderr)], [(module file, line, text) of each unreached statement]).

    The sources are parsed before the first command runs, so a source edited
    while the corpus runs cannot shift the lines that the report names."""
    sources = {path.name: statements(path) for path in sorted(PACKAGE_DIR.glob("*.py"))}
    tracer = LineTracer()
    make_datasets = _load_make_datasets()
    cli._blas_threads.cache_clear()  # a per-process lookup: the corpus's first command must run it, traced
    results = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for argv in corpus():
                code, err = run_command(argv, tracer, make_datasets)
                results.append((argv, code, err.replace(tmp, "<tmp>")))
        finally:
            os.chdir(cwd)
    executed = tracer.lines()
    unreached = []
    for name, found in sources.items():
        lines = executed.get(name, set())
        for line, (span, text) in sorted(found.items()):
            if not lines.intersection(span):
                unreached.append((name, line, text))
    return results, unreached


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--commands", action="store_true", help="print each command's exit code and stderr first")
    args = parser.parse_args()
    results, unreached = run()
    if args.commands:
        for argv, code, err in results:
            print(f"exit {code}: {shlex.join(argv)}")
            for line in err.splitlines():
                print(f"    {line}")
    for module, line, text in unreached:
        print(f"{module}:{line}: {text}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
