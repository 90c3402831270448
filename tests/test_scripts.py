import ast
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = os.path.join(os.path.dirname(__file__), "..")


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, os.path.join(ROOT, "scripts", f"{name}.py"))
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_arff_conversion(tmp_path):
    fetch = load_script("fetch_data")
    arff = (
        "% comment\n"
        "@RELATION demo\n"
        "@ATTRIBUTE f1 NUMERIC\n"
        "@ATTRIBUTE f2 NUMERIC\n"
        "@ATTRIBUTE class {0,1}\n"
        "@DATA\n"
        "1.5,2.5,0\n"
        "\n"
        "3.25,-1,1\n"
    )
    rows = list(fetch.arff_data_rows(arff))
    assert rows == [["1.5", "2.5", "0"], ["3.25", "-1", "1"]]
    out = tmp_path / "demo.csv"
    n = fetch.convert_arff(arff, str(out), expect_cols=3)
    assert n == 2
    assert out.read_text() == "1.5,2.5,0\n3.25,-1,1\n"


def test_make_datasets_writes_registry_and_files(tmp_path):
    env = dict(os.environ)
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "make_datasets.py"), "--out", str(tmp_path)],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    from rffnet.cli import RunConfig, load_task_data
    from rffnet.dataio import parse_registry

    registry = str(tmp_path / "registry.txt")
    assert set(parse_registry(registry)) == {"monks1", "monks2", "monks3"}
    train, test = load_task_data(RunConfig(task="monks1", registry=registry)).for_trial(0)
    assert train.n == 124 and test.n == 432
    # files round-trip the generator exactly (up to label-index naming)
    from rffnet.tasks import make_monks

    gen_train, _ = make_monks("monks1")
    assert np.array_equal(np.sort(train.X, axis=0), np.sort(gen_train.X, axis=0))


def _public_definitions(tree):
    """(name, line) of every public function, class and method defined in a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.lineno
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member.name, member.lineno


def test_every_public_src_name_has_a_non_test_caller():
    # code that only tests call belongs in tests/, next to the tests that use it
    sources = {}
    for top in ("src", "scripts", "perfbench"):
        for path in sorted(Path(ROOT, top).rglob("*.py")):
            if path.name != "__init__.py" and path.name != "conftest.py" and not path.name.startswith("test_"):
                sources[path] = path.read_text().splitlines()
    orphans = []
    for path in sorted(Path(ROOT, "src", "rffnet").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for name, def_line in _public_definitions(ast.parse(path.read_text())):
            word = re.compile(rf"\b{re.escape(name)}\b")
            used = any(word.search(line) for file, lines in sources.items()
                       for no, line in enumerate(lines, start=1) if (file, no) != (path, def_line))
            if not used:
                orphans.append(f"{path.stem}.{name}")
    assert orphans == []


def test_no_src_module_reads_another_modules_private_name():
    # a private name is its module's own; a name another module needs is public
    modules = {path.stem for path in Path(ROOT, "src", "rffnet").glob("*.py")}
    assert "cli" in modules
    reads = []
    for path in sorted(Path(ROOT, "src", "rffnet").glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()  # local names bound to an rffnet module
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("rffnet")):
                package = node.module in (None, "rffnet")  # from . import m, from rffnet import m
                for alias in node.names:
                    if package and alias.name in modules:
                        imported.add(alias.asname or alias.name)
                    elif not package and alias.name.startswith("_"):
                        reads.append(f"{path.stem}:{node.lineno}: from {node.module} import {alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in imported and node.attr.startswith("_")):
                reads.append(f"{path.stem}:{node.lineno}: {node.value.id}.{node.attr}")
    assert reads == []


def test_the_package_root_re_exports_nothing_and_no_code_imports_a_name_from_it():
    # code imports the submodules; the root keeps only forward_full, a binding site perfbench's
    # install self-test checks
    package = Path(ROOT, "src", "rffnet")
    bound = set()
    for node in ast.parse((package / "__init__.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        else:
            bound |= {n.id for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
    assert bound == {"forward_full", "__version__"}
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    names = []
    for top in ("src", "scripts", "tests"):
        for path in sorted(Path(ROOT, top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                # from rffnet import m, or from . import m inside the package
                if isinstance(node, ast.ImportFrom) and ((node.module, node.level) == ("rffnet", 0) or (
                        (node.module, node.level) == (None, 1) and path.parent == package)):
                    names += [f"{path.name}:{node.lineno}: {a.name}" for a in node.names if a.name not in modules]
    assert names == []


def test_no_src_module_but_cli_imports_cli():
    # the library is passed the run's config and never reaches back into the command line;
    # an import inside a function counts too
    importers = []
    for path in sorted(Path(ROOT, "src", "rffnet").glob("*.py")):
        if path.name == "cli.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                package = "." * node.level + (node.module or "")
                names = [package] + [f"{package.rstrip('.')}.{alias.name}" for alias in node.names]
            else:
                continue
            if any(".cli." in f".{name}." for name in names):
                importers.append(f"{path.name}:{node.lineno}")
    assert importers == []


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__.py imports forward_full to bind it there, not to use it
    unused = []
    for top in ("src/rffnet", "tests", "scripts"):
        for path in sorted(Path(ROOT, top).glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text())
            used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    bound = [(alias.asname or alias.name.split(".")[0], node.lineno) for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                    bound = [(alias.asname or alias.name, node.lineno) for alias in node.names]
                else:
                    continue
                unused += [f"{top}/{path.name}:{line}: {name}" for name, line in bound if name not in used]
    assert unused == []


def test_one_error_class_per_exit_code_and_one_floating_point_policy_in_cli_main():
    # the exception class is the exit code, and numpy's warnings are switched off once, where every
    # command runs, so a failure is reported by its finite check alone
    package = Path(ROOT, "src", "rffnet")
    errors = ast.parse((package / "errors.py").read_text())
    assert {node.name for node in errors.body if isinstance(node, ast.ClassDef)} == {
        "RffnetError", "ParameterError", "DataError", "NumericError"}
    sites = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        sites += [(path.name, node.lineno) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "errstate"
                  or isinstance(node, ast.Name) and node.id == "errstate"]
    cli_tree = ast.parse((package / "cli.py").read_text())
    main = next(node for node in cli_tree.body if isinstance(node, ast.FunctionDef) and node.name == "main")
    assert len(sites) == 1 and sites[0][0] == "cli.py" and main.lineno <= sites[0][1] <= main.end_lineno, sites


def test_mem_probe_trains_on_a_small_eeg_shaped_file(tmp_path):
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "mem_probe.py"), "--rows", "300", "--out", str(tmp_path)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    peak = float(re.fullmatch(r"rows 300 peak_rss_mb (\S+)\n", result.stdout).group(1))
    assert peak > 0
    assert (tmp_path / "metrics.csv").read_text().startswith("trial,seed,test_acc,train_acc\n")


# the statements of src/rffnet that no command of scripts/reach.py's corpus executes, and why each stays
REACH_ALLOWLIST = {
    ("cli.py", 'return field(default=default, metadata={"key": key, "flag": flag, "choices": choices, '
               '"check": check})'):
        "runs at import, while RunConfig's class body builds the key table; the tracer runs only during commands",
    ("cli.py", "return (lambda: 1), (lambda n: None)"):
        "the corpus runs on numpy's bundled OpenBLAS, whose thread count main pins to one; with another BLAS "
        "library, or without /proc/self/maps, there is nothing to pin",
    ("optimizer.py", 'raise ParameterError("a trainable array was rebound and is no longer a view of net.flat; "'):
        "code outside fit can rebind a parameter after the network is built, and fit would then train a stale "
        "buffer without any error",
}


def test_reach_corpus_exits_cleanly_and_leaves_only_the_allowlisted_statements_unreached():
    # a new branch that no command reaches fails here: delete it, reach it from the corpus, or allowlist it
    results, unreached = load_script("reach").run()
    unclean = [(argv, code, err) for argv, code, err in results
               if code not in (0, 1, 2, 3) or len(err.splitlines()) > 1]
    assert unclean == []
    assert sorted({(module, text) for module, _, text in unreached}) == sorted(REACH_ALLOWLIST)


def test_reach_parses_every_source_before_the_first_command(monkeypatch):
    reach = load_script("reach")
    calls = []
    monkeypatch.setattr(reach, "statements", lambda path: calls.append(path.name) or {})

    def corpus():
        calls.append("corpus")
        yield from ()

    monkeypatch.setattr(reach, "corpus", corpus)
    assert reach.run() == ([], [])
    assert calls == [path.name for path in sorted(reach.PACKAGE_DIR.glob("*.py"))] + ["corpus"]
