"""Every module of the package uses each name it imports, and every
top-level name, method and property of the package is used somewhere.

A deletion that leaves an import behind shows here, and so does a function,
class, constant, method or property that only its own definition mentions.
``__init__.py`` only re-exports, so it is not scanned, and its re-exports do
not count as uses.  The tests and the benchmark count as users, and are
scanned for unused imports too.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import macroplan

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "macroplan"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS = sorted((ROOT / "tests").rglob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
# where a use of a package name counts
USERS = MODULES + TESTS + BENCH


def imported_names(tree):
    """Bound name -> line of each import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


def used_names(tree):
    """Names read anywhere, including inside quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann) if ann is not None else ():
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= used_names(ast.parse(sub.value, mode="eval"))
    return used


def test_scan_covers_the_package():
    assert {p.name for p in MODULES} >= {"decposmdp.py", "tma.py", "cli.py"}


@pytest.mark.parametrize("path", MODULES + TESTS + BENCH,
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = used_names(tree)
    unused = sorted(f"{name} (line {line})"
                    for name, line in imported_names(tree).items()
                    if name not in used)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def top_level_names(tree):
    """Name -> defining statement of each top-level function, class and
    constant, dunders left out."""
    defs = {}
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            defs[stmt.name] = stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = (stmt.targets if isinstance(stmt, ast.Assign)
                       else [stmt.target])
            for node in targets:
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Name):
                        defs[sub.id] = stmt
    return {n: s for n, s in defs.items() if not n.startswith("__")}


def references(tree):
    """Each identifier a tree reads, once per read: names, attributes, and
    strings that are identifiers (quoted annotations; the bench tracer
    binds by attribute name)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier()):
            yield node.value


def test_every_top_level_name_is_used():
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in USERS}
    uses = [(stmt, set(references(stmt)))
            for tree in trees.values() for stmt in tree.body]
    unused = sorted(
        f"{path.name}:{name}"
        for path in MODULES
        for name, own in top_level_names(trees[path]).items()
        if not any(name in names for stmt, names in uses if stmt is not own))
    assert not unused, f"top-level names nothing uses: {unused}"


def methods(tree):
    """``Class.name`` -> definition of each method and property of each
    top-level class, dunders left out."""
    return {f"{stmt.name}.{item.name}": item
            for stmt in tree.body if isinstance(stmt, ast.ClassDef)
            for item in stmt.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not item.name.startswith("__")}


def test_every_method_and_property_is_used():
    # by name only: a use of any attribute of that name counts, so this
    # finds a method whose name nothing else reads
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in USERS}
    reads = Counter(name for tree in trees.values() for name in references(tree))
    unused = sorted(
        f"{path.name}:{qualname}"
        for path in MODULES
        for qualname, own in methods(trees[path]).items()
        if reads[own.name] == sum(1 for n in references(own) if n == own.name))
    assert not unused, f"methods and properties nothing uses: {unused}"


def raised_names(tree):
    """The name of each exception class a ``raise`` statement names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name):
                yield exc.id


def test_every_error_is_raised():
    # an error class the package never raises is one a caller catches for
    # nothing
    errors = {name for name, value in vars(macroplan.errors).items()
              if isinstance(value, type)
              and issubclass(value, macroplan.errors.MacroplanError)
              and value is not macroplan.errors.MacroplanError}
    raised = {name for path in MODULES
              for name in raised_names(ast.parse(path.read_text()))}
    assert errors, "no error classes found"
    assert not errors - raised, (
        f"error classes the package never raises: {sorted(errors - raised)}")


def test_bench_tracer_bindings_exist():
    # the traced benchmark run replaces each bound attribute by name, so a
    # rename in the package would crash it with a KeyError
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for _, targets, _ in tracer.bindings(macroplan)
               for owner, attr in targets if attr not in vars(owner)]
    assert not missing, f"traced names the package lacks: {missing}"


def test_runtime_never_loads_scipy(tmp_path):
    # scipy is a test dependency only; a fresh interpreter that runs one
    # build-tma must not have loaded it, not even lazily inside a function
    config = ROOT / "configs" / "tma_single.yaml"
    script = (
        "import sys\n"
        "from macroplan import cli\n"
        f"rc = cli.main(['build-tma', '--config', {str(config)!r}, "
        f"'--out', {str(tmp_path / 'tma.json')!r}])\n"
        "assert rc == 0, rc\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    run = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[-1] == "[]"
