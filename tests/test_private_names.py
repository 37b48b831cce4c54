"""No package module reads another module's private (underscore) names,
every public top-level name of the package has a caller, and the package
imports nothing but the standard library and numpy."""

import ast
import importlib
import inspect
import pathlib
import pkgutil
import sys

import pytest

import newtonbench
from newtonbench import smoothing


def _is_private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _modules():
    yield newtonbench
    for info in pkgutil.walk_packages(newtonbench.__path__, "newtonbench."):
        yield importlib.import_module(info.name)


def private_reads(source, namespace):
    """Sorted (line, text) of every private name the source takes from
    another module, by `from ... import _name` or by `module._name`, where
    namespace says which names are bound to modules."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            found += [(node.lineno, f"import {a.name}") for a in node.names if _is_private(a.name)]
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and _is_private(node.attr)
            and inspect.ismodule(namespace.get(node.value.id))
        ):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("module", list(_modules()), ids=lambda m: m.__name__)
def test_no_private_names_across_modules(module):
    assert private_reads(inspect.getsource(module), vars(module)) == []


def test_detector_sees_both_forms():
    source = "from .report import _fmt\nsmoothing._draws(cfg, 3)\nstate._count += 1\n"
    namespace = {"smoothing": smoothing, "state": object()}
    assert private_reads(source, namespace) == [
        (1, "import _fmt"),
        (2, "smoothing._draws"),
    ]


def _defined(node):
    """The public names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _reads(node):
    """Every name a statement reads: bare names, attributes and imports."""
    found = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            found.add(n.id)
        elif isinstance(n, ast.Attribute):
            found.add(n.attr)
        elif isinstance(n, ast.alias):
            found.add(n.name)
    return found


def uncalled(modules, callers):
    """Sorted public names defined at the top level of the module sources
    that no other top-level statement of the caller sources reads; both
    arguments map a path to its source."""
    reads = {
        (path, node.lineno): _reads(node)
        for path, source in callers.items()
        for node in ast.parse(source).body
    }
    return sorted(
        name
        for path, source in modules.items()
        for node in ast.parse(source).body
        for name in _defined(node)
        if not any(name in r for key, r in reads.items() if key != (path, node.lineno))
    )


def test_every_public_name_has_a_caller():
    root = pathlib.Path(__file__).resolve().parents[1]
    package = sorted((root / "src" / "newtonbench").rglob("*.py"))
    callers = package + sorted((root / "stepbench").glob("*.py"))
    callers.append(root / "tests" / "test_acceptance.py")
    source = {p: p.read_text() for p in callers}
    assert uncalled({p: source[p] for p in package}, source) == []


def test_caller_detector_ignores_a_definition_reading_itself():
    source = "def loop(n):\n    return loop(n - 1)\nA = 1\nB = A\nC = D = 2\nprint(D)\n"
    assert uncalled({"m": source}, {"m": source}) == ["B", "C", "loop"]


def foreign_imports(source):
    """Sorted (line, module) of every import in source, function-local ones
    included, that names neither the standard library, numpy, nor the
    package; relative imports are the package's own."""
    allowed = set(sys.stdlib_module_names) | {"numpy", "newtonbench"}
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        found += [(node.lineno, n) for n in names if n.partition(".")[0] not in allowed]
    return sorted(found)


def test_package_imports_only_stdlib_and_numpy():
    root = pathlib.Path(__file__).resolve().parents[1] / "src"
    found = {
        str(p.relative_to(root)): foreign_imports(p.read_text())
        for p in sorted(root.rglob("*.py"))
    }
    assert {path: imports for path, imports in found.items() if imports} == {}


def test_import_detector_sees_local_and_dotted_imports():
    source = (
        "import os, numpy.linalg\nfrom . import net\nfrom ..errors import E\n"
        "def f():\n    import jsonschema\n    from scipy.special import expit\n"
    )
    assert foreign_imports(source) == [(5, "jsonschema"), (6, "scipy.special")]
