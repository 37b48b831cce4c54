"""No package module reads another module's private (underscore) names."""

import ast
import importlib
import inspect
import pkgutil

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
