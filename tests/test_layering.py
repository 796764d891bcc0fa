"""The exact identifiability core runs on the standard library alone:
``core``, ``rational``, ``lp`` and ``identify`` import only each other,
``errors`` and standard-library modules, so the paper's scenarios and
reports (``reproduce``, ``report``) and numpy stay outside it.  Only the
float simulators, ``classical`` and ``quantum``, import numpy: the exact
core, ``errors``, ``modelio``, ``report`` and ``toy`` import neither
simulator nor numpy."""

import ast
import sys
from pathlib import Path

import cforacle

PACKAGE = Path(cforacle.__file__).parent
CORE = {"core", "rational", "lp", "identify"}
NUMPY_FREE = CORE | {"errors", "modelio", "report", "toy"}
# an absolute ``cforacle`` import could reach either simulator
FLOAT_LAYERS = {"classical", "quantum", "numpy", "cforacle"}


def imported_modules(tree: ast.AST) -> set[str]:
    """The top-level name of every module that ``tree`` imports, anywhere
    in its body; a relative import gives the package module's bare name,
    and an absolute ``cforacle.x`` import gives ``cforacle``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.split(".")[0])  # from .core / fractions import x
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}  # from . import lp
    return found


def module_imports(name: str) -> set[str]:
    """``imported_modules`` of the package module ``name``."""
    source = (PACKAGE / f"{name}.py").read_text(encoding="utf-8")
    return imported_modules(ast.parse(source))


def test_the_rule_reads_each_import_form():
    code = (
        "import numpy.linalg\nfrom . import lp, report\nfrom .core import x\n"
        "from cforacle.quantum import y\nfrom fractions import Fraction\n"
        "def f():\n    import json\n"
    )
    assert imported_modules(ast.parse(code)) == {
        "numpy", "lp", "report", "core", "cforacle", "fractions", "json",
    }


def test_exact_core_imports_only_itself_errors_and_the_standard_library():
    allowed = CORE | {"errors"} | set(sys.stdlib_module_names)
    outside = {name: sorted(module_imports(name) - allowed) for name in sorted(CORE)}
    assert outside == {name: [] for name in sorted(CORE)}


def test_only_the_float_simulators_import_numpy():
    found = {
        name: sorted(module_imports(name) & FLOAT_LAYERS) for name in sorted(NUMPY_FREE)
    }
    assert found == {name: [] for name in sorted(NUMPY_FREE)}
