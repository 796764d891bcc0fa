"""The exact identifiability core runs on the standard library alone:
``core``, ``rational``, ``lp`` and ``identify`` import only each other,
``errors`` and standard-library modules, so the paper's scenarios and
reports (``reproduce``, ``report``) and numpy stay outside it."""

import ast
import sys
from pathlib import Path

import cforacle

PACKAGE = Path(cforacle.__file__).parent
CORE = {"core", "rational", "lp", "identify"}


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
    outside = {
        name: sorted(imported_modules(tree) - allowed)
        for name in sorted(CORE)
        for tree in [ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))]
    }
    assert outside == {name: [] for name in sorted(CORE)}
