"""Safety checks in the package must raise, because ``python -O`` strips
``assert`` statements."""

import ast
from pathlib import Path

import cforacle

SOURCES = sorted(Path(cforacle.__file__).parent.glob("*.py"))


def test_package_sources_contain_no_assert():
    assert SOURCES
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
