"""Exact sums in the package add integers over one denominator and build
one ``Fraction`` at the end; ``sum(..., Fraction(0))`` and
``sum(..., _ZERO)``, which add ``Fraction`` objects one at a time, must
not come back."""

import ast
from pathlib import Path

import cforacle

SOURCES = sorted(Path(cforacle.__file__).parent.glob("*.py"))


def is_fraction_zero(node: ast.expr) -> bool:
    """``Fraction(0)``, ``fractions.Fraction(0)`` or the name ``_ZERO``."""
    if isinstance(node, ast.Name):
        return node.id == "_ZERO"
    if not isinstance(node, ast.Call) or node.keywords or len(node.args) != 1:
        return False
    func, arg = node.func, node.args[0]
    named = (isinstance(func, ast.Name) and func.id == "Fraction") or (
        isinstance(func, ast.Attribute) and func.attr == "Fraction"
    )
    return named and isinstance(arg, ast.Constant) and arg.value == 0


def fraction_sums(tree: ast.AST) -> list[int]:
    """Lines of the ``sum`` calls in ``tree`` that start from a zero
    ``Fraction``, positionally or as ``start=``."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "sum"
        and any(
            map(is_fraction_zero, node.args[1:] + [k.value for k in node.keywords])
        )
    ]


def test_the_rule_finds_each_spelling():
    code = (
        "sum(xs, Fraction(0))\nsum(xs, _ZERO)\nsum(xs, start=Fraction(0))\n"
        "sum(xs, fractions.Fraction(0))\nsum(xs)\nsum(xs, 0)\nsum(xs, Fraction(1))\n"
    )
    assert fraction_sums(ast.parse(code)) == [1, 2, 3, 4]


def test_package_sources_contain_no_fraction_sum():
    assert SOURCES
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in fraction_sums(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
