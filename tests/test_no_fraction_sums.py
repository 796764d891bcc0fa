"""Exact sums in the package add integers over one denominator and build
one ``Fraction`` at the end; ``sum(..., Fraction(0))``,
``sum(..., _ZERO)`` and ``total = Fraction(0)`` followed by
``total += ...``, which add ``Fraction`` objects one at a time, must not
come back."""

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


SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def scope_nodes(scope: ast.AST):
    """The nodes of ``scope`` outside the functions and classes nested in it."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def fraction_accumulations(tree: ast.AST) -> list[int]:
    """Lines of the ``name += ...`` statements on a name that the same
    function (or the module) binds to a zero ``Fraction`` on an earlier
    line."""
    found = set()
    for scope in ast.walk(tree):
        if not isinstance(scope, SCOPES):
            continue
        zeros = {}
        for node in scope_nodes(scope):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, ast.AnnAssign):  # value None: a bare annotation
                targets = [node.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and is_fraction_zero(node.value):
                    zeros.setdefault(target.id, node.lineno)
        found.update(
            node.lineno
            for node in scope_nodes(scope)
            if isinstance(node, ast.AugAssign)
            and isinstance(node.op, ast.Add)
            and isinstance(node.target, ast.Name)
            and zeros.get(node.target.id, node.lineno) < node.lineno
        )
    return sorted(found)


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


def test_the_accumulation_rule_finds_each_spelling():
    code = (
        "def f(ws):\n"
        "    total = Fraction(0)\n"
        "    for w in ws:\n"
        "        total += w\n"  # 4
        "    acc: Fraction = _ZERO\n"
        "    acc += ws[0]\n"  # 6
        "    count = 0\n"
        "    count += 1\n"
        "    total -= 1\n"
        "def g(ws):\n"
        "    total += ws[0]\n"  # a name bound in f only
        "    one = Fraction(1)\n"
        "    one += 1\n"
    )
    assert fraction_accumulations(ast.parse(code)) == [4, 6]


def test_package_sources_contain_no_fraction_accumulation():
    found = [
        f"{path.name}:{line}"
        for path in SOURCES
        for line in fraction_accumulations(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []
