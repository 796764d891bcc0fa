"""Validation happens once, at the boundary.

The package's own constructors build their objects through one private
unchecked constructor, ``core._built``, which skips ``__post_init__``:
distributions through ``core._trusted``, which computes their weights
first, and constraint systems and targets directly.  These tests show
that each builds what the checked constructors build, and list every
caller, so that no route from user input reaches them unnoticed.
Tables hash once, and a distribution keeps one output store."""

import ast
import dataclasses
import itertools
import json
import pickle
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cforacle
from cforacle import (
    ConfoundedModel,
    ConstraintSystem,
    CounterfactualQuery,
    DomainError,
    FunctionDistribution,
    FunctionTable,
    LinearTarget,
    ToyEpistemicState,
    build_constraints,
    enumerate_functions,
)
from cforacle.core import _trusted
from cforacle.modelio import confounded_to_json_dict, distribution_to_json_dict

PACKAGE = Path(cforacle.__file__).resolve().parent
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
CARDS = [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (1, 5)]
ONTIC_STATES = list(itertools.product((0, 1), repeat=4))


@st.composite
def numerators(draw, count):
    """``count`` nonnegative numerators, some zero, over a denominator that
    is their sum times a common factor, so it is often not reduced."""
    raw = draw(st.lists(st.integers(0, 6), min_size=count, max_size=count))
    if not any(raw):
        raw[draw(st.integers(0, count - 1))] = 1
    factor = draw(st.integers(1, 12))
    return [r * factor for r in raw], sum(raw) * factor


def same_object(trusted, checked, name):
    """The two builds agree on everything a caller can read."""
    weights, expected = getattr(trusted, name), getattr(checked, name)
    assert trusted == checked
    assert list(weights.items()) == list(expected.items())
    assert [hash(key) for key in weights] == [hash(key) for key in expected]
    assert hash(tuple(weights.items())) == hash(tuple(expected.items()))
    assert (trusted._nums, trusted._den) == (checked._nums, checked._den)
    assert repr(trusted) == repr(checked)
    assert type(trusted) is type(checked)


@given(st.sampled_from(CARDS), st.data())
@SETTINGS
def test_a_trusted_distribution_is_the_checked_one(cards, data):
    n_x, n_y = cards
    tables = enumerate_functions(n_x, n_y)
    nums, den = data.draw(numerators(len(tables)))
    checked = FunctionDistribution(
        n_x, n_y, {t: Fraction(num, den) for t, num in zip(tables, nums)}
    )
    trusted = _trusted(
        FunctionDistribution, "weights", zip(tables, nums), den, n_x=n_x, n_y=n_y
    )
    same_object(trusted, checked, "weights")
    assert json.dumps(distribution_to_json_dict(trusted)) == json.dumps(
        distribution_to_json_dict(checked)
    )


@given(st.sampled_from(CARDS), st.data())
@SETTINGS
def test_a_trusted_confounded_model_is_the_checked_one(cards, data):
    n_x, n_y = cards
    keys = list(itertools.product(range(n_x), enumerate_functions(n_x, n_y)))
    nums, den = data.draw(numerators(len(keys)))
    checked = ConfoundedModel(
        n_x, n_y, {key: Fraction(num, den) for key, num in zip(keys, nums)}
    )
    trusted = _trusted(
        ConfoundedModel, "joint_weights", zip(keys, nums), den, n_x=n_x, n_y=n_y
    )
    same_object(trusted, checked, "joint_weights")
    assert json.dumps(confounded_to_json_dict(trusted)) == json.dumps(
        confounded_to_json_dict(checked)
    )
    marginal = {}
    for (_, table), w in checked.joint_weights.items():
        marginal[table] = marginal.get(table, 0) + w
    expected = FunctionDistribution(n_x, n_y, marginal)
    same_object(trusted.response_marginal(), expected, "weights")


@given(numerators(len(ONTIC_STATES)))
@SETTINGS
def test_a_trusted_toy_state_is_the_checked_one(drawn):
    nums, den = drawn
    checked = ToyEpistemicState(
        {s: Fraction(num, den) for s, num in zip(ONTIC_STATES, nums)}
    )
    trusted = _trusted(ToyEpistemicState, "probs", zip(ONTIC_STATES, nums), den)
    same_object(trusted, checked, "probs")


def test_the_package_built_constructors_match_the_checked_path():
    for n_x, n_y in CARDS:
        tables = enumerate_functions(n_x, n_y)
        w = Fraction(1, len(tables))
        checked = FunctionDistribution(n_x, n_y, {t: w for t in tables})
        same_object(FunctionDistribution.uniform(n_x, n_y), checked, "weights")


def entry_types(rows):
    return [(tuple(map(type, coeffs)), type(rhs)) for coeffs, rhs in rows]


@given(st.sampled_from(CARDS), st.sampled_from(["one-way", "two-way"]), st.data())
@SETTINGS
def test_a_trusted_system_and_target_are_the_checked_ones(cards, level, data):
    n_x, n_y = cards
    tables = enumerate_functions(n_x, n_y)
    nums, den = data.draw(numerators(len(tables)))
    model = FunctionDistribution(
        n_x, n_y, {t: Fraction(num, den) for t, num in zip(tables, nums)}
    )
    trusted = build_constraints(model, level)
    checked = ConstraintSystem(n_x, n_y, trusted.rows)
    assert trusted == checked
    assert entry_types(trusted.rows) == entry_types(checked.rows)
    assert (type(trusted), repr(trusted)) == (type(checked), repr(checked))
    inputs = data.draw(st.lists(st.integers(0, n_x - 1), min_size=1, unique=True))
    pairs = tuple((x, data.draw(st.integers(0, n_y - 1))) for x in inputs)
    target = LinearTarget.from_query(CounterfactualQuery(pairs), n_x, n_y)
    checked_target = LinearTarget(target.coefficients)
    assert target == checked_target
    assert [type(c) for c in target.coefficients] == [
        type(c) for c in checked_target.coefficients
    ]
    assert (type(target), repr(target)) == (type(checked_target), repr(checked_target))


# Every caller of each trusted constructor, as module.qualified.name.  Each
# builds from values the package made itself, never from a caller's input.
TRUSTED_CALLERS = {
    "core.FunctionDistribution.uniform",
    "core.ConfoundedModel.response_marginal",
    "identify._witness",
    "identify.solve_binary_pF",
    "toy.apply_oracle_mixture",
}
BUILT_CALLERS = {
    "core._trusted",
    "identify.LinearTarget.from_query",
    "identify.build_constraints",
}


def callers(name):
    """``module.qualname`` of every function in the package that names
    ``name``, called or passed, and the module itself for a name outside
    any function; an import binds through ``ast.alias``, not a name."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
            elif isinstance(child, ast.Name) and child.id == name:
                found.add(".".join(scope))
            elif isinstance(child, ast.Attribute) and child.attr == name:
                found.add(".".join(scope))
            else:
                visit(child, scope)

    for path in PACKAGE.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), [path.stem])
    return found


def test_the_trusted_constructor_has_only_the_listed_callers():
    assert callers("_trusted") == TRUSTED_CALLERS
    assert callers("_built") == BUILT_CALLERS


def test_every_table_hashes_as_the_generated_hash():
    for n_x, n_y in [(1, 1), (2, 2), (3, 3), (2, 5), (4, 2)]:
        for table in enumerate_functions(n_x, n_y):
            expected = hash((n_x, n_y, table.outputs))
            assert hash(table) == expected
            assert hash(FunctionTable.from_index(n_x, n_y, table.index)) == expected
            assert hash(pickle.loads(pickle.dumps(table))) == expected
    table = FunctionTable(3, 4, [True, 2, 3])  # normalized before hashing
    assert hash(table) == hash((3, 4, (1, 2, 3)))
    replaced = dataclasses.replace(table, outputs=(0, 0, 0))
    assert hash(replaced) == hash((3, 4, (0, 0, 0)))


def test_the_cached_hash_and_index_are_not_fields():
    table = FunctionTable(2, 3, (2, 1))
    assert table.index == 7
    assert [f.name for f in dataclasses.fields(table)] == ["n_x", "n_y", "outputs"]
    assert repr(table) == "FunctionTable(2->3, [2, 1])"
    assert table == FunctionTable(2, 3, (2, 1)) and table != FunctionTable(2, 3, (2, 0))


def test_the_output_store_is_row_major_and_kept():
    pF = FunctionDistribution.from_vector(2, 3, [Fraction(1, 3)] * 3 + [0] * 6)
    store = pF._output_store()
    assert store.typecode == "b"
    assert store.tolist() == [y for t in pF.support() for y in t.outputs]
    assert pF._output_store() is store
    assert "_store" not in {f.name for f in dataclasses.fields(pF)}
    assert pF == FunctionDistribution(pF.n_x, pF.n_y, pF.weights)


@pytest.mark.parametrize("n_y, itemsize", [
    (1, 1), (128, 1), (129, 2), (2**15, 2), (2**15 + 1, 4), (2**31, 4),
    (2**31 + 1, 8), (2**63, 8),
])
def test_the_store_item_is_the_smallest_that_holds_n_y(n_y, itemsize):
    top = FunctionTable(2, n_y, (n_y - 1, 0))
    store = FunctionDistribution.point_mass(top)._output_store()
    assert store.itemsize == itemsize
    assert store.tolist() == [n_y - 1, 0]
    assert store.typecode in "bhiq"
    assert array(store.typecode).itemsize == itemsize


@pytest.mark.parametrize("n_y", [2**63 + 1, 2**70])
def test_no_store_holds_more_than_2_to_the_63_outputs(n_y):
    pF = FunctionDistribution.point_mass(FunctionTable(2, n_y, (0, 1)))
    with pytest.raises(DomainError, match=f"n_y = {n_y} is beyond 2\\^63"):
        pF._output_store()
