"""Shared builders for the test suite."""

from fractions import Fraction

import pytest

from cforacle import (
    ConfoundedModel,
    FunctionDistribution,
    FunctionTable,
    enumerate_functions,
)

CONST0 = FunctionTable.constant(2, 2, 0)
CONST1 = FunctionTable.constant(2, 2, 1)
IDENTITY = FunctionTable.identity(2)
FLIP = FunctionTable.flip()

# model files whose number weights a binary float would misread: as text
# they sum to 1 + 10^-20 and 1 + 10^-400, and the last exponent is beyond
# the bound on rational text; each with the start of its one-line refusal
NUMBER_WEIGHT_FILES = {
    "above one by 1e-20": (
        '{"n_x": 2, "n_y": 2, "pF": {"00": 0.5, "11": 0.50000000000000000001}}',
        "weights sum to 100000000000000000001/100000000000000000000, "
        "expected exactly 1",
    ),
    "1e-400": (
        '{"n_x": 2, "n_y": 2, "pF": {"00": 0.5, "11": 0.5, "01": 1e-400}}',
        "weights sum to 1",
    ),
    "1e-5000": (
        '{"n_x": 2, "n_y": 2, "pF": {"00": 0.5, "11": 0.5, "01": 1e-5000}}',
        "cannot interpret '1e-5000' as an exact rational: its exponent",
    ),
}


def random_distribution(rng, n_x, n_y):
    """Weights 0-9 drawn per table, normalized (at least one nonzero)."""
    tables = [
        FunctionTable.from_index(n_x, n_y, i) for i in range(n_y**n_x)
    ]
    raw = [rng.randint(0, 9) for _ in tables]
    if sum(raw) == 0:
        raw[0] = 1
    total = sum(raw)
    return FunctionDistribution(
        n_x, n_y, {t: Fraction(k, total) for t, k in zip(tables, raw) if k}
    )


def binary_distribution(p_const0, p_identity, p_flip, p_const1):
    weights = {
        CONST0: Fraction(p_const0),
        IDENTITY: Fraction(p_identity),
        FLIP: Fraction(p_flip),
        CONST1: Fraction(p_const1),
    }
    return FunctionDistribution(2, 2, weights)


def product_model(p_x, pF):
    """The unconfounded model: input setting r_x with probability
    ``p_x[r_x]``, independent of the table."""
    joint = {
        (r_x, table): Fraction(px) * w
        for r_x, px in enumerate(p_x)
        for table, w in pF.weights.items()
    }
    return ConfoundedModel(pF.n_x, pF.n_y, joint)


@pytest.fixture
def mix_identity_flip():
    return binary_distribution(0, Fraction(1, 2), Fraction(1, 2), 0)


@pytest.fixture
def mix_constants():
    return binary_distribution(Fraction(1, 2), 0, 0, Fraction(1, 2))


@pytest.fixture
def uniform_binary():
    return FunctionDistribution.uniform(2, 2)


def brute_force_joint(pF, pairs):
    """Independent oracle: literal enumeration over every function table."""
    total = Fraction(0)
    for table in enumerate_functions(pF.n_x, pF.n_y):
        if all(table.outputs[x] == y for x, y in pairs):
            total += pF.probability(table)
    return total


def assert_same_rows(actual, expected):
    """``actual == expected`` for two texts, failing with their row counts
    or the first differing row: the diff pytest prints for two long
    strings takes minutes."""
    if actual == expected:
        return
    got, want = actual.split("\n"), expected.split("\n")
    if len(got) != len(want):
        pytest.fail(f"{len(got)} rows, expected {len(want)}")
    index = next(i for i, pair in enumerate(zip(got, want)) if pair[0] != pair[1])
    pytest.fail(f"row {index}: got {got[index]!r}, expected {want[index]!r}")
