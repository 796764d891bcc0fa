"""The exact-number boundary: every value a caller hands in becomes a
``Fraction`` through ``core._as_fraction`` or is refused with a
``CfOracleError`` that names the cause, and no message prints an integer
too long for ``str``."""

import math
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cforacle import (
    Amplitudes,
    Bounds,
    CfOracleError,
    ConfoundedModel,
    ConstraintSystem,
    ContractViolationError,
    CounterfactualQuery,
    DomainError,
    Evidence,
    FunctionDistribution,
    FunctionTable,
    InfeasibleSystemError,
    LinearTarget,
    MeasurementInconsistencyError,
    ValidationError,
    build_constraints,
    build_rho_xy,
    enumerate_functions,
    lp_bounds,
    lp_bounds_with_witnesses,
    make_rng,
    parse_model,
    reproduce_appendix_b,
    solve_binary_pF,
)
from cforacle import core, lp, modelio
from cforacle.toy import ToyEpistemicState

SRC = str(Path(core.__file__).resolve().parents[1])

F = Fraction

#: 5000 decimal digits in the denominator: ``str`` of it raises ValueError
TINY = F(1, 10**5000)

ONE = FunctionTable(1, 2, (0,))
ONE_2X2 = FunctionTable(2, 2, (0, 1))
NORMALIZATION = ((1, 1), 1)
NORMALIZED_1X2 = ConstraintSystem(1, 2, (NORMALIZATION,))

# Each entry point puts the value where a probability (or a coefficient
# of one) goes, and runs until that value is used; the last item is what
# its message says when the value is a readable rational out of range.
ENTRY_POINTS = {
    "FunctionDistribution": (
        lambda v: FunctionDistribution(1, 2, {ONE: v}), "sum to"),
    "ConfoundedModel": (
        lambda v: ConfoundedModel(1, 2, {(0, ONE): v}), "sum to"),
    "ConstraintSystem coefficient": (
        lambda v: lp_bounds(
            LinearTarget((0, 0)),
            ConstraintSystem(1, 2, (NORMALIZATION, ((v, v), 1))),
        ),
        "phase-1 residual"),
    "ConstraintSystem right-hand side": (
        lambda v: ConstraintSystem(1, 2, (((1, 1), v),)), "right-hand side 1"),
    "LinearTarget": (
        lambda v: lp_bounds(
            LinearTarget((v, v)), ConstraintSystem(1, 2, (NORMALIZATION,))
        ),
        "0 <= lo <= hi <= 1"),
    "Bounds": (lambda v: Bounds(0, v), "0 <= lo <= hi <= 1"),
    "solve_binary_pF": (lambda v: solve_binary_pF(v, 0, 0), "component range"),
    "ToyEpistemicState": (
        lambda v: ToyEpistemicState({(0, 0, 0, 0): v}), "sum to"),
    "parse_model": (
        lambda v: parse_model({"n_x": 1, "n_y": 2, "pF": {"0": v}}), "sum to"),
}

BAD_VALUES = {
    "1001 characters": ("1" * 1001, "1001 characters"),
    "exponent -1001": ("1e-1001", "exponent"),
    "abc": ("abc", "'abc'"),
    "None": (None, "None"),
    "NaN": (math.nan, "nan"),
    "5000-digit denominator": (2 + TINY, None),
}


@pytest.mark.parametrize("value_id", BAD_VALUES)
@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_every_entry_point_names_the_cause(entry, value_id):
    call, out_of_range = ENTRY_POINTS[entry]
    value, cause = BAD_VALUES[value_id]
    # pytest.raises(CfOracleError) lets a ValueError or TypeError through
    with pytest.raises(CfOracleError) as excinfo:
        call(value)
    message = str(excinfo.value)
    if cause is None:
        assert out_of_range in message
    else:
        assert cause in message and "exact rational" in message
    assert len(message) < 300


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (lambda: Bounds(0, 1 + TINY), ValidationError,
         "got [0, a rational about 1 (16610-bit numerator, 16610-bit denominator)]"),
        (lambda: lp.objective_range([F(0)], [[F(1)]], [-TINY]),
         InfeasibleSystemError, "residual a rational of magnitude outside"),
        (lambda: solve_binary_pF(2 + TINY, 0, 0),
         MeasurementInconsistencyError, "exceeds [0, 1] by a rational about 3.5 ("),
        (lambda: ConstraintSystem(1, 2, (((1, 1), 1 + TINY),)), ValidationError,
         "right-hand side 1, got a rational about 1"),
        # integers are shown as 2^k, as in the enumeration cap's message
        (lambda: make_rng(10**5000), ValidationError, "got 2^16609 or more"),
        (lambda: make_rng(-(10**5000)), ValidationError, "got -2^16609 or less"),
        (lambda: core._as_index(10**5000, "x", 2), DomainError,
         "x 2^16609 or more outside range [0, 2)"),
        (lambda: core._as_index(-1, "x", 10**5000), DomainError,
         "x -1 outside range [0, 2^16609 or more)"),
    ],
    ids=["Bounds", "lp phase 1", "solve_binary_pF", "normalization row",
         "seed", "negative seed", "index", "bound"],
)
def test_messages_describe_rationals_too_long_to_print(call, error, shown):
    with pytest.raises(error) as excinfo:
        call()
    assert shown in str(excinfo.value)


@pytest.mark.parametrize(
    "call",
    [
        lambda: ConstraintSystem(1, 2, (((1, "x"), 1),)),
        lambda: ConstraintSystem(1, 2, (((1, 1), None),)),
        lambda: LinearTarget(("abc", 1)),
    ],
    ids=["coefficient x", "right-hand side None", "target abc"],
)
def test_unreadable_system_entries_are_validation_errors(call):
    with pytest.raises(ValidationError, match="exact rational"):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: LinearTarget(5), ValidationError, "coefficients must be a sequence"),
        (lambda: ConstraintSystem(1, 2, ((1, 1),)), ValidationError,
         "coefficients must be a sequence"),
        (lambda: ConstraintSystem(1, 2, 5), ValidationError,
         "rows must be (coefficients, rhs) pairs"),
        (lambda: ConstraintSystem(1, 2, (((1, 1), 1, 0),)), ValidationError,
         "rows must be (coefficients, rhs) pairs"),
        (lambda: ConfoundedModel(2, 2, {5: 1}), ValidationError,
         "joint keys must be (input setting, table) pairs"),
        (lambda: ConfoundedModel(2, 2, {(0, ONE, 1): 1}), ValidationError,
         "joint keys must be (input setting, table) pairs"),
        (lambda: CounterfactualQuery(((0, 1, 2),)), ContractViolationError,
         "pairs must be two integers each"),
        (lambda: ConstraintSystem(1, 2, (((1, 1, 1), 1),)), ValidationError,
         "coefficient vector has 3 entries, expected 2"),
        (lambda: lp_bounds(LinearTarget((1, 0, 0)), NORMALIZED_1X2),
         ValidationError, "target dimension does not match the system"),
        (lambda: lp_bounds_with_witnesses(LinearTarget((1, 0, 0)), NORMALIZED_1X2),
         ValidationError, "target dimension does not match the system"),
        (lambda: lp.objective_range([], [], []), ValidationError,
         "cannot solve an empty system"),
        (lambda: lp.objective_range([F(1)] * 3, [[F(1), F(1)]], [F(1)]),
         ValidationError, "dimension mismatch between c, A, b"),
        (lambda: lp.objective_range([F(1)] * 2, [[F(1), F(1)]], [F(1)] * 2),
         ValidationError, "dimension mismatch between c, A, b"),
        (lambda: FunctionDistribution.uniform_over([]), ValidationError,
         "cannot build a distribution over no tables"),
    ],
    ids=["target int", "row not a pair", "rows int", "row triple",
         "joint key int", "joint key triple", "query triple",
         "row of three coefficients", "bounds target of three",
         "witness target of three", "empty LP", "LP cost of three",
         "LP right-hand side of two", "distribution over no tables"],
)
def test_malformed_structures_are_package_errors(call, error, message):
    with pytest.raises(error) as excinfo:
        call()
    assert message in str(excinfo.value)


HUGE = 10**5000
UNIFORM_2X2 = FunctionDistribution.uniform(2, 2)


@pytest.mark.parametrize(
    "call, error, shown",
    [
        (lambda: CounterfactualQuery(((HUGE, 0),)).validate_for(2, 2), DomainError,
         "antecedent 2^16609 or more outside range [0, 2)"),
        (lambda: LinearTarget.from_query(CounterfactualQuery(((0, HUGE),)), 2, 2),
         DomainError, "outcome 2^16609 or more outside range [0, 2)"),
        (lambda: core.joint_counterfactual(
            UNIFORM_2X2, CounterfactualQuery(((0, -HUGE),))), DomainError,
         "outcome -2^16609 or less outside range [0, 2)"),
        (lambda: FunctionTable(2, 2, (0, 1))(HUGE), DomainError,
         "input 2^16609 or more outside range [0, 2)"),
        (lambda: FunctionTable.from_index(2, 2, HUGE), DomainError,
         "index 2^16609 or more outside range [0, 4)"),
        (lambda: FunctionTable(2, 2, (HUGE, 0)), ValidationError,
         "outputs[0]=2^16609 or more outside range [0, 2)"),
        (lambda: ConfoundedModel(2, 2, {(HUGE, ONE_2X2): 1}), ValidationError,
         "input setting 2^16609 or more out of range"),
        (lambda: CounterfactualQuery(((HUGE, 0), (HUGE, 1))), ContractViolationError,
         "got [2^16609 or more, 2^16609 or more]"),
        (lambda: CounterfactualQuery.from_string("0:" + "1" * 5000),
         ContractViolationError, "target pair side of 5000 digits, too many"),
    ],
    ids=["validate_for", "from_query", "joint_counterfactual", "table call",
         "from_index", "table output", "joint key setting", "repeated antecedent",
         "from_string"],
)
def test_integers_too_long_to_print_are_package_errors(call, error, shown):
    with pytest.raises(error) as excinfo:
        call()
    assert isinstance(excinfo.value, CfOracleError)
    assert shown in str(excinfo.value) and len(str(excinfo.value)) < 300


# A model with 10**5000 outputs is cheap to build: one table, one input.
HUGE_OUTPUTS = FunctionDistribution.point_mass(FunctionTable(1, HUGE, (0,)))


@pytest.mark.parametrize(
    "call, shown",
    [
        (lambda: enumerate_functions(1, HUGE),
         "(2^16609 or more)^1 function tables: 2^16609 or more exceeds"),
        (lambda: FunctionDistribution.from_vector(1, HUGE, [1]),
         "expected (2^16609 or more)^1"),
        (lambda: LinearTarget.from_query(CounterfactualQuery(((0, 0),)), 1, HUGE),
         "(2^16609 or more)^1 target coefficients: 2^16609 or more exceeds"),
        (lambda: modelio.table_from_digits("0", 1, HUGE),
         "requires n_y <= 10; got n_y = 2^16609 or more"),
        (lambda: build_constraints(HUGE_OUTPUTS, "one-way"),
         "cells of 2^16609 or more rows over (2^16609 or more)^1 tables: "
         "2^33218 or more exceeds"),
        (lambda: reproduce_appendix_b(10**6),
         "1000000^1000000 tables: 2^19000000 or more exceeds"),
        (lambda: enumerate_functions(HUGE, 2),
         "2^(2^16609 or more) function tables: 2^(2^16609 or more) or more exceeds"),
        (lambda: modelio.table_from_digits("0", HUGE, 2),
         "must be 2^16609 or more digits"),
        (lambda: build_rho_xy(HUGE_OUTPUTS, Amplitudes.uniform(1)),
         "entries of a 2^16609 or more x 2^16609 or more density matrix"),
        (lambda: LinearTarget((1,)).value_on(HUGE_OUTPUTS),
         "the model (2^16609 or more)^1 tables"),
        (lambda: core.conditional(HUGE_OUTPUTS, 0),
         "2^16609 or more conditional probabilities: 2^16609 or more exceeds"),
    ],
    ids=["enumerate_functions", "from_vector", "from_query", "table_from_digits",
         "build_constraints", "reproduce_appendix_b", "enumerate_functions inputs",
         "table_from_digits inputs", "build_rho_xy", "value_on", "conditional"],
)
def test_oversized_cardinalities_are_refused_at_once(call, shown):
    start = time.perf_counter()
    with pytest.raises(CfOracleError) as excinfo:
        call()
    assert time.perf_counter() - start < 1
    assert shown in str(excinfo.value) and len(str(excinfo.value)) < 300


def test_reprs_show_outputs_too_long_to_print():
    last = FunctionTable(1, HUGE, (HUGE - 1,))
    assert repr(last) == "FunctionTable(1->2^16609 or more, [2^16609 or more])"
    assert repr(HUGE_OUTPUTS) == "FunctionDistribution(1->2^16609 or more, {[0]: 1})"
    confounded = ConfoundedModel(1, HUGE, {(0, FunctionTable(1, HUGE, (0,))): 1})
    assert repr(confounded) == "ConfoundedModel(1->2^16609 or more, {(0, [0]): 1})"
    assert repr(Evidence(HUGE, 0)) == "Evidence(x_obs=2^16609 or more, y_obs=0)"
    assert repr(CounterfactualQuery(((HUGE, 0),))) == (
        "CounterfactualQuery(pairs=((2^16609 or more, 0),))"
    )
    # and as before on printable ones
    assert repr(FunctionDistribution.point_mass(ONE_2X2)) == (
        "FunctionDistribution(2->2, {[0, 1]: 1})"
    )
    assert repr(Evidence(1, 0)) == "Evidence(x_obs=1, y_obs=0)"
    for pairs in (((0, 1),), ((0, 1), (2, 3))):
        assert repr(CounterfactualQuery(pairs)) == f"CounterfactualQuery(pairs={pairs})"


# 2**(10**10) is a 1.25 GB integer.  Each call runs in a child process
# that first caps its own address space well below that, so a call that
# takes the power in full ends there in MemoryError instead of filling the
# host.
HUGE_POWER_CALLS = {
    "from_index": "FunctionTable.from_index(10**10, 2, 0)",
    "from_index negative": "FunctionTable.from_index(10**10, 2, -1)",
    "from_vector": "FunctionDistribution.from_vector(10**10, 2, [1])",
    "ConstraintSystem": "ConstraintSystem(10**10, 2, (((1, 1), 1),))",
    "ConstraintSystem without rows": "ConstraintSystem(10**10, 2, ())",
}


@pytest.mark.parametrize("call", HUGE_POWER_CALLS.values(), ids=HUGE_POWER_CALLS)
def test_table_counts_are_compared_without_the_power(call):
    script = (
        "import resource, time\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))\n"
        "from cforacle.core import FunctionDistribution, FunctionTable\n"
        "from cforacle.errors import CfOracleError\n"
        "from cforacle.identify import ConstraintSystem\n"
        "start = time.perf_counter()\n"
        "try:\n"
        f"    {call}\n"
        "except CfOracleError as exc:\n"
        "    print(f'{time.perf_counter() - start:.3f}', exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": SRC}, timeout=60, check=False,
    )
    assert result.returncode == 0, result.stderr[-500:]
    seconds, _, message = result.stdout.partition(" ")
    assert float(seconds) < 1
    assert 0 < len(message) < 300


def test_huge_exponent_is_refused_before_parsing():
    start = time.perf_counter()
    with pytest.raises(ValidationError, match="exponent"):
        ConstraintSystem(1, 2, (((1, 1), "1e-2000000"),))
    with pytest.raises(ValidationError, match="exponent"):
        FunctionDistribution(1, 2, {ONE: Decimal("1e-2000000")})
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "value",
    [F(1, 2), 0.5, Decimal("0.5"), "1/2", " 0.5 ", np.int64(1) / 2, True],
    ids=["Fraction", "float", "Decimal", "ratio text", "decimal text",
         "numpy float", "bool"],
)
def test_every_kind_fraction_takes_is_accepted(value):
    half = F(1) if value is True else F(1, 2)
    assert Bounds(0, value).hi == half
    system = ConstraintSystem(1, 2, (((1, 1), 1), ((value, 0), half)))
    assert system.rows[1] == ((half, 0), half)
    assert LinearTarget((value, np.int64(1))).coefficients == (half, 1)


def test_model_json_reads_floats_as_decimals_and_refuses_booleans():
    model = parse_model({"n_x": 1, "n_y": 2, "pF": {"0": 0.1, "1": "9/10"}})
    assert model.weights[ONE] == F(1, 10)
    with pytest.raises(ValidationError, match="exact rational"):
        parse_model({"n_x": 1, "n_y": 2, "pF": {"0": True}})


class TestTargetSize:
    def test_too_many_coefficients(self):
        with pytest.raises(ValidationError, match="4 coefficients"):
            LinearTarget((1, 0, 0, 0)).value_on(FunctionDistribution(1, 2, {ONE: 1}))

    def test_too_few_coefficients(self):
        model = FunctionDistribution.uniform(3, 2)
        with pytest.raises(ValidationError, match="2\\^3 tables"):
            LinearTarget((1, 0, 0, 0)).value_on(model)


def test_coefficients_from_a_generator_are_kept():
    # the type scan must not use up a one-pass iterable
    assert LinearTarget(c for c in (1, "1/2")).coefficients == (1, F(1, 2))
