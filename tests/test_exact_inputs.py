"""The exact-number boundary: every value a caller hands in becomes a
``Fraction`` through ``core._as_fraction`` or is refused with a
``CfOracleError`` that names the cause, and no message prints an integer
too long for ``str``."""

import math
import time
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from cforacle import (
    Bounds,
    CfOracleError,
    ConfoundedModel,
    ConstraintSystem,
    ContractViolationError,
    CounterfactualQuery,
    DomainError,
    FunctionDistribution,
    FunctionTable,
    InfeasibleSystemError,
    LinearTarget,
    MeasurementInconsistencyError,
    ValidationError,
    lp_bounds,
    make_rng,
    parse_model,
    solve_binary_pF,
)
from cforacle import core, lp
from cforacle.toy import ToyEpistemicState

F = Fraction

#: 5000 decimal digits in the denominator: ``str`` of it raises ValueError
TINY = F(1, 10**5000)

ONE = FunctionTable(1, 2, (0,))
ONE_2X2 = FunctionTable(2, 2, (0, 1))
NORMALIZATION = ((1, 1), 1)

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
    "call, error",
    [
        (lambda: LinearTarget(5), ValidationError),
        (lambda: ConstraintSystem(1, 2, ((1, 1),)), ValidationError),
        (lambda: ConstraintSystem(1, 2, 5), ValidationError),
        (lambda: ConstraintSystem(1, 2, (((1, 1), 1, 0),)), ValidationError),
        (lambda: ConfoundedModel(2, 2, {5: 1}), ValidationError),
        (lambda: ConfoundedModel(2, 2, {(0, ONE, 1): 1}), ValidationError),
        (lambda: CounterfactualQuery(((0, 1, 2),)), ContractViolationError),
    ],
    ids=["target int", "row not a pair", "rows int", "row triple",
         "joint key int", "joint key triple", "query triple"],
)
def test_malformed_structures_are_package_errors(call, error):
    with pytest.raises(error):
        call()


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
        (lambda: core.event_indicator(2, 2, ((HUGE, 0),)), DomainError,
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
    ids=["validate_for", "from_query", "joint_counterfactual", "event_indicator",
         "from_index", "table output", "joint key setting", "repeated antecedent",
         "from_string"],
)
def test_integers_too_long_to_print_are_package_errors(call, error, shown):
    with pytest.raises(error) as excinfo:
        call()
    assert isinstance(excinfo.value, CfOracleError)
    assert shown in str(excinfo.value) and len(str(excinfo.value)) < 300


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
