"""Exact-arithmetic checks of the causal core."""

import random
import time
from collections import defaultdict
from fractions import Fraction
from itertools import combinations, compress

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cforacle import (
    ConfoundedModel,
    ContractViolationError,
    CounterfactualQuery,
    DomainError,
    EnumerationCapError,
    Evidence,
    FunctionDistribution,
    FunctionTable,
    UndefinedConditionalError,
    ValidationError,
    conditional,
    conditional_counterfactual,
    enumerate_functions,
    joint_counterfactual,
)
from cforacle import classical, core, identify, modelio, quantum, reproduce
from cforacle.core import _event_row
from conftest import (
    CONST0,
    CONST1,
    FLIP,
    IDENTITY,
    binary_distribution,
    brute_force_joint,
    product_model,
)
from reference import (
    abduct_act_predict,
    input_marginal,
    observational_joint,
    run_and_indicator,
)

F = Fraction


class TestFunctionTable:
    def test_named_binary_tables(self):
        assert CONST0.outputs == (0, 0)
        assert IDENTITY.outputs == (0, 1)
        assert FLIP.outputs == (1, 0)
        assert CONST1.outputs == (1, 1)

    def test_call_and_range(self):
        assert IDENTITY(0) == 0 and IDENTITY(1) == 1
        with pytest.raises(DomainError):
            IDENTITY(2)

    def test_canonical_index_round_trip(self):
        for n_x, n_y in ((2, 2), (3, 2), (2, 3), (3, 3)):
            for i, table in enumerate(enumerate_functions(n_x, n_y)):
                assert table.index == i
                assert FunctionTable.from_index(n_x, n_y, i) == table

    def test_long_index_converts_without_a_step_per_digit(self):
        # the loop of one operation per digit takes about 1.7 s on a 2-vCPU host
        index = 2**10**5 - 1
        start = time.perf_counter()
        assert FunctionTable.from_index(10**5, 2, index).index == index
        assert time.perf_counter() - start < 0.5

    def test_invalid_tables(self):
        with pytest.raises(ValidationError):
            FunctionTable(2, 2, (0, 2))
        with pytest.raises(ValidationError):
            FunctionTable(2, 2, (0,))
        with pytest.raises(ValidationError):
            FunctionTable(0, 2, ())

    def test_non_integer_entries_rejected_not_truncated(self):
        for n_x, n_y, outputs in (
            (2, 2, (0.9, 1)),
            (2.0, 2, (0, 1)),
            (2, "2", (0, 1)),
            (2, 2, ("0", "1")),
        ):
            with pytest.raises(ValidationError, match="integers"):
                FunctionTable(n_x, n_y, outputs)
        table = FunctionTable(np.int64(2), np.uint8(2), np.array([1, 0]))
        assert table == FLIP
        assert {type(v) for v in (table.n_x, table.n_y, *table.outputs)} == {int}


def reference_indicator(tables, pairs):
    """Literal definition: 1 where every queried output matches."""
    return tuple(int(all(t.outputs[x] == y for x, y in pairs)) for t in tables)


# every shape with n_x <= 12, n_y <= 8 and at most 4096 tables
SHAPES = [
    (n_x, n_y)
    for n_x in range(1, 13)
    for n_y in range(1, 9)
    if n_y**n_x <= 4096
]


class TestEventIndicator:
    @pytest.mark.parametrize("n_x, n_y", SHAPES)
    def test_every_one_and_two_pair_event(self, n_x, n_y):
        # Each table lies in exactly one event per set of one or two inputs,
        # the one its own outputs spell, so grouping the enumerated tables by
        # those outputs lists every event's members in canonical order.
        outputs = [t.outputs for t in enumerate_functions(n_x, n_y)]
        for xs in (*combinations(range(n_x), 1), *combinations(range(n_x), 2)):
            members = defaultdict(list)
            for k, outs in enumerate(outputs):
                members[tuple(outs[x] for x in xs)].append(k)
            assert len(members) == n_y ** len(xs)
            for ys, expected in members.items():
                row = _event_row(n_x, n_y, tuple(zip(xs, ys)))
                assert len(row) == len(outputs)
                assert set(map(type, row)) == {int} and set(row) <= {0, 1}
                assert list(compress(range(len(outputs)), row)) == expected

    def test_seeded_events_of_three_or_more_pairs(self):
        rng = random.Random(11)
        tables = {
            (n_x, n_y): enumerate_functions(n_x, n_y)
            for n_x, n_y in SHAPES
            if n_x >= 3 and n_y >= 2
        }
        for _ in range(120):
            n_x, n_y = rng.choice(sorted(tables))
            xs = rng.sample(range(n_x), rng.randint(3, n_x))
            pairs = tuple((x, rng.randrange(n_y)) for x in xs)
            assert _event_row(n_x, n_y, pairs) == reference_indicator(
                tables[n_x, n_y], pairs
            )

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.data())
    def test_rows_equal_the_run_and_reference(self, data):
        n_x, n_y = data.draw(st.sampled_from(SHAPES))
        output = st.integers(0, n_y - 1)
        pairs = data.draw(st.lists(st.tuples(st.integers(0, n_x - 1), output),
                                   max_size=n_x + 2))
        if pairs:  # a pair again, and one input again with any output
            pairs += data.draw(st.lists(st.sampled_from(pairs), max_size=2))
            x, _ = data.draw(st.sampled_from(pairs))
            pairs.append((x, data.draw(output)))
        row = _event_row(n_x, n_y, pairs)
        expected = run_and_indicator(n_x, n_y, pairs)
        assert type(row) is tuple and row == expected
        assert list(map(type, row)) == list(map(type, expected))

    def test_no_pairs_and_out_of_range_pairs(self):
        assert _event_row(2, 3, ()) == (1,) * 9
        # the row takes checked pairs; a target row, built from a query,
        # refuses pairs out of range
        for pair in ((2, 0), (0, 3), (-1, 0), (0, -1)):
            with pytest.raises(DomainError):
                identify.LinearTarget.from_query(CounterfactualQuery((pair,)), 2, 3)


class TestEnumeration:
    def test_binary_square(self):
        tables = enumerate_functions(2, 2)
        assert [t.outputs for t in tables] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_trivial(self):
        assert [t.outputs for t in enumerate_functions(1, 1)] == [(0,)]

    def test_three_inputs_binary(self):
        tables = enumerate_functions(3, 2)
        assert len(tables) == 8
        assert tables[0].outputs == (0, 0, 0)
        assert tables[-1].outputs == (1, 1, 1)
        assert [t.outputs for t in tables] == sorted(t.outputs for t in tables)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 100)
        with pytest.raises(EnumerationCapError, match="100"):
            enumerate_functions(10, 10)


# Built outside the calls below, so that a lowered cap reaches the check
# under test and not the enumeration that builds the model.
THREE_BY_TWO = FunctionDistribution.point_mass(FunctionTable(3, 2, (0, 1, 0)))

# Each size check, its count, and a call that reaches it.
SIZE_CHECKS = {
    "enumerate_functions: n_y**n_x": (8, lambda: enumerate_functions(3, 2)),
    "from_query: n_y**n_x": (8, lambda: identify.LinearTarget.from_query(
        CounterfactualQuery(((0, 1), (2, 0))), 3, 2)),
    "build_constraints: rows x tables": (19 * 8, lambda: identify.build_constraints(
        identify.restricted_tail_model(3, ()), "two-way")),
    "reproduce_appendix_b: n**n": (27, lambda: reproduce.reproduce_appendix_b(3)),
    "build_rho_xy: dim**2": (16, lambda: quantum.build_rho_xy(
        FunctionDistribution.uniform(2, 2), quantum.Amplitudes.uniform(2))),
    "estimate_conditionals: n_x * n_y": (6, lambda: classical.estimate_conditionals(
        THREE_BY_TWO, 1, seed=0)),
    "computational_effect: dim**2": (36, lambda: quantum.computational_effect(3, 2, 0)),
    "Amplitudes.uniform: n_x": (3, lambda: quantum.Amplitudes.uniform(3)),
    "Amplitudes.basis: n_x": (3, lambda: quantum.Amplitudes.basis(3, 0)),
}


@pytest.mark.parametrize("check", SIZE_CHECKS)
def test_each_size_check_passes_at_the_cap_and_refuses_one_above(check, monkeypatch):
    count, call = SIZE_CHECKS[check]
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", count)
    call()
    monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", count - 1)
    with pytest.raises(EnumerationCapError) as excinfo:
        call()
    assert f"{count} exceeds the enumeration cap {count - 1}" in str(excinfo.value)


@pytest.mark.parametrize("call", [
    lambda: quantum.computational_effect(10**5, 10**5, 0),
    lambda: quantum.Amplitudes.uniform(10**12),
    lambda: quantum.Amplitudes.basis(10**12, 0),
], ids=["computational_effect", "Amplitudes.uniform", "Amplitudes.basis"])
def test_float_arrays_past_the_cap_are_refused_before_allocating(call):
    # each once ended in numpy's MemoryError or "array is too big"
    with pytest.raises(EnumerationCapError, match="exceeds the enumeration cap"):
        call()


def test_the_cap_is_ten_to_the_sixth():
    query = CounterfactualQuery(((0, 0),))
    assert len(identify.LinearTarget.from_query(query, 6, 10).coefficients) == 10**6
    with pytest.raises(EnumerationCapError, match="1048576 exceeds"):
        identify.LinearTarget.from_query(query, 20, 2)


# Entries that take n_x and n_y, each called with a cardinality that is not
# a positive integer; all go through ``core._cardinalities``.
BAD_CARDINALITIES = {
    "enumerate_functions": lambda n: enumerate_functions(n, 2),
    "ConstraintSystem": lambda n: identify.ConstraintSystem(n, 2, ()),
    "FunctionTable": lambda n: FunctionTable(n, 2, ()),
    "FunctionTable.from_index": lambda n: FunctionTable.from_index(2, n, 0),
    "FunctionDistribution": lambda n: FunctionDistribution(n, 2, {}),
    "FunctionDistribution.from_vector": lambda n: FunctionDistribution.from_vector(
        2, n, [1]
    ),
    "ConfoundedModel": lambda n: ConfoundedModel(2, n, {}),
    "CounterfactualQuery.validate_for": lambda n: CounterfactualQuery(
        ((0, 0),)
    ).validate_for(2, n),
    "LinearTarget.from_query": lambda n: identify.LinearTarget.from_query(
        CounterfactualQuery(((0, 0),)), n, 2
    ),
    "table_from_digits": lambda n: modelio.table_from_digits("01", 2, n),
    "computational_effect": lambda n: quantum.computational_effect(n, 2, 0),
}


@pytest.mark.parametrize("entry", BAD_CARDINALITIES)
@pytest.mark.parametrize("n", ["a", 2.0, None, 0, -1], ids=repr)
def test_every_entry_refuses_a_bad_cardinality(entry, n):
    with pytest.raises(ValidationError, match="cardinalities must be positive"):
        BAD_CARDINALITIES[entry](n)


@pytest.mark.parametrize(
    "call",
    [
        lambda: FunctionDistribution(2, 2, 5),
        lambda: FunctionDistribution(2, 2, [(IDENTITY, 1)]),
        lambda: ConfoundedModel(2, 2, 5),
        lambda: ConfoundedModel(2, 2, [((0, IDENTITY), 1)]),
    ],
    ids=["distribution int", "distribution list", "joint int", "joint list"],
)
def test_weights_that_are_not_a_mapping_are_refused(call):
    with pytest.raises(ValidationError, match="must be a mapping, got a (int|list)"):
        call()


UNIFORM_2X2 = FunctionDistribution.uniform(2, 2)


# Inputs and outputs that are not integers; all go through ``core._as_index``.
@pytest.mark.parametrize(
    "call",
    [
        lambda: conditional(UNIFORM_2X2, "a"),
        lambda: conditional(UNIFORM_2X2, 1.5),
        lambda: conditional_counterfactual(UNIFORM_2X2, Evidence("a", 0), 1, 0),
        lambda: conditional_counterfactual(UNIFORM_2X2, Evidence(0, 0.5), 1, 0),
        lambda: conditional_counterfactual(UNIFORM_2X2, Evidence(0, 0), None, 0),
        lambda: FunctionTable(2, 2, (0, 1))(1.5),
    ],
    ids=[
        "conditional str", "conditional float", "evidence input str",
        "evidence output float", "counterfactual input None",
        "FunctionTable call float",
    ],
)
def test_inputs_and_outputs_that_are_not_integers_are_refused(call):
    with pytest.raises(ValidationError, match="must be an integer, got a"):
        call()


def test_inputs_and_outputs_are_made_ints():
    evidence = Evidence(np.int64(0), True)
    assert (type(evidence.x_obs), type(evidence.y_obs)) == (int, int)
    assert conditional_counterfactual(UNIFORM_2X2, evidence, np.uint8(1), 1) == F(1, 2)
    assert FunctionTable(2, 2, (0, 1))(np.int64(1)) == 1
    with pytest.raises(DomainError, match=r"counterfactual output 2 outside range"):
        conditional_counterfactual(UNIFORM_2X2, evidence, 1, 2)


RHO_2X2 = quantum.build_rho_xy(UNIFORM_2X2, quantum.Amplitudes.uniform(2))


# Integer arguments of the numpy layers and of the model builders; all go
# through ``core._as_index`` or ``core._cardinalities``, and some on to a
# range check of their own.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: quantum.Amplitudes.basis(2, -1), DomainError, "input -1 outside"),
        (lambda: quantum.Amplitudes.basis(2, 5), DomainError, "input 5 outside"),
        (lambda: quantum.Amplitudes.basis(2, 1.0), ValidationError, "an integer"),
        (lambda: quantum.Amplitudes.uniform("a"), ValidationError, "cardinalities"),
        (lambda: quantum.Amplitudes.uniform(-1), ValidationError, "cardinalities"),
        (lambda: quantum.computational_effect(2, 2, 1.5), ValidationError,
         "outcome must be an integer"),
        (lambda: quantum.extract_two_way(
            RHO_2X2, quantum.Amplitudes.uniform(2), 0.5, 1, 0, 0
        ), ValidationError, "x must be an integer"),
        (lambda: classical.make_rng(1.5), ValidationError, "seed must be an integer"),
        (lambda: classical.make_rng("1"), ValidationError, "seed must be an integer"),
        (lambda: classical.simulate_log(UNIFORM_2X2, [0], seed=1.5), ValidationError,
         "seed must be an integer"),
        (lambda: classical.estimate_conditionals(UNIFORM_2X2, "a", 0),
         ValidationError, "queries_per_x must be an integer"),
        (lambda: classical.estimate_conditionals(UNIFORM_2X2, 1.5, 0),
         ValidationError, "queries_per_x must be an integer"),
        (lambda: reproduce.reproduce_appendix_b("3"), ValidationError, "cardinalities"),
        (lambda: reproduce.reproduce_appendix_b(2.5), ValidationError, "cardinalities"),
        (lambda: reproduce.permutation_mixture("a"), ValidationError, "cardinalities"),
        (lambda: reproduce.constant_mixture("a"), ValidationError, "cardinalities"),
        (lambda: identify.restricted_tail_model("a", ()), ValidationError,
         "cardinalities"),
        (lambda: reproduce.reproduce_appendix_b(1), ValidationError, "needs n >= 2"),
        (lambda: identify.restricted_tail_model(2, ()), ValidationError,
         "needs n >= 3"),
        (lambda: classical.estimate_conditionals(UNIFORM_2X2, 0, 0), DomainError,
         "queries_per_x must be at least 1"),
        (lambda: modelio.table_from_digits("01", 2, 11), ValidationError,
         "requires n_y <= 10; got n_y = 11"),
    ],
    ids=[
        "basis -1", "basis 5", "basis float", "uniform str", "uniform -1",
        "computational_effect float", "extract_two_way float", "make_rng float",
        "make_rng str", "simulate_log seed float", "estimate_conditionals str",
        "estimate_conditionals float", "appendix_b str", "appendix_b float",
        "permutation_mixture str", "constant_mixture str",
        "restricted_tail_model str", "appendix_b 1", "restricted_tail_model 2",
        "estimate_conditionals 0", "table_from_digits 11 outputs",
    ],
)
def test_integer_arguments_of_every_layer_are_checked(call, error, message):
    with pytest.raises(error, match=message):
        call()


def test_cardinalities_are_made_ints():
    pf = FunctionDistribution(np.int64(2), np.uint8(2), {IDENTITY: 1})
    system = identify.ConstraintSystem(np.int64(1), True, (((1,), 1),))
    assert {type(v) for v in (pf.n_x, pf.n_y, system.n_x, system.n_y)} == {int}


def test_a_count_too_long_to_print_is_shown_by_its_size():
    # 2^15000 has 4516 digits, past what str() of an int allows
    with pytest.raises(EnumerationCapError, match=r"2\^15000 or more exceeds"):
        enumerate_functions(15000, 2)


class TestDistribution:
    def test_rejects_bad_weights(self):
        with pytest.raises(ValidationError, match="sum"):
            FunctionDistribution(2, 2, {IDENTITY: F(1, 2)})
        with pytest.raises(ValidationError, match="negative"):
            FunctionDistribution(2, 2, {IDENTITY: F(3, 2), FLIP: F(-1, 2)})
        with pytest.raises(ValidationError, match="cardinalities"):
            FunctionDistribution(2, 2, {FunctionTable.identity(3): F(1)})

    @pytest.mark.parametrize(
        "weight",
        [float("nan"), float("inf"), "nan", "abc", "1/0", "9" * 5000],
        ids=["float nan", "float inf", "str nan", "abc", "1/0", "5000 digits"],
    )
    def test_unreadable_weight_is_a_validation_error(self, weight):
        # Fraction() itself raises ValueError, OverflowError or ZeroDivisionError
        with pytest.raises(ValidationError, match="exact rational"):
            FunctionDistribution(2, 2, {IDENTITY: weight})

    def test_duplicate_entry_rejected_even_at_weight_zero(self):
        with pytest.raises(ValidationError, match="duplicate"):
            FunctionDistribution(2, 2, {(0, 1): F(0), IDENTITY: F(1)})

    def test_drops_zero_weights(self):
        pf = binary_distribution(0, 1, 0, 0)
        assert pf.support() == (IDENTITY,)
        assert pf.probability(FLIP) == 0

    @pytest.mark.parametrize("vector", [[1, 0, 0], [1, 0, 0, 0, 0]])
    def test_from_vector_needs_one_entry_per_table(self, vector):
        with pytest.raises(ValidationError, match=f"{len(vector)} entries"):
            FunctionDistribution.from_vector(2, 2, vector)

    @pytest.mark.parametrize("n_x, n_y", [(1, 1), (1, 3), (2, 2), (3, 2), (2, 3)])
    def test_from_vector_builds_what_from_index_builds(self, n_x, n_y):
        rng = random.Random(n_x * 10 + n_y)
        vector = [Fraction(rng.randint(0, 3)) for _ in range(n_y**n_x)]
        vector[-1] += 1  # one nonzero weight at least, on the last index
        vector = [w / sum(vector) for w in vector]
        pf = FunctionDistribution.from_vector(n_x, n_y, vector)
        assert pf == FunctionDistribution(n_x, n_y, {
            FunctionTable.from_index(n_x, n_y, k): w for k, w in enumerate(vector)
        })
        assert pf.support()[-1].outputs == (n_y - 1,) * n_x

    def test_uniform(self):
        pf = FunctionDistribution.uniform(3, 3)
        assert len(pf.support()) == 27
        assert all(w == F(1, 27) for w in pf.weights.values())


class TestConditional:
    def test_mix_identity_flip(self, mix_identity_flip):
        assert conditional(mix_identity_flip, 0) == (F(1, 2), F(1, 2))

    def test_point_identity(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        assert conditional(pf, 0) == (F(1), F(0))

    def test_uniform_ternary(self):
        pf = FunctionDistribution.uniform(3, 3)
        for x in range(3):
            assert conditional(pf, x) == (F(1, 3), F(1, 3), F(1, 3))

    def test_sums_to_one(self, uniform_binary):
        assert sum(conditional(uniform_binary, 1)) == 1

    def test_out_of_range(self, uniform_binary):
        with pytest.raises(DomainError):
            conditional(uniform_binary, 2)


class TestJointCounterfactual:
    def test_uniform_ternary_diagonal(self):
        pf = FunctionDistribution.uniform(3, 3)
        q = CounterfactualQuery(((0, 0), (1, 1), (2, 2)))
        assert joint_counterfactual(pf, q) == F(1, 27)

    def test_affine_ternary_diagonal(self):
        from cforacle.reproduce import affine_ternary_model

        q = CounterfactualQuery(((0, 0), (1, 1), (2, 2)))
        assert joint_counterfactual(affine_ternary_model(), q) == F(1, 9)

    def test_two_way_same_in_both_ternary_models(self):
        from cforacle.reproduce import affine_ternary_model

        q = CounterfactualQuery(((0, 0), (1, 1)))
        assert joint_counterfactual(FunctionDistribution.uniform(3, 3), q) == F(1, 9)
        assert joint_counterfactual(affine_ternary_model(), q) == F(1, 9)

    def test_point_mass_identity(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        assert joint_counterfactual(pf, CounterfactualQuery(((0, 0), (1, 1)))) == 1

    def test_duplicate_antecedent_rejected(self):
        with pytest.raises(ContractViolationError):
            CounterfactualQuery(((0, 0), (0, 1)))

    def test_non_integer_pairs_rejected_not_truncated(self):
        for pairs in (((0.7, 0),), ((0, 0), (1, 1.9)), (("0", 1),)):
            with pytest.raises(ContractViolationError, match="integers"):
                CounterfactualQuery(pairs)
        query = CounterfactualQuery(((np.int64(1), np.uint8(0)),))
        assert query.pairs == ((1, 0),)
        assert {type(v) for v in query.pairs[0]} == {int}

    @pytest.mark.parametrize(
        "text", ["١:0", "0:٠", "1_0:0", "+1:0", "-0:0", "²:0", "0x1:0", "1:0:0", "1:"]
    )
    def test_target_string_needs_ascii_digits(self, text):
        with pytest.raises(ContractViolationError, match="malformed target pair"):
            CounterfactualQuery.from_string(text)

    def test_target_string_strips_whitespace(self):
        query = CounterfactualQuery.from_string(" 1 : 0 ,\t2:1, ")
        assert query.pairs == ((1, 0), (2, 1))

    def test_single_pair_reduces_to_conditional(self, mix_identity_flip):
        for x in range(2):
            cond = conditional(mix_identity_flip, x)
            for y in range(2):
                q = CounterfactualQuery(((x, y),))
                assert joint_counterfactual(mix_identity_flip, q) == cond[y]

    def test_matches_brute_force(self):
        models = [
            binary_distribution(F(3, 10), F(1, 5), F(1, 4), F(1, 4)),
            FunctionDistribution.uniform(3, 2),
            FunctionDistribution.uniform(2, 3),
        ]
        queries = [((0, 0),), ((0, 1), (1, 0)), ((0, 0), (1, 1))]
        for pf in models:
            for pairs in queries:
                q = CounterfactualQuery(pairs)
                assert joint_counterfactual(pf, q) == brute_force_joint(pf, pairs)


class TestConditionalCounterfactual:
    def test_mix_identity_flip_answers_zero(self, mix_identity_flip):
        value = conditional_counterfactual(mix_identity_flip, Evidence(0, 0), 1, 0)
        assert value == 0

    def test_mix_constants_answers_one(self, mix_constants):
        assert conditional_counterfactual(mix_constants, Evidence(0, 0), 1, 0) == 1

    def test_general_ratio(self):
        # posterior support {const0, identity}; only const0 keeps Y=0 at x=1
        pf = binary_distribution(F(3, 10), F(1, 5), F(1, 4), F(1, 4))
        value = conditional_counterfactual(pf, Evidence(0, 0), 1, 0)
        assert value == F(3, 10) / (F(3, 10) + F(1, 5))

    def test_same_antecedent_is_degenerate(self, uniform_binary):
        assert conditional_counterfactual(uniform_binary, Evidence(0, 1), 0, 1) == 1
        assert conditional_counterfactual(uniform_binary, Evidence(0, 1), 0, 0) == 0

    def test_zero_probability_evidence(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        with pytest.raises(UndefinedConditionalError):
            conditional_counterfactual(pf, Evidence(0, 1), 1, 0)


def counterfactual_vector(pf, evidence, x_cf):
    return tuple(
        conditional_counterfactual(pf, evidence, x_cf, y) for y in range(pf.n_y)
    )


class TestAbductActPredict:
    """The library's ratio route against the three-step reference."""

    def test_identity_const0_mixture(self):
        pf = binary_distribution(F(1, 2), F(1, 2), 0, 0)
        expected = (F(1, 2), F(1, 2))
        assert abduct_act_predict(pf, Evidence(0, 0), 1) == expected
        assert counterfactual_vector(pf, Evidence(0, 0), 1) == expected

    def test_point_flip(self):
        pf = FunctionDistribution.point_mass(FLIP)
        assert abduct_act_predict(pf, Evidence(0, 1), 1) == (F(1), F(0))
        assert counterfactual_vector(pf, Evidence(0, 1), 1) == (F(1), F(0))

    def test_uniform_posterior(self, uniform_binary):
        expected = (F(1, 2), F(1, 2))
        assert abduct_act_predict(uniform_binary, Evidence(0, 0), 1) == expected
        assert counterfactual_vector(uniform_binary, Evidence(0, 0), 1) == expected

    def test_agrees_with_conditional_counterfactual(self):
        pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
        for x_obs in range(2):
            for y_obs in range(2):
                evidence = Evidence(x_obs, y_obs)
                assert abduct_act_predict(
                    pf, evidence, 1 - x_obs
                ) == counterfactual_vector(pf, evidence, 1 - x_obs)

    def test_zero_probability_evidence(self):
        pf = FunctionDistribution.point_mass(IDENTITY)
        with pytest.raises(UndefinedConditionalError):
            abduct_act_predict(pf, Evidence(0, 1), 1)
        with pytest.raises(UndefinedConditionalError):
            conditional_counterfactual(pf, Evidence(0, 1), 1, 0)


class TestConfoundedModel:
    def test_product_model_observational_joint(self, mix_identity_flip):
        model = product_model([F(1, 2), F(1, 2)], mix_identity_flip)
        joint = observational_joint(model)
        assert all(joint[x][y] == F(1, 4) for x in range(2) for y in range(2))

    def test_perfectly_confounded(self):
        model = ConfoundedModel(
            2, 2, {(0, CONST0): F(1, 2), (1, CONST1): F(1, 2)}
        )
        joint = observational_joint(model)
        assert joint[0][0] == F(1, 2)
        assert joint[1][1] == F(1, 2)
        assert joint[0][1] == joint[1][0] == 0
        # intervening severs the confounder: the response marginal is an
        # equal constants mixture, not the deterministic observational law
        assert conditional(model.response_marginal(), 0) == (F(1, 2), F(1, 2))

    def test_point_mass(self):
        model = ConfoundedModel(2, 2, {(0, IDENTITY): F(1)})
        assert observational_joint(model)[0][0] == 1
        assert conditional(model.response_marginal(), 1) == (F(0), F(1))

    def test_unconfounded_collapse(self, mix_identity_flip):
        model = product_model([F(1, 4), F(3, 4)], mix_identity_flip)
        joint = observational_joint(model)
        p_x = input_marginal(model)
        for x in range(2):
            observational = tuple(joint[x][y] / p_x[x] for y in range(2))
            assert conditional(model.response_marginal(), x) == observational

    def test_validation(self):
        with pytest.raises(ValidationError, match="sum"):
            ConfoundedModel(2, 2, {(0, IDENTITY): F(1, 2)})

    def test_duplicate_entry_rejected(self):
        # (0, identity) twice: the weights sum to 3/2, and to 1 without a copy
        joint = {(0, (0, 1)): F(1, 2), (0, IDENTITY): F(1, 2), (1, FLIP): F(1, 2)}
        with pytest.raises(ValidationError, match="duplicate"):
            ConfoundedModel(2, 2, joint)

    def test_non_integer_settings_rejected_not_truncated(self):
        for r_x in (0.7, 1.9, "0", F(1)):
            with pytest.raises(ValidationError, match="integers"):
                ConfoundedModel(2, 2, {(r_x, IDENTITY): F(1)})
        with pytest.raises(ValidationError, match="integers"):
            ConfoundedModel(
                2, 2, {(0.7, (0, 1)): F(1, 2), (1.9, (1, 1)): F(1, 2)}
            )
        model = ConfoundedModel(
            2, 2, {(np.int64(0), IDENTITY): F(1, 2), (np.uint8(1), CONST1): F(1, 2)}
        )
        assert list(model.joint_weights) == [(0, IDENTITY), (1, CONST1)]
        assert {type(r_x) for r_x, _ in model.joint_weights} == {int}

