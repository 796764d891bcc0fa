"""Constraint systems, partial-identification bounds, identifiability."""

import dataclasses
import random
from fractions import Fraction

import pytest

from cforacle import (
    Bounds,
    ConstraintLevel,
    ConstraintSystem,
    CounterfactualQuery,
    EnumerationCapError,
    FunctionDistribution,
    FunctionTable,
    InfeasibleSystemError,
    LinearTarget,
    ValidationError,
    build_constraints,
    constant_mixture,
    enumerate_functions,
    is_identifiable,
    joint_counterfactual,
    lp_bounds,
    lp_bounds_with_witnesses,
    permutation_mixture,
    reproduce_appendix_b,
    reproduce_appendix_e_general,
    restricted_tail_model,
    solution_family_direction,
)
from cforacle import core, identify, lp
from cforacle.core import _event_row
from cforacle.rational import is_scalar_multiple
from cforacle.reproduce import (
    affine_ternary_model,
    mix_constants,
    mix_identity_flip,
    model_satisfies,
    uniform_ternary_model,
)
from conftest import binary_distribution, random_distribution
from reference import (
    RANDOM_SIZES,
    basis_events,
    full_event_system,
    ladder,
    random_and_sparse,
    row_event,
    vertex_range,
)

F = Fraction


def _event_row_models():
    # dense and sparse random models by size, then each ladder model once
    for n_x, n_y in RANDOM_SIZES:
        yield pytest.param(random_and_sparse(n_x, n_y), id=f"{n_x}-{n_y}")
    for name, model, level, _ in ladder():
        if level == "two-way":
            yield pytest.param((model,), id=name.removesuffix(" two-way"))


class TestBuildConstraints:
    def test_binary_one_way_rows(self):
        system = build_constraints(mix_identity_flip(), ConstraintLevel.ONE_WAY)
        rows = {tuple(int(c) for c in coeffs): rhs for coeffs, rhs in system.rows}
        # canonical table order: [0,0], [0,1], [1,0], [1,1]
        assert rows[(1, 1, 0, 0)] == F(1, 2)  # p(f(0)=0)
        assert rows[(1, 0, 1, 0)] == F(1, 2)  # p(f(1)=0)
        assert rows[(1, 1, 1, 1)] == 1
        # p(f(x)=1) > 0, so r(x) = 1 and the f(x)=1 rows are implied
        assert len(system.rows) == 3

    @pytest.mark.parametrize("level", ["one-way", "two-way"])
    def test_dimension_is_the_table_count(self, level):
        for n_x, n_y in RANDOM_SIZES:
            for model in random_and_sparse(n_x, n_y):
                system = build_constraints(model, level)
                assert system.dimension == n_y**n_x
                rebuilt = ConstraintSystem(n_x, n_y, system.rows)
                assert rebuilt.dimension == n_y**n_x

    def test_two_way_contains_one_way(self):
        pf = random_distribution(random.Random(3), 3, 2)
        one = build_constraints(pf, ConstraintLevel.ONE_WAY)
        two = build_constraints(pf, ConstraintLevel.TWO_WAY)
        assert set(one.rows) <= set(two.rows)

    def test_uniform_pair_constraints(self):
        system = build_constraints(restricted_tail_model(3, ()), "two-way")
        pair_rows = [
            (coeffs, rhs)
            for coeffs, rhs in system.rows
            if sum(coeffs) == 2  # exactly two tables satisfy a pair pattern
        ]
        # no pair has probability 0, so only the 3 with both outputs below
        # the reference output 1 are kept
        assert len(pair_rows) == 3
        assert all(rhs == F(1, 4) for _, rhs in pair_rows)

    def test_single_value_cardinalities(self):
        pf = FunctionDistribution.point_mass(FunctionTable(1, 1, (0,)))
        system = build_constraints(pf, ConstraintLevel.ONE_WAY)
        assert all(rhs == 1 for _, rhs in system.rows)

    def test_cap_bounds_rows_times_tables_before_enumerating(self, monkeypatch):
        # binary n_x = 3, two-way: 6 + 3 * 4 + 1 = 19 events over 8 tables
        # are counted, though only the basis of 3 + 3 + 1 rows is built
        model = restricted_tail_model(3, ())
        monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 19 * 8)
        assert len(build_constraints(model, "two-way").rows) == 7

        def enumerate_nothing(*args, **kwargs):
            raise RuntimeError("tables enumerated before the cap check")

        monkeypatch.setattr(core, "enumerate_functions", enumerate_nothing)
        monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 19 * 8 - 1)
        with pytest.raises(EnumerationCapError):
            build_constraints(model, "two-way")

    @pytest.mark.parametrize("n_x, n_y", [(30000, 2), (10**5, 1)])
    def test_cap_refuses_many_inputs_before_building(self, monkeypatch, n_x, n_y):
        # C(n_x, 2) input pairs are counted, never listed, before the check
        pf = FunctionDistribution.point_mass(FunctionTable(n_x, n_y, (0,) * n_x))

        def build_nothing(*args):
            raise RuntimeError("input pairs built before the cap check")

        monkeypatch.setattr(identify, "combinations", build_nothing)
        with pytest.raises(EnumerationCapError, match="exceeds the enumeration cap"):
            build_constraints(pf, "two-way")

    def test_from_query_cap_and_no_table_enumerated(self, monkeypatch):
        model = restricted_tail_model(3, ())
        query = CounterfactualQuery(((0, 1), (2, 0)))

        def enumerate_nothing(*args, **kwargs):
            raise RuntimeError("tables enumerated")

        monkeypatch.setattr(core, "enumerate_functions", enumerate_nothing)
        monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 7)
        with pytest.raises(EnumerationCapError):
            LinearTarget.from_query(query, 3, 2)
        monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 8)
        assert len(LinearTarget.from_query(query, 3, 2).coefficients) == 8
        monkeypatch.setattr(core, "DEFAULT_ENUMERATION_CAP", 19 * 8)
        assert len(build_constraints(model, "two-way").rows) == 7

    @pytest.mark.parametrize("level", [5, None, b"one-way"])
    def test_level_of_another_type_is_refused(self, level):
        with pytest.raises(ValidationError, match="constraint level"):
            ConstraintLevel.parse(level)
        with pytest.raises(ValidationError, match="constraint level"):
            build_constraints(FunctionDistribution.uniform(2, 2), level)

    @pytest.mark.parametrize("models", list(_event_row_models()))
    def test_rows_are_int_events_with_joint_right_hand_sides(self, models):
        for pf in models:
            tables = enumerate_functions(pf.n_x, pf.n_y)
            for level in ConstraintLevel:
                system = build_constraints(pf, level)
                seen = []
                for coeffs, rhs in system.rows:
                    assert set(map(type, coeffs)) == {int}
                    # the event's pairs are the inputs on which its members agree
                    pairs = row_event(tables, coeffs)
                    assert coeffs == tuple(
                        int(all(t.outputs[x] == y for x, y in pairs)) for t in tables
                    )
                    if pairs:
                        assert rhs == joint_counterfactual(
                            pf, CounterfactualQuery(pairs)
                        )
                    else:
                        assert coeffs == (1,) * len(tables) and rhs == 1
                    seen.append(pairs)
                # the basis plus the zero events, in event order, then normalization
                assert seen == basis_events(pf, level) + [()]
                assert len(set(seen)) == len(system.rows)
            one_way = build_constraints(pf, "one-way").rows
            assert set(one_way) <= set(build_constraints(pf, "two-way").rows)

    def test_from_query_coefficients_are_ints(self):
        for n_x, n_y, pairs in ((2, 2, ((1, 0),)), (3, 3, ((0, 2), (2, 1)))):
            target = LinearTarget.from_query(CounterfactualQuery(pairs), n_x, n_y)
            assert set(map(type, target.coefficients)) == {int}
            assert target.coefficients == tuple(
                int(all(t.outputs[x] == y for x, y in pairs))
                for t in enumerate_functions(n_x, n_y)
            )

    def test_exact_entries_kept_and_others_converted(self):
        entries = (F(1, 3), 0.5, "2/7", 1, "0.25", 0)
        exact = (F(1, 3), F(1, 2), F(2, 7), 1, F(1, 4), 0)
        kinds = [Fraction, Fraction, Fraction, int, Fraction, int]
        target = LinearTarget(entries)
        assert target.coefficients == exact
        assert [type(c) for c in target.coefficients] == kinds
        system = ConstraintSystem(
            1, 6, ((entries, "1/3"), ((1,) * 6, 1.0))
        )
        assert system.rows[0] == (exact, F(1, 3))
        assert [type(c) for c in system.rows[0][0]] == kinds
        assert system.rows[1] == ((1,) * 6, 1)

    def test_level_parsing(self):
        assert ConstraintLevel.parse("one-way") is ConstraintLevel.ONE_WAY
        assert ConstraintLevel.parse("TWO_WAY") is ConstraintLevel.TWO_WAY
        with pytest.raises(ValidationError):
            ConstraintLevel.parse("three-way")

    def test_normalization_row_required(self):
        with pytest.raises(ValidationError, match="normalization"):
            ConstraintSystem(2, 2, (((F(1), F(0), F(0), F(0)), F(1)),))


class TestBounds:
    def test_bounds_invariant(self):
        with pytest.raises(ValidationError):
            Bounds(F(1, 2), F(1, 4))
        assert Bounds(F(1, 4), F(1, 2)).width == F(1, 4)

    def test_width_zero_for_pinned_target(self):
        pf = mix_identity_flip()
        system = build_constraints(pf, ConstraintLevel.ONE_WAY)
        target = LinearTarget.from_query(CounterfactualQuery(((0, 0),)), 2, 2)
        bounds = lp_bounds(target, system)
        assert bounds.lo == bounds.hi == F(1, 2)

    def test_point_mass_full_determination(self):
        rng = random.Random(11)
        for n_x, n_y in ((2, 2), (3, 2)):
            index = rng.randrange(n_y**n_x)
            pf = FunctionDistribution.point_mass(
                FunctionTable.from_index(n_x, n_y, index)
            )
            system = build_constraints(pf, ConstraintLevel.TWO_WAY)
            coeffs = tuple(
                F(rng.randint(0, 1)) for _ in range(n_y**n_x)
            )
            target = LinearTarget(coeffs)
            bounds = lp_bounds(target, system)
            assert bounds.lo == bounds.hi == target.value_on(pf)

    def test_true_model_always_inside(self):
        rng = random.Random(7)
        for _ in range(10):
            pf = random_distribution(rng, 2, 2)
            for level in ConstraintLevel:
                system = build_constraints(pf, level)
                q = CounterfactualQuery(((0, rng.randrange(2)), (1, rng.randrange(2))))
                target = LinearTarget.from_query(q, 2, 2)
                bounds = lp_bounds(target, system)
                assert bounds.lo <= target.value_on(pf) <= bounds.hi

    def test_simplex_vs_vertex_enumeration(self):
        rng = random.Random(23)
        for n_x, n_y in ((2, 2), (3, 2)):
            for _ in range(5):
                pf = random_distribution(rng, n_x, n_y)
                for level in ConstraintLevel:
                    system = build_constraints(pf, level)
                    coeffs = tuple(
                        F(rng.randint(0, 1)) for _ in range(n_y**n_x)
                    )
                    a, b = system.matrix()
                    assert lp_bounds(LinearTarget(coeffs), system) == Bounds(
                        *vertex_range(coeffs, a, b)
                    )


MODEL_2X3 = random_distribution(random.Random(31), 2, 3)
TARGET_2X3 = LinearTarget.from_query(CounterfactualQuery(((0, 1), (1, 2))), 2, 3)
ONE_WAY_2X3 = build_constraints(MODEL_2X3, "one-way")
# every one-way event, x = 0 then x = 1, then the normalization row
FULL_2X3 = full_event_system(MODEL_2X3, "one-way").rows


def _with_row(system, row):
    return ConstraintSystem(system.n_x, system.n_y, (row, *system.rows))


# (target, system) pairs that the one-way closed form must leave to the LP
DECLINED = {
    "two-way system": (TARGET_2X3, build_constraints(MODEL_2X3, "two-way")),
    "duplicated row": (TARGET_2X3, _with_row(ONE_WAY_2X3, ONE_WAY_2X3.rows[0])),
    "queried input without rows": (
        TARGET_2X3, ConstraintSystem(2, 3, (*FULL_2X3[3:5], FULL_2X3[-1]))
    ),
    "0/1 row that is not an event": (
        # as many ones as an event row, so only decoding can refuse it
        LinearTarget.from_query(CounterfactualQuery(((0, 0),)), 2, 2),
        _with_row(
            build_constraints(FunctionDistribution.uniform(2, 2), "one-way"),
            ((1, 0, 0, 1), F(1, 2)),
        ),
    ),
    "twice an indicator": (
        LinearTarget([2 * c for c in TARGET_2X3.coefficients]), ONE_WAY_2X3
    ),
    "sum of two indicators": (
        LinearTarget([
            p + q for p, q in zip(
                _event_row(2, 3, ((0, 1),)), _event_row(2, 3, ((1, 2),))
            )
        ]),
        ONE_WAY_2X3,
    ),
    "all ones": (LinearTarget((1,) * 9), ONE_WAY_2X3),
    # the closed form reads the marginals and the query the two were
    # built from, never the rows, so these are declined too
    "query for other cardinalities": (
        # 4 -> 2 and 2 -> 4 both have 16 tables
        LinearTarget.from_query(CounterfactualQuery(((0, 1), (3, 0))), 4, 2),
        build_constraints(random_distribution(random.Random(5), 2, 4), "one-way"),
    ),
    "hand-built copy of a built system": (
        TARGET_2X3,
        ConstraintSystem(ONE_WAY_2X3.n_x, ONE_WAY_2X3.n_y, ONE_WAY_2X3.rows),
    ),
    "replaced target": (dataclasses.replace(TARGET_2X3), ONE_WAY_2X3),
}


class TestOneWayClosedForm:
    @pytest.mark.parametrize("case", DECLINED)
    def test_declines_and_the_lp_answers(self, case, monkeypatch):
        target, system = DECLINED[case]
        a, b = system.matrix()
        real, calls = lp.objective_range, []

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(lp, "objective_range", counted)
        assert identify._frechet_bounds(target, system) is None
        expected = Bounds(*real(list(target.coefficients), a, b))
        assert lp_bounds(target, system) == expected
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "rhs", [(F(1, 2), F(3, 4)), (F(3, 2),), (F(-1, 4), F(1, 4))],
        ids=["sum above 1", "missing value negative", "negative value"],
    )
    def test_infeasible_marginals_still_raise_with_a_checked_certificate(self, rhs):
        rows = [(_event_row(2, 2, ((0, y),)), v) for y, v in enumerate(rhs)]
        rows += [(_event_row(2, 2, ((1, 0),)), F(1, 2)), ((1,) * 4, 1)]
        system = ConstraintSystem(2, 2, tuple(rows))
        target = LinearTarget.from_query(CounterfactualQuery(((0, 0), (1, 0))), 2, 2)
        assert identify._frechet_bounds(target, system) is None
        with pytest.raises(InfeasibleSystemError) as excinfo:
            lp_bounds(target, system)
        a, b = system.matrix()
        lp._check_certificate(excinfo.value.certificate, a, b)

    def test_single_output_model_is_certain(self, monkeypatch):
        system = build_constraints(FunctionDistribution.uniform(3, 1), "one-way")
        target = LinearTarget.from_query(CounterfactualQuery(((0, 0), (2, 0))), 3, 1)

        def unreachable(*args):
            raise AssertionError("the LP ran on a one-way conjunction target")

        monkeypatch.setattr(lp, "objective_range", unreachable)
        assert lp_bounds(target, system) == Bounds(1, 1)

    def test_recorded_facts_are_not_part_of_the_value(self):
        for built, by_hand in (
            (ONE_WAY_2X3, ConstraintSystem(2, 3, ONE_WAY_2X3.rows)),
            (TARGET_2X3, LinearTarget(TARGET_2X3.coefficients)),
        ):
            assert built == by_hand and hash(built) == hash(by_hand)
            assert repr(built) == repr(by_hand)
        assert ONE_WAY_2X3.marginals == tuple(
            tuple(joint_counterfactual(MODEL_2X3, CounterfactualQuery(((x, y),)))
                  for y in range(3))
            for x in range(2)
        )
        assert build_constraints(MODEL_2X3, "two-way").marginals is None
        with pytest.raises(TypeError):
            ConstraintSystem(2, 3, ONE_WAY_2X3.rows, marginals=ONE_WAY_2X3.marginals)
        with pytest.raises(TypeError):
            LinearTarget(TARGET_2X3.coefficients, source=TARGET_2X3.source)


class TestIdentifiability:
    def test_binary_one_way_not_identifiable(self):
        truth = mix_identity_flip()
        system = build_constraints(truth, ConstraintLevel.ONE_WAY)
        target = LinearTarget.from_query(
            CounterfactualQuery(((0, 0), (1, 0))), 2, 2
        )
        result = is_identifiable(target, system)
        assert not result.identifiable
        assert (result.bounds.lo, result.bounds.hi) == (F(0), F(1, 2))
        assert result.witness_lo == truth
        assert result.witness_hi == mix_constants()
        assert model_satisfies(system, result.witness_lo)
        assert model_satisfies(system, result.witness_hi)

    def test_binary_two_way_identifies_everything(self):
        rng = random.Random(5)
        pf = random_distribution(rng, 2, 2)
        system = build_constraints(pf, ConstraintLevel.TWO_WAY)
        for index in range(16):
            coeffs = tuple(F((index >> k) & 1) for k in range(4))
            result = is_identifiable(LinearTarget(coeffs), system)
            assert result.identifiable

    def test_ternary_three_way_open_under_two_way(self):
        model_a = uniform_ternary_model()
        model_b = affine_ternary_model()
        system = build_constraints(model_a, ConstraintLevel.TWO_WAY)
        target = LinearTarget.from_query(
            CounterfactualQuery(((0, 0), (1, 1), (2, 2))), 3, 3
        )
        result = is_identifiable(target, system)
        assert not result.identifiable
        assert model_satisfies(system, model_b)  # both models feasible
        assert result.bounds.lo <= F(1, 27) < F(1, 9) <= result.bounds.hi
        assert target.value_on(result.witness_lo) == result.bounds.lo
        assert target.value_on(result.witness_hi) == result.bounds.hi

    def test_witnesses_attain_bounds(self):
        pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
        system = build_constraints(pf, ConstraintLevel.ONE_WAY)
        target = LinearTarget.from_query(
            CounterfactualQuery(((0, 0), (1, 1))), 2, 2
        )
        bounds, w_lo, w_hi = lp_bounds_with_witnesses(target, system)
        assert target.value_on(w_lo) == bounds.lo
        assert target.value_on(w_hi) == bounds.hi
        assert model_satisfies(system, w_lo) and model_satisfies(system, w_hi)


class TestMixtures:
    def test_permutation_and_constant_mixture_sizes(self):
        assert len(permutation_mixture(3).support()) == 6
        assert len(constant_mixture(3).support()) == 3

    def test_appendix_b_reports(self):
        for n in (2, 3):
            report = reproduce_appendix_b(n)
            assert report.passed, [c for c in report.claims if not c.passed]

    def test_appendix_b_values_directly(self):
        for n in (2, 3):
            perms = permutation_mixture(n)
            consts = constant_mixture(n)
            q = CounterfactualQuery(((0, 0), (1, 0)))
            assert joint_counterfactual(perms, q) == 0
            assert joint_counterfactual(consts, q) == F(1, n)

    def test_appendix_b_cap(self):
        from cforacle import EnumerationCapError

        with pytest.raises(EnumerationCapError):
            reproduce_appendix_b(30)


class TestSeparation:
    def test_two_way_data_beats_one_way_data_for_small_n(self):
        # n = 2: the conditioned-counterfactual numerator has positive
        # one-way width but is pinned by two-way data
        truth = mix_identity_flip()
        target = LinearTarget.from_query(
            CounterfactualQuery(((0, 0), (1, 0))), 2, 2
        )
        one = lp_bounds(target, build_constraints(truth, "one-way"))
        two = lp_bounds(target, build_constraints(truth, "two-way"))
        assert two.width == 0 < one.width

        # n = 3, 4: the all-ones n-way joint over the tail family
        for n, tail in ((3, ()), (4, (0,))):
            model = restricted_tail_model(n, tail)
            pairs = [(0, 1), (1, 1), (2, 1)] + [
                (3 + i, v) for i, v in enumerate(tail)
            ]
            target = LinearTarget.from_query(
                CounterfactualQuery(tuple(pairs)), n, 2
            )
            one = lp_bounds(target, build_constraints(model, "one-way"))
            two = lp_bounds(target, build_constraints(model, "two-way"))
            assert two.width < one.width
            assert two.hi < one.hi


class TestTailFamily:
    def test_reports_pass(self):
        for n, tail in ((3, ()), (4, (0,)), (5, (1, 0))):
            report = reproduce_appendix_e_general(n, tail)
            assert report.passed, [c for c in report.claims if not c.passed]

    def test_tail_validation(self):
        with pytest.raises(ValidationError):
            restricted_tail_model(4, ())
        with pytest.raises(ValidationError):
            restricted_tail_model(4, (2,))

    def test_solution_family_is_one_dimensional(self):
        system = build_constraints(restricted_tail_model(3, ()), "two-way")
        directions = solution_family_direction(system)
        assert len(directions) == 1
        parity = [
            F(1) if bin(i).count("1") % 2 else F(-1) for i in range(8)
        ]
        assert is_scalar_multiple(directions[0], parity)
