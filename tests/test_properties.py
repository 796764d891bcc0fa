"""Property-based invariants over randomized models and systems."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cforacle import (
    Amplitudes,
    Bounds,
    ConstraintLevel,
    CounterfactualQuery,
    Evidence,
    FunctionDistribution,
    FunctionTable,
    LinearTarget,
    build_constraints,
    build_rho_xy,
    conditional,
    conditional_counterfactual,
    extract_two_way,
    joint_counterfactual,
    lp_bounds,
    scenario_probability_exact,
    scenario_probability_simulated,
    solve_binary_pF,
    binary_forward_measurements,
    toy_scenario_probability,
)
from cforacle import BINARY_SCENARIOS, lp
from cforacle.core import _DIGIT_LOOP
from conftest import brute_force_joint, product_model
from reference import (
    abduct_act_predict,
    full_event_system,
    loop_index,
    loop_outputs,
    observational_joint,
    vertex_range,
)

F = Fraction

CARDS_ALL = [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
CARDS_MULTI_INPUT = [(2, 2), (3, 2), (2, 3), (3, 3)]
CARDS_LP = [(2, 2), (3, 2), (2, 3)]


@st.composite
def distributions(draw, cards):
    n_x, n_y = draw(st.sampled_from(cards))
    dim = n_y**n_x
    raw = draw(
        st.lists(st.integers(0, 8), min_size=dim, max_size=dim).filter(
            lambda r: sum(r) > 0
        )
    )
    total = sum(raw)
    weights = {
        FunctionTable.from_index(n_x, n_y, i): F(k, total)
        for i, k in enumerate(raw)
        if k
    }
    return FunctionDistribution(n_x, n_y, weights)


@st.composite
def distribution_with_query(draw, cards, max_pairs=3):
    pf = draw(distributions(cards))
    k = draw(st.integers(1, min(max_pairs, pf.n_x)))
    xs = draw(
        st.lists(
            st.integers(0, pf.n_x - 1), min_size=k, max_size=k, unique=True
        )
    )
    ys = draw(st.lists(st.integers(0, pf.n_y - 1), min_size=k, max_size=k))
    return pf, CounterfactualQuery(tuple(zip(xs, ys)))


@given(distributions(CARDS_ALL), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_conditionals_normalize_exactly(pf, data):
    x = data.draw(st.integers(0, pf.n_x - 1))
    assert sum(conditional(pf, x)) == 1


@given(distribution_with_query(CARDS_MULTI_INPUT))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_frechet_monotonicity(pf_and_query):
    pf, query = pf_and_query
    assume(len(query.pairs) >= 2)
    value = joint_counterfactual(pf, query)
    for drop in range(len(query.pairs)):
        sub = CounterfactualQuery(
            tuple(p for i, p in enumerate(query.pairs) if i != drop)
        )
        assert value <= joint_counterfactual(pf, sub)


@given(distributions(CARDS_ALL), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_single_pair_query_is_the_conditional(pf, data):
    x = data.draw(st.integers(0, pf.n_x - 1))
    y = data.draw(st.integers(0, pf.n_y - 1))
    q = CounterfactualQuery(((x, y),))
    assert joint_counterfactual(pf, q) == conditional(pf, x)[y]


@given(distribution_with_query(CARDS_MULTI_INPUT))
@settings(max_examples=120, deadline=None, derandomize=True)
def test_joint_counterfactual_matches_brute_force(pf_and_query):
    pf, query = pf_and_query
    assert joint_counterfactual(pf, query) == brute_force_joint(pf, query.pairs)


@given(distributions(CARDS_MULTI_INPUT), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_three_step_equivalence(pf, data):
    x_obs = data.draw(st.integers(0, pf.n_x - 1))
    y_obs = data.draw(st.integers(0, pf.n_y - 1))
    assume(conditional(pf, x_obs)[y_obs] > 0)
    x_cf = data.draw(st.integers(0, pf.n_x - 1))
    evidence = Evidence(x_obs, y_obs)
    vec = abduct_act_predict(pf, evidence, x_cf)
    for y_cf in range(pf.n_y):
        assert vec[y_cf] == conditional_counterfactual(pf, evidence, x_cf, y_cf)


@given(distributions(CARDS_MULTI_INPUT), st.data())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_unconfounded_models_collapse(pf, data):
    raw = data.draw(
        st.lists(
            st.integers(0, 5), min_size=pf.n_x, max_size=pf.n_x
        ).filter(lambda r: sum(r) > 0)
    )
    p_x = [F(k, sum(raw)) for k in raw]
    model = product_model(p_x, pf)
    joint = observational_joint(model)
    for x in range(pf.n_x):
        if p_x[x] == 0:
            continue
        observational = tuple(joint[x][y] / p_x[x] for y in range(pf.n_y))
        assert conditional(model.response_marginal(), x) == observational


@given(distributions(CARDS_MULTI_INPUT))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_density_matrix_invariants_and_diagonal(pf):
    alpha = Amplitudes.uniform(pf.n_x)
    rho = build_rho_xy(pf, alpha)  # constructor enforces the invariants
    entries = rho.entries
    assert float(np.max(np.abs(entries - entries.conj().T))) <= 1e-12
    assert abs(complex(np.trace(entries)) - 1) <= 1e-12
    assert float(np.min(np.linalg.eigvalsh(entries))) >= -1e-10
    for x in range(pf.n_x):
        cond = conditional(pf, x)
        for y in range(pf.n_y):
            i = x * pf.n_y + y
            expected = float(cond[y]) / pf.n_x
            assert abs(entries[i, i].real - expected) <= 1e-12


@given(distributions(CARDS_MULTI_INPUT), st.data())
@settings(max_examples=60, deadline=None, derandomize=True)
def test_extraction_round_trip(pf, data):
    alpha = Amplitudes.uniform(pf.n_x)
    rho = build_rho_xy(pf, alpha)
    x = data.draw(st.integers(0, pf.n_x - 1))
    x_prime = data.draw(st.integers(0, pf.n_x - 1).filter(lambda v: v != x))
    y = data.draw(st.integers(0, pf.n_y - 1))
    y_prime = data.draw(st.integers(0, pf.n_y - 1))
    exact = joint_counterfactual(
        pf, CounterfactualQuery(((x, y), (x_prime, y_prime)))
    )
    value = extract_two_way(rho, alpha, x, x_prime, y, y_prime)
    assert abs(value - float(exact)) <= 1e-9


@given(
    distributions([(2, 2)]),
    distributions([(2, 2)]),
    st.integers(1, 9),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_rho_is_convex_in_the_distribution(p, q, numerator):
    lam = F(numerator, 10)
    mixed_weights = {}
    for table in set(p.support()) | set(q.support()):
        mixed_weights[table] = lam * p.probability(table) + (
            1 - lam
        ) * q.probability(table)
    mixed = FunctionDistribution(2, 2, mixed_weights)
    alpha = Amplitudes.uniform(2)
    lhs = build_rho_xy(mixed, alpha).entries
    rhs = (
        float(lam) * build_rho_xy(p, alpha).entries
        + float(1 - lam) * build_rho_xy(q, alpha).entries
    )
    assert float(np.max(np.abs(lhs - rhs))) <= 1e-12


@given(distribution_with_query(CARDS_LP, max_pairs=2), st.sampled_from(list(ConstraintLevel)))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_lp_soundness_and_bounds_shape(pf_and_query, level):
    pf, query = pf_and_query
    system = build_constraints(pf, level)
    target = LinearTarget.from_query(query, pf.n_x, pf.n_y)
    bounds = lp_bounds(target, system)
    value = target.value_on(pf)
    assert 0 <= bounds.lo <= value <= bounds.hi <= 1


@given(distribution_with_query(CARDS_LP, max_pairs=2))
@settings(max_examples=30, deadline=None, derandomize=True)
def test_more_constraints_never_widen_bounds(pf_and_query):
    pf, query = pf_and_query
    target = LinearTarget.from_query(query, pf.n_x, pf.n_y)
    one = lp_bounds(target, build_constraints(pf, ConstraintLevel.ONE_WAY))
    two = lp_bounds(target, build_constraints(pf, ConstraintLevel.TWO_WAY))
    assert one.lo <= two.lo and two.hi <= one.hi


@given(distributions([(2, 2), (3, 2), (2, 3), (3, 3)]), st.data())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_two_way_targets_have_zero_width_under_two_way_data(pf, data):
    assume(pf.n_x >= 2)
    system = build_constraints(pf, ConstraintLevel.TWO_WAY)
    x = data.draw(st.integers(0, pf.n_x - 1))
    x_prime = data.draw(st.integers(0, pf.n_x - 1).filter(lambda v: v != x))
    y = data.draw(st.integers(0, pf.n_y - 1))
    y_prime = data.draw(st.integers(0, pf.n_y - 1))
    query = CounterfactualQuery(((x, y), (x_prime, y_prime)))
    target = LinearTarget.from_query(query, pf.n_x, pf.n_y)
    bounds = lp_bounds(target, system)
    assert bounds.lo == bounds.hi == joint_counterfactual(pf, query)


@given(distribution_with_query([(2, 2), (3, 2)], max_pairs=2), st.sampled_from(list(ConstraintLevel)))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_simplex_agrees_with_vertex_oracle(pf_and_query, level):
    pf, query = pf_and_query
    system = build_constraints(pf, level)
    target = LinearTarget.from_query(query, pf.n_x, pf.n_y)
    a, b = system.matrix()
    assert lp_bounds(target, system) == Bounds(*vertex_range(target.coefficients, a, b))


@st.composite
def one_way_cases(draw):
    """A model with n_x, n_y <= 4 on a dense or a sparse (1-6 table)
    support, weights over mixed denominators, and a conjunction over 1 to
    n_x distinct inputs."""
    n_x, n_y = draw(st.integers(1, 4)), draw(st.integers(2, 4))
    dim = n_y**n_x
    dense = draw(st.booleans())
    indices = range(dim) if dense else draw(
        st.lists(st.integers(0, dim - 1), min_size=1, max_size=6, unique=True)
    )
    weight = st.builds(F, st.integers(1, 9), st.sampled_from([1, 2, 3, 5, 7, 12]))
    raw = {i: draw(weight) for i in indices}
    total = sum(raw.values())
    pf = FunctionDistribution(n_x, n_y, {
        FunctionTable.from_index(n_x, n_y, i): w / total for i, w in raw.items()
    })
    xs = draw(st.permutations(range(n_x)))[: draw(st.integers(1, n_x))]
    ys = [draw(st.integers(0, n_y - 1)) for _ in xs]
    return pf, CounterfactualQuery(tuple(zip(xs, ys)))


@given(one_way_cases(), st.booleans())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_one_way_closed_form_equals_the_lp(case, full):
    # the built system (n_y - 1 rows per input) takes the closed form and
    # never reaches the LP; the hand-built one with every one-way event
    # row goes to the LP, and both equal the LP's range on the built rows
    pf, query = case
    system = build_constraints(pf, "one-way")
    target = LinearTarget.from_query(query, pf.n_x, pf.n_y)
    a, b = system.matrix()
    expected = Bounds(*lp.objective_range(list(target.coefficients), a, b))
    if full:
        assert lp_bounds(target, full_event_system(pf, "one-way")) == expected
        return

    def unreachable(*args):
        raise AssertionError("the LP ran on a one-way conjunction target")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(lp, "objective_range", unreachable)
        assert lp_bounds(target, system) == expected


@given(distributions([(2, 2)]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_binary_solve_inverts_forward_statistics(pf):
    assert solve_binary_pF(*binary_forward_measurements(pf)) == pf


@given(distributions([(2, 2)]))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_toy_and_simulated_scenarios_match_the_exact_ones(pf):
    for scenario in BINARY_SCENARIOS:
        exact = scenario_probability_exact(pf, scenario)
        assert toy_scenario_probability(pf, scenario) == exact
        assert abs(scenario_probability_simulated(pf, scenario) - exact) <= 1e-12


# table lengths on both sides of the digit loop's limit and of its splits
TABLE_LENGTHS = st.one_of(
    st.sampled_from([_DIGIT_LOOP, _DIGIT_LOOP + 1, 2 * _DIGIT_LOOP + 1]),
    st.integers(1, 5 * _DIGIT_LOOP),
)


@given(TABLE_LENGTHS, st.integers(1, 7), st.data())
@settings(max_examples=120, deadline=None, derandomize=True)
def test_index_conversions_match_the_digit_loop(n_x, n_y, data):
    outputs = tuple(
        data.draw(st.lists(st.integers(0, n_y - 1), min_size=n_x, max_size=n_x))
    )
    index = loop_index(outputs, n_y)
    assert loop_outputs(index, n_x, n_y) == outputs
    table = FunctionTable(n_x, n_y, outputs)
    assert table.index == index
    assert FunctionTable.from_index(n_x, n_y, index) == table
