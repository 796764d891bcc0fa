"""Every linear functional of a distribution is a sum of integers over the
weights' one denominator; each is checked against the same sum taken one
``Fraction`` at a time in ``reference.py``."""

import math
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cforacle import (
    BINARY_SCENARIOS,
    ConfoundedModel,
    CounterfactualQuery,
    FunctionDistribution,
    LinearTarget,
    build_constraints,
    conditional,
    joint_counterfactual,
    scenario_probability_exact,
)
from reference import (
    fraction_conditional,
    fraction_joint,
    fraction_scenario_probability,
    fraction_value_on,
)

F = Fraction

CARDS = [(1, 1), (1, 2), (2, 2), (3, 2), (2, 3), (3, 3)]
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

# Raw weights of unlike denominators, so the lcm is not the count of tables.
raw_weights = st.fractions(min_value=0, max_value=3, max_denominator=12)


@st.composite
def distributions(draw, cards=CARDS):
    n_x, n_y = draw(st.sampled_from(cards))
    raw = draw(
        st.lists(raw_weights, min_size=n_y**n_x, max_size=n_y**n_x).filter(any)
    )
    total = sum(raw)
    return FunctionDistribution.from_vector(n_x, n_y, [w / total for w in raw])


@given(distributions())
@SETTINGS
def test_weights_are_integers_over_their_lcm(pF):
    assert pF._den == math.lcm(*(w.denominator for w in pF.weights.values()))
    assert [F(num, pF._den) for num in pF._nums] == list(pF.weights.values())
    assert sum(pF._nums) == pF._den


@given(distributions())
@SETTINGS
def test_conditional_matches_the_fraction_sum(pF):
    for x in range(pF.n_x):
        assert conditional(pF, x) == fraction_conditional(pF, x)


@given(distributions(), st.data())
@SETTINGS
def test_joint_counterfactual_matches_the_fraction_sum(pF, data):
    xs = data.draw(st.lists(st.integers(0, pF.n_x - 1), min_size=1, unique=True))
    ys = data.draw(st.lists(st.integers(0, pF.n_y - 1), min_size=len(xs),
                            max_size=len(xs)))
    pairs = tuple(zip(xs, ys))
    assert joint_counterfactual(pF, CounterfactualQuery(pairs)) == fraction_joint(
        pF, pairs
    )


@given(distributions(), st.data())
@SETTINGS
def test_value_on_matches_the_fraction_sum(pF, data):
    dim = pF.n_y**pF.n_x
    coefficients = data.draw(st.lists(
        st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=9),
        min_size=dim, max_size=dim,
    ))
    value = LinearTarget(coefficients).value_on(pF)
    assert value == fraction_value_on(coefficients, pF)
    assert type(value) is Fraction


@given(distributions([(2, 2)]))
@SETTINGS
def test_scenario_probabilities_match_the_fraction_sum(pF):
    for scenario in BINARY_SCENARIOS:
        exact = scenario_probability_exact(pF, scenario)
        assert exact == fraction_scenario_probability(pF, scenario)


@given(distributions(), st.sampled_from(["one-way", "two-way"]))
@SETTINGS
def test_constraint_right_hand_sides_match_the_fraction_sum(pF, level):
    system = build_constraints(pF, level)
    for coeffs, rhs in system.rows:
        assert rhs == fraction_value_on(coeffs, pF)
    if system.marginals is not None:
        expected = tuple(fraction_conditional(pF, x) for x in range(pF.n_x))
        assert system.marginals == expected


@given(distributions([(2, 2), (2, 3)]), st.data())
@SETTINGS
def test_response_marginal_matches_the_fraction_sum(pF, data):
    # split each table's weight over the input settings at random
    joint = {}
    for table, w in pF.weights.items():
        share = data.draw(st.fractions(0, 1, max_denominator=7))
        joint[(0, table)], joint[(1, table)] = w * share, w * (1 - share)
    model = ConfoundedModel(pF.n_x, pF.n_y, joint)
    assert model.response_marginal() == pF

