"""Scripted end-to-end reproductions of the library's headline results.

Each scenario builds its models from scratch, runs the relevant
pipelines, and emits a :class:`ReproductionReport` whose claims are
checked exactly (rational contexts) or at an explicit tolerance
(floating contexts).  The CLI exposes these as ``reproduce <name>``.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

from .core import (
    CounterfactualQuery,
    Evidence,
    FunctionDistribution,
    FunctionTable,
    conditional,
    conditional_counterfactual,
    joint_counterfactual,
)
from .errors import ValidationError
from .identify import (
    ConstraintLevel,
    ConstraintSystem,
    LinearTarget,
    build_constraints,
    is_identifiable,
    reproduce_appendix_b,
    reproduce_appendix_e_general,
    restricted_tail_model,
    solution_family_direction,
)
from .modelio import table_to_digits
from .rational import is_scalar_multiple
from .report import ReproductionReport

# The quantum and toy layers (and with them numpy) are imported inside the
# three scenarios that use them, so the exact scenarios run without numpy.

_ZERO = Fraction(0)


def mix_identity_flip() -> FunctionDistribution:
    return FunctionDistribution(
        2,
        2,
        {FunctionTable.identity(2): Fraction(1, 2), FunctionTable.flip(): Fraction(1, 2)},
    )


def mix_constants() -> FunctionDistribution:
    return FunctionDistribution(
        2,
        2,
        {
            FunctionTable.constant(2, 2, 0): Fraction(1, 2),
            FunctionTable.constant(2, 2, 1): Fraction(1, 2),
        },
    )


def uniform_ternary_model() -> FunctionDistribution:
    """Uniform over all 27 maps on three values."""
    return FunctionDistribution.uniform(3, 3)


def affine_ternary_model() -> FunctionDistribution:
    """Uniform over the nine maps x -> u + s*x (mod 3)."""
    tables = []
    for u in range(3):
        for s in range(3):
            tables.append(
                FunctionTable(3, 3, tuple((u + s * x) % 3 for x in range(3)))
            )
    return FunctionDistribution.uniform_over(tables)


def model_satisfies(system: ConstraintSystem, pF: FunctionDistribution) -> bool:
    """Exact feasibility check of a distribution against a system."""
    return all(
        LinearTarget(coeffs).value_on(pF) == rhs for coeffs, rhs in system.rows
    )


def scenario_binary() -> ReproductionReport:
    """Binary case: single queries leave a counterfactual completely open
    (width 0 to 1 after conditioning) while coherent probing pins the
    whole distribution."""
    from .quantum import binary_forward_measurements, solve_binary_pF

    report = ReproductionReport("binary")
    truth = mix_identity_flip()
    system = build_constraints(truth, ConstraintLevel.ONE_WAY)
    target = LinearTarget.from_query(
        CounterfactualQuery(((0, 0), (1, 0))), 2, 2
    )
    result = is_identifiable(target, system)
    report.check("one-way: target not identifiable", False, result.identifiable)
    report.check(
        "one-way numerator bounds", (_ZERO, Fraction(1, 2)),
        (result.bounds.lo, result.bounds.hi),
    )
    report.check(
        "lower witness is the identity/flip mixture", truth, result.witness_lo
    )
    report.check(
        "upper witness is the constants mixture", mix_constants(), result.witness_hi
    )
    report.check_that(
        "both witnesses satisfy the one-way constraints",
        model_satisfies(system, result.witness_lo)
        and model_satisfies(system, result.witness_hi),
        "checked exactly",
    )
    evidence = Evidence(0, 0)
    report.check(
        "conditioned counterfactual under lower witness",
        _ZERO,
        conditional_counterfactual(result.witness_lo, evidence, 1, 0),
    )
    report.check(
        "conditioned counterfactual under upper witness",
        Fraction(1),
        conditional_counterfactual(result.witness_hi, evidence, 1, 0),
    )
    two_way = build_constraints(truth, ConstraintLevel.TWO_WAY)
    report.check(
        "two-way: same target becomes identifiable",
        True,
        is_identifiable(target, two_way).identifiable,
    )
    recovered = solve_binary_pF(*binary_forward_measurements(truth))
    report.check("probe statistics invert to the true model", truth, recovered)
    return report


def scenario_model_ab() -> ReproductionReport:
    """Two ternary models that agree on every one- and two-way marginal
    (and hence on the full coherent-probe state) yet differ three-way."""
    from .quantum import Amplitudes, build_rho_xy

    report = ReproductionReport("model_ab")
    model_a = uniform_ternary_model()
    model_b = affine_ternary_model()
    third = Fraction(1, 3)
    ninth = Fraction(1, 9)
    cond_a = {conditional(model_a, x)[y] for x in range(3) for y in range(3)}
    cond_b = {conditional(model_b, x)[y] for x in range(3) for y in range(3)}
    report.check("model A conditionals all 1/3", {third}, cond_a)
    report.check("model B conditionals all 1/3", {third}, cond_b)
    joints_a = set()
    joints_b = set()
    for x, x_prime in combinations(range(3), 2):
        for y, y_prime in product(range(3), repeat=2):
            query = CounterfactualQuery(((x, y), (x_prime, y_prime)))
            joints_a.add(joint_counterfactual(model_a, query))
            joints_b.add(joint_counterfactual(model_b, query))
    report.check("model A two-way joints all 1/9", {ninth}, joints_a)
    report.check("model B two-way joints all 1/9", {ninth}, joints_b)
    diagonal = CounterfactualQuery(((0, 0), (1, 1), (2, 2)))
    report.check(
        "three-way joint under model A",
        Fraction(1, 27),
        joint_counterfactual(model_a, diagonal),
    )
    report.check(
        "three-way joint under model B",
        ninth,
        joint_counterfactual(model_b, diagonal),
    )
    alpha = Amplitudes.uniform(3)
    rho_a = build_rho_xy(model_a, alpha)
    rho_b = build_rho_xy(model_b, alpha)
    gap = float(abs(rho_a.entries - rho_b.entries).max())
    report.check_close(
        "coherent-probe states coincide entry-wise", 0.0, gap, 1e-12
    )
    system = build_constraints(model_a, ConstraintLevel.TWO_WAY)
    target = LinearTarget.from_query(diagonal, 3, 3)
    result = is_identifiable(target, system)
    report.check(
        "three-way target not identifiable from two-way data",
        False,
        result.identifiable,
    )
    report.check_that(
        "both model values lie inside the two-way bounds",
        result.bounds.lo <= Fraction(1, 27) <= result.bounds.hi
        and result.bounds.lo <= ninth <= result.bounds.hi,
        (result.bounds.lo, result.bounds.hi),
    )
    return report


def scenario_appendix_b() -> ReproductionReport:
    report = ReproductionReport("appendix_b")
    for n in (2, 3):
        sub = reproduce_appendix_b(n)
        for claim in sub.claims:
            report.claims.append(claim)
    return report


def scenario_appendix_e() -> ReproductionReport:
    """Three binary inputs: the all-ones three-way joint is bounded by 1/2
    from one-way data but by 1/4 once two-way marginals are pinned."""
    report = ReproductionReport("appendix_e")
    model = restricted_tail_model(3, ())
    target = LinearTarget.from_query(
        CounterfactualQuery(((0, 1), (1, 1), (2, 1))), 3, 2
    )
    quantum = build_constraints(model, ConstraintLevel.TWO_WAY)
    classical = build_constraints(model, ConstraintLevel.ONE_WAY)
    q_result = is_identifiable(target, quantum)
    c_result = is_identifiable(target, classical)
    quarter = Fraction(1, 4)
    report.check(
        "two-way bounds on the three-way joint",
        (_ZERO, quarter),
        (q_result.bounds.lo, q_result.bounds.hi),
    )
    report.check(
        "one-way bounds on the three-way joint",
        (_ZERO, Fraction(1, 2)),
        (c_result.bounds.lo, c_result.bounds.hi),
    )
    perfectly_correlated = FunctionDistribution(
        3,
        2,
        {
            FunctionTable(3, 2, (0, 0, 0)): Fraction(1, 2),
            FunctionTable(3, 2, (1, 1, 1)): Fraction(1, 2),
        },
    )
    report.check(
        "one-way upper witness is the perfectly correlated model",
        perfectly_correlated,
        c_result.witness_hi,
    )
    low_member = FunctionDistribution(
        3,
        2,
        {
            FunctionTable(3, 2, (0, 0, 0)): quarter,
            FunctionTable(3, 2, (0, 1, 1)): quarter,
            FunctionTable(3, 2, (1, 0, 1)): quarter,
            FunctionTable(3, 2, (1, 1, 0)): quarter,
        },
    )
    high_member = FunctionDistribution(
        3,
        2,
        {
            FunctionTable(3, 2, (0, 0, 1)): quarter,
            FunctionTable(3, 2, (0, 1, 0)): quarter,
            FunctionTable(3, 2, (1, 0, 0)): quarter,
            FunctionTable(3, 2, (1, 1, 1)): quarter,
        },
    )
    report.check(
        "two-way lower witness is the even-parity mixture",
        low_member,
        q_result.witness_lo,
    )
    report.check(
        "two-way upper witness is the odd-parity mixture",
        high_member,
        q_result.witness_hi,
    )
    directions = solution_family_direction(quantum)
    report.check(
        "two-way system leaves exactly one free direction", 1, len(directions)
    )
    parity = [
        Fraction(1) if (sum(bits) % 2 == 1) else Fraction(-1)
        for bits in product((0, 1), repeat=3)
    ]
    report.check_that(
        "free direction alternates with output parity",
        len(directions) == 1 and is_scalar_multiple(directions[0], parity),
        directions[0] if directions else "none",
    )
    return report


def scenario_appendix_e_general() -> ReproductionReport:
    report = ReproductionReport("appendix_e_general")
    for n, tail in ((3, ()), (4, (0,)), (5, (1, 0))):
        sub = reproduce_appendix_e_general(n, tail)
        for claim in sub.claims:
            report.claims.append(
                type(claim)(
                    f"n={n}, tail={list(tail)}: {claim.description}",
                    claim.expected,
                    claim.computed,
                    claim.passed,
                )
            )
    return report


def scenario_toy() -> ReproductionReport:
    from .toy import verify_binary_equivalence

    report = ReproductionReport("toy")
    equivalence = verify_binary_equivalence()
    for comparison in equivalence.comparisons:
        weights = ", ".join(
            f"{table_to_digits(t)}={w}" for t, w in comparison.pF.weights.items()
        )
        report.check(
            f"{comparison.scenario} on pF({weights})",
            comparison.quantum,
            comparison.toy,
        )
    report.check("all comparisons equal", True, equivalence.all_equal)
    return report


SCENARIOS = {
    "binary": scenario_binary,
    "appendix_b": scenario_appendix_b,
    "model_ab": scenario_model_ab,
    "appendix_e": scenario_appendix_e,
    "appendix_e_general": scenario_appendix_e_general,
    "toy": scenario_toy,
}


def run_scenario(name: str) -> ReproductionReport:
    if name not in SCENARIOS:
        raise ValidationError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    return SCENARIOS[name]()
