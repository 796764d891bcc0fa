"""The paper's models, its Appendix B and E report builders, and the
scripted end-to-end reproductions of its headline results.

Each scenario builds its models from scratch, runs the relevant
pipelines, and emits a :class:`ReproductionReport` whose claims are
checked exactly (rational contexts) or at an explicit tolerance
(floating contexts).  The CLI exposes these as ``reproduce <name>``.
The identifiability core (:mod:`identify` and below) imports nothing
from here.
"""

from __future__ import annotations

import dataclasses
from fractions import Fraction
from itertools import combinations, permutations, product

from . import lp
from .core import (
    CounterfactualQuery,
    Evidence,
    FunctionDistribution,
    FunctionTable,
    _cardinalities,
    _check_size,
    _describe_power,
    conditional_counterfactual,
    joint_counterfactual,
)
from .errors import ValidationError
from .identify import (
    ConstraintLevel,
    ConstraintSystem,
    LinearTarget,
    _marginal_counts,
    _witness,
    binary_forward_measurements,
    build_constraints,
    is_identifiable,
    lp_bounds,
    restricted_tail_model,
    solution_family_direction,
    solve_binary_pF,
)
from .modelio import table_to_digits
from .rational import is_scalar_multiple
from .report import ReproductionReport

# The quantum layer (and with it numpy) is imported inside the one scenario
# that uses it, and the toy layer inside its own, so the others load neither.

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


def permutation_mixture(n: int) -> FunctionDistribution:
    """Equal mixture of all n! bijections of {0..n-1}."""
    n, _ = _cardinalities(n, n)
    tables = [FunctionTable(n, n, perm) for perm in permutations(range(n))]
    return FunctionDistribution.uniform_over(tables)


def constant_mixture(n: int) -> FunctionDistribution:
    """Equal mixture of the n input-discarding constant maps."""
    n, _ = _cardinalities(n, n)
    tables = [FunctionTable.constant(n, n, y) for y in range(n)]
    return FunctionDistribution.uniform_over(tables)


def _parity_mixture(parity: int) -> FunctionDistribution:
    """Equal mixture of the four three-input binary tables whose outputs
    sum to ``parity`` mod 2: the two-way witnesses of Appendix E."""
    return FunctionDistribution.uniform_over(
        FunctionTable(3, 2, bits)
        for bits in product((0, 1), repeat=3)
        if sum(bits) % 2 == parity
    )


def model_satisfies(system: ConstraintSystem, pF: FunctionDistribution) -> bool:
    """Exact feasibility check of a distribution against a system."""
    return all(
        LinearTarget(coeffs).value_on(pF) == rhs for coeffs, rhs in system.rows
    )


def _conditional_values(pF: FunctionDistribution) -> set[Fraction]:
    """The set of every conditional p(Y_x = y) of ``pF``."""
    one, _ = _marginal_counts(pF, ())
    return {Fraction(count, pF._den) for counts in one for count in counts}


def _two_way_joints(
    pF: FunctionDistribution, repeated_only: bool = False
) -> set[Fraction]:
    """The set of every two-way joint p(Y_x = y, Y_x' = y') with x < x'
    of ``pF``; with ``repeated_only``, only those with y == y'."""
    _, two = _marginal_counts(pF, list(combinations(range(pF.n_x), 2)))
    return {
        Fraction(cell[y][y_prime], pF._den)
        for cell in two
        for y, y_prime in product(range(pF.n_y), repeat=2)
        if not repeated_only or y == y_prime
    }


def _tail_problem(
    n: int, fixed_tail: tuple[int, ...]
) -> tuple[LinearTarget, ConstraintSystem, ConstraintSystem]:
    """The Appendix E problem on n inputs: the all-ones n-way target over
    the restricted tail model (the tail pinned to ``fixed_tail``), with
    the model's one-way and two-way systems."""
    model = restricted_tail_model(n, fixed_tail)
    pairs = [(0, 1), (1, 1), (2, 1)] + [(3 + i, v) for i, v in enumerate(fixed_tail)]
    target = LinearTarget.from_query(CounterfactualQuery(tuple(pairs)), n, 2)
    one_way = build_constraints(model, ConstraintLevel.ONE_WAY)
    two_way = build_constraints(model, ConstraintLevel.TWO_WAY)
    return target, one_way, two_way


def reproduce_appendix_b(n: int) -> ReproductionReport:
    """Permutation versus constant mixtures of cardinality n.

    Both agree on every conditional (all equal 1/n), yet assign 0 versus
    1/n to every repeated-outcome pair p(Y_x = y, Y_x' = y) with x != x',
    so those joints cannot be told apart by single-query statistics.
    """
    n, _ = _cardinalities(n, n)
    if n < 2:
        raise ValidationError("needs n >= 2")
    _check_size(f"{_describe_power(n, n)} tables", n, n)
    report = ReproductionReport(f"appendix_b[n={n}]")
    perms = permutation_mixture(n)
    consts = constant_mixture(n)
    expected = Fraction(1, n)
    report.check(
        f"permutation mixture: all conditionals equal 1/{n}",
        {expected},
        _conditional_values(perms),
    )
    report.check(
        f"constant mixture: all conditionals equal 1/{n}",
        {expected},
        _conditional_values(consts),
    )
    report.check(
        "permutation mixture: repeated-outcome two-way joints all zero",
        {_ZERO},
        _two_way_joints(perms, repeated_only=True),
    )
    report.check(
        f"constant mixture: repeated-outcome two-way joints all 1/{n}",
        {expected},
        _two_way_joints(consts, repeated_only=True),
    )
    return report


def reproduce_appendix_e_general(
    n: int, fixed_tail: tuple[int, ...]
) -> ReproductionReport:
    """Single-query versus coherent-query bounds on an n-way joint.

    The all-ones n-way target over the restricted tail model caps at 1/2
    under one-way constraints (perfect correlation is feasible) but at 1/4
    once all two-way marginals are pinned.
    """
    report = ReproductionReport(f"appendix_e_general[n={n}, tail={list(fixed_tail)}]")
    target, classical, quantum = _tail_problem(n, fixed_tail)
    classical_bounds = lp_bounds(target, classical)
    quantum_bounds = lp_bounds(target, quantum)
    report.check(
        "one-way upper bound on the n-way joint", Fraction(1, 2), classical_bounds.hi
    )
    report.check("one-way lower bound", _ZERO, classical_bounds.lo)
    report.check(
        "two-way upper bound on the n-way joint", Fraction(1, 4), quantum_bounds.hi
    )
    report.check("two-way lower bound", _ZERO, quantum_bounds.lo)
    report.check_that(
        "two-way bound strictly tighter than one-way",
        quantum_bounds.hi < classical_bounds.hi,
        (quantum_bounds.hi, classical_bounds.hi),
    )
    return report


def scenario_binary() -> ReproductionReport:
    """Binary case: single queries leave a counterfactual completely open
    (width 0 to 1 after conditioning) while coherent probing pins the
    whole distribution."""
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
        lp_bounds(target, two_way).width == 0,
    )
    recovered = solve_binary_pF(*binary_forward_measurements(truth))
    report.check("probe statistics invert to the true model", truth, recovered)
    return report


def scenario_model_ab() -> ReproductionReport:
    """Two ternary models that agree on every one- and two-way marginal
    (and hence on the full coherent-probe state) yet differ three-way."""
    from .quantum import Amplitudes, _averaged_state

    report = ReproductionReport("model_ab")
    model_a = uniform_ternary_model()
    model_b = affine_ternary_model()
    third = Fraction(1, 3)
    ninth = Fraction(1, 9)
    report.check("model A conditionals all 1/3", {third}, _conditional_values(model_a))
    report.check("model B conditionals all 1/3", {third}, _conditional_values(model_b))
    report.check("model A two-way joints all 1/9", {ninth}, _two_way_joints(model_a))
    report.check("model B two-way joints all 1/9", {ninth}, _two_way_joints(model_b))
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
    rho_a = _averaged_state(model_a, alpha)
    rho_b = _averaged_state(model_b, alpha)
    gap = float(abs(rho_a.entries - rho_b.entries).max())
    report.check_close(
        "coherent-probe states coincide entry-wise", 0.0, gap, 1e-12
    )
    system = build_constraints(model_a, ConstraintLevel.TWO_WAY)
    target = LinearTarget.from_query(diagonal, 3, 3)
    bounds = lp_bounds(target, system)
    report.check(
        "three-way target not identifiable from two-way data",
        False,
        bounds.width == 0,
    )
    report.check_that(
        "both model values lie inside the two-way bounds",
        bounds.lo <= Fraction(1, 27) <= bounds.hi
        and bounds.lo <= ninth <= bounds.hi,
        (bounds.lo, bounds.hi),
    )
    return report


def scenario_appendix_b() -> ReproductionReport:
    report = ReproductionReport("appendix_b")
    for n in (2, 3):
        report.claims.extend(reproduce_appendix_b(n).claims)
    return report


def scenario_appendix_e() -> ReproductionReport:
    """Three binary inputs: the all-ones three-way joint is bounded by 1/2
    from one-way data but by 1/4 once two-way marginals are pinned."""
    report = ReproductionReport("appendix_e")
    target, classical, quantum = _tail_problem(3, ())
    q_result = is_identifiable(target, quantum)
    # one-way, the report reads the bounds and the upper witness only
    c_bounds = lp_bounds(target, classical)
    negated = [-v for v in target.coefficients]
    c_witness_hi = _witness(3, 2, lp.lexmin_optimal_vertex(negated, *classical.matrix()))
    report.check(
        "two-way bounds on the three-way joint",
        (_ZERO, Fraction(1, 4)),
        (q_result.bounds.lo, q_result.bounds.hi),
    )
    report.check(
        "one-way bounds on the three-way joint",
        (_ZERO, Fraction(1, 2)),
        (c_bounds.lo, c_bounds.hi),
    )
    perfectly_correlated = FunctionDistribution.uniform_over(
        FunctionTable.constant(3, 2, y) for y in (0, 1)
    )
    report.check(
        "one-way upper witness is the perfectly correlated model",
        perfectly_correlated,
        c_witness_hi,
    )
    report.check(
        "two-way lower witness is the even-parity mixture",
        _parity_mixture(0),
        q_result.witness_lo,
    )
    report.check(
        "two-way upper witness is the odd-parity mixture",
        _parity_mixture(1),
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
        report.claims.extend(
            dataclasses.replace(
                claim, description=f"n={n}, tail={list(tail)}: {claim.description}"
            )
            for claim in reproduce_appendix_e_general(n, tail).claims
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
