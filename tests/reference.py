"""Exact references that faster library routes are checked against.

For the LP tests, independent of :mod:`cforacle.lp`: brute-force vertex
enumeration, and the ``Fraction`` tableau that the fraction-free kernel
replaced (every entry a ``Fraction``, every row update a ``Fraction``
Gauss-Jordan step, with the library's pricing rule), whose phase 1 also
runs in the wide form, with priced artificial columns, that the library's
narrow phase 1 replaced; and for the reduced
costs, which the library forms as one integer combination of the basic
rows, one ``rational.pivot`` per basic row.  For the event systems: every
one-way and two-way event, of which ``build_constraints`` emits a basis
plus the zero events; and for an event row, which the library grows by
tuple repetition from the last input outward, the AND of one full-length
run tuple per pair.  For the binary probe solve: the
elimination on the 4x4 scenario matrix that its cached inverse
replaced.  For the counterfactual core: the three-step
abduction/action/prediction route, the observational side of a
confounded model, and the validity test of a bit-pair epistemic state.
For the linear functionals of a distribution and the table sampler's
cuts, which the library sums as integers over the weights' one
denominator: the same sums taken one ``Fraction`` at a time.  For the
canonical table index, which the library converts by splitting the
digits at a power of n_y: the loop of one operation per digit on the
whole integer.  For the density matrix, which the library forms from
float bincounts of the pairwise outputs: each entry from the exact joint,
rounded once, times the amplitude product in scalar floats.  For
tomography, which the library extracts over all keys in one array
routine: the per-key loop of scalar extractions it replaced.  For the
table sampler, which draws one chunk at a time and looks draws up
through a bucket table: one serial draw of the whole stream and a full
binary search per draw."""

import operator
import random
from fractions import Fraction
from functools import partial, reduce
from itertools import combinations, product

import numpy as np

from cforacle import (
    ConstraintLevel,
    ConstraintSystem,
    CounterfactualQuery,
    FunctionDistribution,
    InfeasibleSystemError,
    MeasurementInconsistencyError,
    UnboundedProgramError,
    UndefinedConditionalError,
    conditional,
    enumerate_functions,
    joint_counterfactual,
    restricted_tail_model,
)
from cforacle.core import _event_row
from cforacle.errors import ExtractionError, ValidationError
from cforacle.identify import BINARY_SCENARIOS, scenario_coefficient
from cforacle.quantum import EXTRACTION_TOL, STATE_TOL
from cforacle.rational import pivot, rref, solve_unique
from cforacle.reproduce import affine_ternary_model, uniform_ternary_model
from conftest import random_distribution

F = Fraction


def vertices(a, b):
    """All vertices of ``{A x = b, x >= 0}``, sorted; ``[]`` when it is empty.

    For each set of rank(A) columns on which ``A x = b`` has a unique
    nonnegative solution, that solution padded with zeros.
    """
    found = set()
    for cols in combinations(range(len(a[0])), len(rref(a)[0])):
        x = solve_unique([[row[j] for j in cols] for row in a], b)
        if x is not None and all(v >= 0 for v in x):
            point = dict(zip(cols, x))
            found.add(tuple(point.get(j, F(0)) for j in range(len(a[0]))))
    return sorted(found)


def _dot(u, v):
    return sum(p * q for p, q in zip(u, v))


def vertex_range(c, a, b):
    """(min, max) of ``c . x`` over a nonempty bounded ``{A x = b, x >= 0}``."""
    values = [_dot(c, v) for v in vertices(a, b)]
    return min(values), max(values)


def lexmin_by_enumeration(c, a, b):
    """Lexicographically smallest optimal vertex, from all vertices."""
    points = vertices(a, b)
    best = min(_dot(c, v) for v in points)
    return list(min(v for v in points if _dot(c, v) == best))


def fraction_pivot(rows, r, col):
    row = rows[r]
    inv = row[col]
    if inv != 1:
        for j, v in enumerate(row):
            if v:
                row[j] = v / inv
    nonzero = [(j, v) for j, v in enumerate(row) if v]
    for i, other in enumerate(rows):
        factor = other[col]
        if factor and i != r:
            for j, v in nonzero:
                other[j] -= factor * v


def fraction_iterate(tableau, basis, n_cols, allowed=None):
    """The library's pricing: the most negative reduced cost, lowest index
    on ties, and the first negative one (Bland's rule) after a degenerate
    pivot."""
    m = len(tableau) - 1
    bland = False
    while True:
        cost = tableau[m]
        negative = [
            j for j in range(n_cols) if cost[j] < 0 and (allowed is None or allowed[j])
        ]
        if not negative:
            return
        enter = negative[0] if bland else min(negative, key=lambda j: cost[j])
        leave = None
        best_ratio = None
        for i in range(m):
            coeff = tableau[i][enter]
            if coeff > 0:
                ratio = tableau[i][-1] / coeff
                if (
                    best_ratio is None
                    or ratio < best_ratio
                    or (ratio == best_ratio and basis[i] < basis[leave])
                ):
                    best_ratio = ratio
                    leave = i
        if leave is None:
            raise UnboundedProgramError(f"unbounded along variable {enter}")
        bland = tableau[leave][-1] == 0
        fraction_pivot(tableau, leave, enter)
        basis[leave] = enter


def fraction_price(tableau, basis):
    for i, bvar in enumerate(basis):
        if tableau[-1][bvar]:
            fraction_pivot(tableau, i, bvar)


def pivot_price(rows, dens, basis):
    """``lp._price`` of the integer tableau ``(rows, dens)``: one
    ``rational.pivot`` on each basic row whose column the cost row does
    not yet clear."""
    for i, bvar in enumerate(basis):
        if rows[-1][bvar]:
            pivot(rows, dens, i, bvar)


def fraction_phase1(c, a, b, wide=False):
    """``lp._phase1`` on a ``Fraction`` tableau that keeps the artificial
    columns.  Only the original columns are priced, so an artificial that
    leaves the basis never re-enters, as in the library; the artificial
    columns carry ``B^-1``, from which an infeasible system's certificate
    is read.  With ``wide``, the artificial columns are priced too, as in
    the two-phase method the library's narrow phase 1 replaced."""
    m, n = len(a), len(a[0])
    signs = [-1 if v < 0 else 1 for v in b]
    # Fraction entries even for int rows, whose int/int pivots would be floats
    tableau = [
        [sign * F(v) for v in a[i]]
        + [F(int(k == i)) for k in range(m)]
        + [sign * F(b[i])]
        for i, sign in enumerate(signs)
    ]
    basis = [n + i for i in range(m)]
    tableau.append([F(0)] * n + [F(1)] * m + [F(0)])
    fraction_price(tableau, basis)
    fraction_iterate(tableau, basis, n + m if wide else n)
    value1 = -tableau[m][-1]
    if value1 > 0:
        certificate = [signs[k] * (1 - tableau[m][n + k]) for k in range(m)]
        raise InfeasibleSystemError(
            "infeasible", residual=value1, certificate=certificate
        )
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j] != 0), None)
            if enter is None:
                continue
            fraction_pivot(tableau, i, enter)
            basis[i] = enter
        keep.append(i)
    tableau2 = [tableau[i][:n] + tableau[i][-1:] for i in keep]
    tableau2.append([F(v) for v in c] + [F(0)])
    basis2 = [basis[i] for i in keep]
    fraction_price(tableau2, basis2)
    return tableau2, basis2


def fraction_face_walk(tableau, basis, n):
    fraction_iterate(tableau, basis, n)
    eligible = [d == 0 for d in tableau[-1][:n]]
    for j in range(n):
        if sum(eligible) == len(basis):
            break
        if eligible[j]:
            tableau[-1] = [F(int(k == j)) for k in range(n + 1)]
            fraction_price(tableau, basis)
            fraction_iterate(tableau, basis, n, eligible)
            eligible = [e and d == 0 for e, d in zip(eligible, tableau[-1])]
    values = {bvar: row[-1] for bvar, row in zip(basis, tableau)}
    return [values.get(j, F(0)) for j in range(n)], basis


def events(n_x, n_y, level):
    """Every event of ``level`` as its ``(x, y)`` pairs: the one-way events
    by x then y, then for two-way the two-way events by (x, x') then
    (y, y')."""
    found = [((x, y),) for x in range(n_x) for y in range(n_y)]
    if ConstraintLevel.parse(level) is ConstraintLevel.TWO_WAY:
        found += [
            ((x, y), (x_prime, y_prime))
            for x, x_prime in combinations(range(n_x), 2)
            for y in range(n_y)
            for y_prime in range(n_y)
        ]
    return found


def run_and_indicator(n_x, n_y, pairs):
    """``core._event_row`` for pairs in range: ``{f(x) = y}`` is a run
    of n_y**(n_x-1-x) ones at offset y in each block of n_y**(n_x-x)
    tables, and the row is the entrywise AND of one such tuple per pair."""
    runs = []
    for x, y in pairs:
        run = n_y ** (n_x - 1 - x)
        block = (0,) * (y * run) + (1,) * run + (0,) * ((n_y - 1 - y) * run)
        runs.append(block * n_y**x)
    return tuple(reduce(partial(map, operator.and_), runs, (1,) * n_y**n_x))


def full_event_system(pF, level):
    """A row for every event, its right-hand side from
    ``joint_counterfactual``, then the normalization row."""
    rows = [
        (
            _event_row(pF.n_x, pF.n_y, pairs),
            joint_counterfactual(pF, CounterfactualQuery(pairs)),
        )
        for pairs in events(pF.n_x, pF.n_y, level)
    ]
    rows.append(((1,) * pF.n_y**pF.n_x, F(1)))
    return ConstraintSystem(pF.n_x, pF.n_y, tuple(rows))


def basis_events(pF, level):
    """The events ``build_constraints`` keeps, in order: with r(x) the last
    y of positive p(f(x)=y), those with y != r(x) on each of their inputs,
    and the rest of probability 0."""
    ref = [
        max(y for y, p in enumerate(conditional(pF, x)) if p) for x in range(pF.n_x)
    ]
    return [
        pairs
        for pairs in events(pF.n_x, pF.n_y, level)
        if all(y != ref[x] for x, y in pairs)
        or joint_counterfactual(pF, CounterfactualQuery(pairs)) == 0
    ]


def row_event(tables, coeffs):
    """The pairs of an event row: the inputs on which every table with
    coefficient 1 agrees, with their common output."""
    members = [t.outputs for t, c in zip(tables, coeffs) if c == 1]
    return tuple(
        (x, members[0][x])
        for x in range(len(members[0]))
        if len({outs[x] for outs in members}) == 1
    )


def ladder():
    """``(name, model, level, pairs)``: the binary tail models of 5 to 8
    inputs at both levels with their all-ones-then-tail target, then
    ternary two-way models with a diagonal target."""
    tails = {5: (0, 1), 6: (1, 1, 1), 7: (0, 1, 0, 1), 8: (1, 0, 1, 0, 1)}
    for n, tail in tails.items():
        for level in ("one-way", "two-way"):
            pairs = ((0, 1), (1, 1), (2, 1)) + tuple(
                (3 + i, v) for i, v in enumerate(tail)
            )
            yield f"tail-{n} {level}", restricted_tail_model(n, tail), level, pairs
    diagonal = ((0, 0), (1, 1), (2, 2))
    yield "affine 3x3 two-way", affine_ternary_model(), "two-way", diagonal
    yield "uniform 3x3 two-way", uniform_ternary_model(), "two-way", diagonal
    yield (
        "uniform 4x3 two-way", FunctionDistribution.uniform(4, 3), "two-way",
        diagonal + ((3, 0),),
    )


RANDOM_SIZES = ((1, 3), (2, 2), (3, 2), (2, 3), (4, 2), (3, 3))


def random_and_sparse(n_x, n_y):
    """A dense random model (seed ``10 * n_x + n_y``) and, from the same
    generator, the uniform mixture of three random tables."""
    rng = random.Random(10 * n_x + n_y)
    dense = random_distribution(rng, n_x, n_y)
    tables = enumerate_functions(n_x, n_y)
    return dense, FunctionDistribution.uniform_over(rng.sample(tables, 3))


def binary_matrix():
    """The binary identification matrix: one row of table coefficients per
    probe scenario, then the all-ones normalization row."""
    tables = enumerate_functions(2, 2)
    matrix = [[scenario_coefficient(t, s) for t in tables] for s in BINARY_SCENARIOS]
    matrix.append([F(1)] * len(tables))
    return matrix


def binary_solve_by_elimination(c00, c01, bell):
    """``solve_binary_pF`` by one ``solve_unique`` elimination per call,
    with the residual test and the clamp done in ``Fraction``."""
    solution = solve_unique(binary_matrix(), [F(c00), F(c01), F(bell), F(1)])
    low, high = min(solution), max(solution)
    residual = max(F(0) - low, high - 1, F(0))
    if residual > F(1, 10**9):
        raise MeasurementInconsistencyError(
            "measured statistics admit no distribution: component range "
            f"[{low}, {high}] exceeds [0, 1] by {residual}",
            residual=residual,
        )
    clamped = [min(max(v, F(0)), F(1)) for v in solution]
    total = sum(clamped)
    return FunctionDistribution.from_vector(2, 2, [v / total for v in clamped])


def abduct_act_predict(pF, evidence, x_cf):
    """p(Y would be y under do(X=x_cf) | evidence) for every y, in three
    steps: condition the tables on the evidence (abduction), set X to
    x_cf (action), push the posterior through the tables (prediction)."""
    x_obs, y_obs = evidence.x_obs, evidence.y_obs
    posterior = {t: w for t, w in pF.weights.items() if t.outputs[x_obs] == y_obs}
    norm = sum(posterior.values(), F(0))
    if norm == 0:
        raise UndefinedConditionalError(
            f"evidence (X={x_obs}, Y={y_obs}) has probability zero"
        )
    vec = [F(0)] * pF.n_y
    for table, w in posterior.items():
        vec[table.outputs[x_cf]] += w / norm
    return tuple(vec)


def observational_joint(model):
    """p(X=x, Y=y) of a ``ConfoundedModel``; row index x, column index y."""
    joint = [[F(0)] * model.n_y for _ in range(model.n_x)]
    for (r_x, table), w in model.joint_weights.items():
        joint[r_x][table.outputs[r_x]] += w
    return tuple(map(tuple, joint))


def input_marginal(model):
    """p(X=x) of a ``ConfoundedModel``, for every x."""
    vec = [F(0)] * model.n_x
    for (r_x, _), w in model.joint_weights.items():
        vec[r_x] += w
    return tuple(vec)


def is_valid_epistemic_state(state):
    """Maximal-knowledge validity of a bit-pair state: uniform over a
    4-element affine subspace of (Z_2)^4 (closed under triple XOR)."""
    support = state.support()
    if len(support) != 4 or any(p != F(1, 4) for p in state.probs.values()):
        return False
    return all(
        tuple(ai ^ bi ^ ci for ai, bi, ci in zip(a, b, c)) in state.probs
        for a, b, c in product(support, repeat=3)
    )


def fraction_conditional(pF, x):
    """``conditional``: p(f(x) = y) for every y, one weight at a time."""
    vec = [F(0)] * pF.n_y
    for table, w in pF.weights.items():
        vec[table.outputs[x]] += w
    return tuple(vec)


def fraction_joint(pF, pairs):
    """``joint_counterfactual``: the weights of the tables that map every
    queried x to its y."""
    hits = (w for t, w in pF.weights.items() if all(t.outputs[x] == y for x, y in pairs))
    return sum(hits, F(0))


def fraction_value_on(coefficients, pF):
    """``LinearTarget.value_on`` (and the right-hand side of a constraint
    row): sum over the tables of coefficient times weight."""
    return sum((coefficients[t.index] * w for t, w in pF.weights.items()), F(0))


def fraction_cuts(pF):
    """``TableSampler._cuts``: floor(2**64 times each cumulative weight),
    the cumulative weight one ``Fraction`` at a time, the last cut (2**64)
    dropped."""
    cumulative, cuts = F(0), []
    for w in pF.weights.values():
        cumulative += w
        cuts.append((cumulative.numerator << 64) // cumulative.denominator)
    return cuts[:-1]


def serial_table_indices(pF, rng, size):
    """``size`` table indices as ``TableSampler`` draws them from ``rng``:
    the generator's next ``size`` raw uint64 draws in one call, each
    searched among the ``fraction_cuts``; the row order of
    ``pF.support()``."""
    draws = rng.integers(0, 2**64, size=size, dtype=np.uint64)
    cuts = np.array(fraction_cuts(pF), dtype=np.uint64)
    return np.searchsorted(cuts, draws, side="right")


def fraction_scenario_probability(pF, scenario):
    """``scenario_probability_exact``: each table's Born probability times
    its weight."""
    return sum(
        (scenario_coefficient(t, scenario) * w for t, w in pF.weights.items()), F(0)
    )


def loop_index(outputs, n_y):
    """``FunctionTable.index``: one multiply-add per output."""
    index = 0
    for y in outputs:
        index = index * n_y + y
    return index


def loop_outputs(index, n_x, n_y):
    """``FunctionTable.from_index(...).outputs``: one ``%`` and one ``//``
    per output, least significant first."""
    digits = []
    for _ in range(n_x):
        digits.append(index % n_y)
        index //= n_y
    return tuple(reversed(digits))


def loop_extract_two_way(rho, alpha, x, x_prime, y, y_prime):
    """``extract_two_way`` on one in-range key, in scalar arithmetic."""
    n_y = rho.dim // alpha.n_x
    a_x = complex(alpha.alpha[x])
    a_xp = complex(alpha.alpha[x_prime])
    if abs(a_x) < STATE_TOL or abs(a_xp) < STATE_TOL:
        raise ExtractionError(
            f"cannot extract at inputs ({x}, {x_prime}): zero amplitude"
        )
    if x == x_prime:
        if y != y_prime:
            return 0.0
        value = complex(rho.entries[x * n_y + y, x * n_y + y]) / (abs(a_x) ** 2)
    else:
        element = complex(rho.entries[x * n_y + y, x_prime * n_y + y_prime])
        value = element / (a_x * np.conj(a_xp))
    if abs(value.imag) > EXTRACTION_TOL:
        raise ExtractionError(
            f"extracted value has imaginary part {value.imag:g}; "
            "matrix is not a valid oracle output"
        )
    real = float(value.real)
    if real < -EXTRACTION_TOL or real > 1 + EXTRACTION_TOL:
        raise ExtractionError(
            f"extracted value {real!r} outside [0, 1] beyond tolerance"
        )
    return min(1.0, max(0.0, real))


def loop_tomography_sweep(rho, alpha):
    """``tomography_sweep``: one ``loop_extract_two_way`` per key."""
    n_x = alpha.n_x
    n_y = rho.dim // n_x
    if n_x * n_y != rho.dim:
        raise ValidationError("amplitude count does not divide the matrix dimension")
    keys = [(x, x, y, y) for x in range(n_x) for y in range(n_y)]
    keys += [
        (x, x_prime, y, y_prime)
        for x, x_prime in combinations(range(n_x), 2)
        for y in range(n_y)
        for y_prime in range(n_y)
    ]
    return [(*key, loop_extract_two_way(rho, alpha, *key)) for key in keys]


def joint_rho(pF, alpha):
    """``build_rho_xy``'s entries one at a time: ``float`` of the exact
    ``joint_counterfactual`` of each output pair (0.0 for two outputs of
    one input), times alpha_x conj(alpha_x') formed from Python float
    products, each rounded once; the entry for x > x' mirrors (x', x)."""
    n_x, n_y = pF.n_x, pF.n_y
    cells = list(product(range(n_x), range(n_y)))
    p = {}
    for i, j in combinations(range(len(cells)), 2):
        (x, y), (x_prime, y_prime) = cells[i], cells[j]
        if x != x_prime:
            query = CounterfactualQuery(((x, y), (x_prime, y_prime)))
            p[i, j] = p[j, i] = float(joint_counterfactual(pF, query))
    for i, pair in enumerate(cells):
        p[i, i] = float(joint_counterfactual(pF, CounterfactualQuery((pair,))))
    a = [complex(alpha.alpha[x]) for x, _ in cells]
    return np.array([
        [
            complex(
                (a[i].real * a[j].real + a[i].imag * a[j].imag) * p.get((i, j), 0.0),
                (a[i].imag * a[j].real - a[i].real * a[j].imag) * p.get((i, j), 0.0),
            )
            for j in range(len(cells))
        ]
        for i in range(len(cells))
    ])
