"""Exact references that faster library routes are checked against.

For the LP tests, independent of :mod:`cforacle.lp`: brute-force vertex
enumeration, and the ``Fraction`` tableau that the fraction-free kernel
replaced (every entry a ``Fraction``, every row update a ``Fraction``
Gauss-Jordan step, with the library's pricing rule).  For the binary probe
solve: the elimination on the 4x4 scenario matrix that its cached inverse
replaced."""

from fractions import Fraction
from itertools import combinations

from cforacle import (
    FunctionDistribution,
    InfeasibleSystemError,
    MeasurementInconsistencyError,
    UnboundedProgramError,
    enumerate_functions,
)
from cforacle.quantum import BINARY_SCENARIOS, scenario_coefficient
from cforacle.rational import rref, solve_unique

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


def fraction_phase1(c, a, b):
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
    fraction_iterate(tableau, basis, n + m)
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
