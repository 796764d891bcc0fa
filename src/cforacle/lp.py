"""Exact linear programming over small probability polytopes.

Two solution routes that cross-check each other.  They share only the
row operation :func:`cforacle.rational.pivot`; the algorithms stay apart:

* a primal simplex with Bland's anti-cycling rule, running entirely on
  :class:`fractions.Fraction` (no floating point anywhere).  Phase 1
  finds a feasible basis once; each objective is then optimized from the
  current basis of that one tableau.  The lexicographic witness search
  walks the optimal face in place, adding no rows and never restarting;
  the witnesses for both directions share one phase 1.
* brute-force vertex enumeration of the feasible polytope, practical for
  up to ~16 variables.

All problems have the form  min/max  c.x  subject to  A x = b,  x >= 0.
The systems built elsewhere in this package always include a simplex
normalization row, so feasible sets are bounded polytopes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .errors import (
    InfeasibleSystemError,
    InternalCheckError,
    UnboundedProgramError,
    ValidationError,
)
from .rational import Matrix, Vector, pivot, rref, solve_unique

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _iterate(
    tableau: Matrix,
    basis: list[int],
    n_cols: int,
    allowed: list[bool] | None = None,
) -> None:
    """Run Bland-rule simplex iterations until the cost row is optimal.

    The last tableau row is the reduced-cost row; the last column is the
    right-hand side.  Only columns marked in ``allowed`` (all by default)
    may enter the basis.  Raises on an unbounded descent direction.
    """
    m = len(tableau) - 1
    while True:
        cost = tableau[m]
        enter = None
        for j in range(n_cols):
            if cost[j] < 0 and (allowed is None or allowed[j]):
                enter = j
                break
        if enter is None:
            return
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
            raise UnboundedProgramError(
                f"objective is unbounded along variable {enter}"
            )
        pivot(tableau, leave, enter)
        basis[leave] = enter


def _price(tableau: Matrix, basis: list[int]) -> None:
    """Turn the last row, ``c`` followed by 0, into the reduced costs of
    ``c`` by pivoting on each basic row whose column it does not yet clear.
    Its last slot ends up as the negated objective value."""
    for i, bvar in enumerate(basis):
        if tableau[-1][bvar]:
            pivot(tableau, i, bvar)


def _phase1(c: Vector, a: Matrix, b: Vector) -> tuple[Matrix, list[int]]:
    """Phase 1: a feasible tableau of ``{A x = b, x >= 0}`` and its basis,
    on the original columns, redundant rows dropped, cost row of ``c`` last.
    Raises :class:`InfeasibleSystemError` with a Farkas certificate."""
    m = len(a)
    if m == 0:
        raise ValidationError("cannot solve an empty system")
    n = len(a[0])
    if len(b) != m or len(c) != n:
        raise ValidationError("dimension mismatch between c, A, b")
    # Artificials form the starting basis; rows with b_i < 0 are negated.
    signs = [-1 if v < 0 else 1 for v in b]
    width = n + m
    tableau: Matrix = [
        [sign * v for v in a[i]]
        + [_ONE if k == i else _ZERO for k in range(m)]
        + [sign * b[i]]
        for i, sign in enumerate(signs)
    ]
    basis = [n + i for i in range(m)]
    tableau.append([_ZERO] * n + [_ONE] * m + [_ZERO])
    _price(tableau, basis)
    _iterate(tableau, basis, width)

    value1 = -tableau[m][-1]
    if value1 > 0:
        # y_k = sign_k (c_B B^-1)_k, and the artificial column n+k of the
        # cost row holds 1 - (c_B B^-1)_k.
        certificate = [signs[k] * (_ONE - tableau[m][n + k]) for k in range(m)]
        if _dot(certificate, b) <= 0 or any(
            sum(certificate[k] * a[k][j] for k in range(m)) > 0 for j in range(n)
        ):
            raise InternalCheckError("phase 1 produced an invalid certificate")
        raise InfeasibleSystemError(
            f"constraint system is infeasible (phase-1 residual {value1})",
            residual=value1,
            certificate=certificate,
        )

    # Drive artificial variables out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if tableau[i][j] != 0), None)
            if enter is None:
                continue
            pivot(tableau, i, enter)
            basis[i] = enter
        keep.append(i)
    tableau2: Matrix = [tableau[i][:n] + tableau[i][-1:] for i in keep]
    tableau2.append(list(c) + [_ZERO])
    basis2 = [basis[i] for i in keep]
    _price(tableau2, basis2)
    return tableau2, basis2


def _dot(u: Vector, v: Vector) -> Fraction:
    return sum(p * q for p, q in zip(u, v))


def _basic_solution(tableau: Matrix, basis: list[int], n: int) -> Vector:
    values = {bvar: row[-1] for bvar, row in zip(basis, tableau)}
    return [values.get(j, _ZERO) for j in range(n)]


def simplex_minimize(
    c: Vector, a: Matrix, b: Vector
) -> tuple[Fraction, Vector]:
    """Minimize ``c . x`` over ``{A x = b, x >= 0}`` exactly.

    Returns the optimal value and one optimal basic feasible solution.
    Raises :class:`InfeasibleSystemError` (with a Farkas certificate) when
    the system has no nonnegative solution.
    """
    tableau, basis = _phase1(c, a, b)
    n = len(c)
    _iterate(tableau, basis, n)
    x = _basic_solution(tableau, basis, n)
    return _dot(c, x), x


def _negated_copy(tableau: Matrix) -> Matrix:
    """A copy of a tableau with the reduced-cost row of ``-c`` for ``c``."""
    return [list(row) for row in tableau[:-1]] + [[-v for v in tableau[-1]]]


def objective_range(
    c: Vector, a: Matrix, b: Vector
) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of ``c . x`` over the feasible polytope.

    Phase 1 runs once; both directions re-optimize copies of its tableau.
    """
    tableau, basis = _phase1(c, a, b)
    n = len(c)
    up = _negated_copy(tableau)
    _iterate(up, list(basis), n)
    _iterate(tableau, basis, n)
    return -tableau[-1][-1], up[-1][-1]


def lexmin_optimal_vertex(c: Vector, a: Matrix, b: Vector) -> Vector:
    """Lexicographically smallest point of the optimal face of ``min c.x``.

    After optimizing ``c``, a column with a positive reduced cost is zero
    on the optimal face (complementary slackness), so it may no longer
    enter.  Coordinates are then minimized in index order from the current
    basis, shutting out each column whose reduced cost turns positive,
    until every eligible column is basic.  The result is a vertex.
    """
    return _face_walk(*_phase1(c, a, b), c, a, b)


def lexmin_optimal_range(c: Vector, a: Matrix, b: Vector) -> tuple[Vector, Vector]:
    """:func:`lexmin_optimal_vertex` for ``c`` and for ``-c`` (the min and
    the max witness), from one shared phase 1."""
    tableau, basis = _phase1(c, a, b)
    x_max = _face_walk(_negated_copy(tableau), list(basis), [-v for v in c], a, b)
    return _face_walk(tableau, basis, c, a, b), x_max


def _face_walk(
    tableau: Matrix, basis: list[int], c: Vector, a: Matrix, b: Vector
) -> Vector:
    """The search of :func:`lexmin_optimal_vertex`, from a phase-1 tableau."""
    n = len(c)
    _iterate(tableau, basis, n)
    optimum = -tableau[-1][-1]
    eligible = [d == 0 for d in tableau[-1][:n]]
    for j in range(n):
        if sum(eligible) == len(basis):
            break
        if eligible[j]:
            tableau[-1] = [_ONE if k == j else _ZERO for k in range(n + 1)]
            _price(tableau, basis)
            _iterate(tableau, basis, n, eligible)
            eligible = [e and d == 0 for e, d in zip(eligible, tableau[-1])]
    x = _basic_solution(tableau, basis, n)
    if (
        any(v < 0 for v in x)
        or any(_dot(row, x) != rhs for row, rhs in zip(a, b))
        or _dot(c, x) != optimum
    ):
        raise InternalCheckError("face walk ended off the optimal face")
    return x


def enumerate_vertices(
    a: Matrix, b: Vector, max_vars: int = 16
) -> list[tuple[Fraction, ...]]:
    """All vertices of ``{A x = b, x >= 0}`` by basis enumeration.

    Exponential in the variable count; guarded by ``max_vars``.  The
    polytopes used in this package contain a normalization row, so they
    are bounded and every point is a convex combination of the result.
    """
    if not a:
        raise ValidationError("cannot enumerate an empty system")
    n = len(a[0])
    if n > max_vars:
        raise ValidationError(
            f"vertex enumeration limited to {max_vars} variables, got {n}"
        )
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = rref(aug)
    if n in pivots:
        raise InfeasibleSystemError("affine system is inconsistent")
    r = len(reduced)
    coeff = [row[:n] for row in reduced]
    d = [row[-1] for row in reduced]
    vertices: set[tuple[Fraction, ...]] = set()
    for subset in combinations(range(n), r):
        sub = [[coeff[i][j] for j in subset] for i in range(r)]
        solution = solve_unique(sub, d)
        if solution is None or any(v < 0 for v in solution):
            continue
        x = [_ZERO] * n
        for col, val in zip(subset, solution):
            x[col] = val
        vertices.add(tuple(x))
    if not vertices:
        raise InfeasibleSystemError(
            "no basic feasible solution: empty polytope"
        )
    return sorted(vertices)


def vertex_objective_range(
    c: Vector, a: Matrix, b: Vector, max_vars: int = 16
) -> tuple[Fraction, Fraction]:
    """(min, max) of ``c . x`` via explicit vertex enumeration.

    Independent cross-check for :func:`objective_range` on small systems.
    """
    values = [_dot(c, v) for v in enumerate_vertices(a, b, max_vars=max_vars)]
    return min(values), max(values)
