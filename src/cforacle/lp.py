"""Exact linear programming over small probability polytopes.

One route: a two-phase primal simplex, exact and with no floating point
anywhere, whose pivot is :func:`cforacle.rational.pivot`.  Its tableau is
fraction-free: each row is a list of ``int`` over one positive ``int``
denominator, kept in lowest terms, so every entry has the rational value
a :class:`fractions.Fraction` tableau would hold and every pivot choice is
the same.  Phase 1 scales each ``[a_i | b_i]`` and ``c`` once by the lcm
of their denominators; :class:`~fractions.Fraction` values are built only
for what is returned (solutions, optima, certificates).  Its artificial
variables are basis markers with no column: only the original columns
are priced, so an artificial that leaves the basis never re-enters, and
the tableau is never wider than ``A``.  On an infeasible system the
Farkas certificate is solved for once, exactly, from the final basis.
Pricing takes no pivot: the basic rows are unit columns, so one integer
combination of them gives the reduced costs a pivot on each would.
Phase 1 finds a feasible basis once; each objective is then optimized
from the current basis of that one tableau.  The lexicographic witness
search walks the optimal face in place, adding no rows and never
restarting; the witnesses for both directions share one phase 1.

Every entry point first presolves: a row with right-hand side 0 and
coefficients of one sign forces its columns to zero, so those columns,
and the rows left all zero, are dropped (repeated until nothing changes).
Every pivot then takes the most negative reduced cost (Dantzig), with
Bland's rule for the choice after each degenerate pivot, which keeps the
method finite.  The bounds and the lexicographically smallest optimal
vertex are unique, so neither step changes a result; witnesses are
checked on the full system and certificates are extended to it.

All problems have the form  min/max  c.x  subject to  A x = b,  x >= 0.
The systems built elsewhere in this package always include a simplex
normalization row, so feasible sets are bounded polytopes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import lcm
from operator import sub

from .core import _describe_rational
from .errors import (
    InfeasibleSystemError,
    InternalCheckError,
    UnboundedProgramError,
    ValidationError,
)
from .rational import (
    IntMatrix,
    Matrix,
    Vector,
    int_row,
    pivot,
    reduce_row,
    solve_unique,
)

_ZERO = Fraction(0)

# A tableau is ``(rows, dens)`` in the integer form of
# :func:`cforacle.rational.pivot`: row i stands for ``rows[i] / dens[i]``.
# The last row is the reduced-cost row and the last column the
# right-hand side.  Signs and zero tests read the integers directly.


def _iterate(
    rows: IntMatrix,
    dens: list[int],
    basis: list[int],
    n_cols: int,
    allowed: list[bool] | None = None,
) -> None:
    """Run simplex iterations until the cost row is optimal.

    Only columns marked in ``allowed`` (all by default) may enter the
    basis.  The entering column is the one with the most negative reduced
    cost, lowest index on ties (Dantzig); after a degenerate pivot the next
    choice is the first column with a negative reduced cost (Bland's rule),
    which keeps the method finite.  The leaving row is the lowest ratio,
    lowest basic variable on ties.  Raises on an unbounded descent
    direction.
    """
    m = len(rows) - 1
    cols = range(n_cols) if allowed is None else [
        j for j in range(n_cols) if allowed[j]
    ]
    bland = False
    while True:
        cost = rows[m]
        negative = [j for j in cols if cost[j] < 0]
        if not negative:
            return
        # the cost row shares one denominator, so its integers compare
        enter = negative[0] if bland else min(negative, key=cost.__getitem__)
        # Ratio test on rhs_i / coeff_i, in which the row's denominator
        # cancels; ratios are compared by cross-multiplication.
        leave = None
        for i in range(m):
            coeff = rows[i][enter]
            if coeff > 0:
                if leave is None:
                    leave = i
                    continue
                here = rows[i][-1] * rows[leave][enter]
                best = rows[leave][-1] * coeff
                if here < best or (here == best and basis[i] < basis[leave]):
                    leave = i
        if leave is None:
            raise UnboundedProgramError(
                f"objective is unbounded along variable {enter}"
            )
        bland = rows[leave][-1] == 0
        pivot(rows, dens, leave, enter)
        basis[leave] = enter


def _price(rows: IntMatrix, dens: list[int], basis: list[int]) -> None:
    """Turn the last row, ``c`` followed by 0, into the reduced costs of
    ``c``, ``c - sum_i c[basis[i]] row_i``, formed over the lcm of those
    rows' denominators and reduced once: basic columns are unit columns,
    so this is the row a pivot on each basic row gives.  Its last slot
    ends up as the negated objective value."""
    cost = rows[-1]
    terms = [(cost[bvar], i) for i, bvar in enumerate(basis) if cost[bvar]]
    if not terms:
        return
    den = lcm(*(dens[i] for _, i in terms))
    combo = list(map(den.__mul__, cost))
    for factor, i in terms:
        scale = factor * (den // dens[i])
        combo = list(map(sub, combo, map(scale.__mul__, rows[i])))
    cost[:] = combo
    dens[-1] = reduce_row(cost, dens[-1] * den)


def _check_shape(c: Vector, a: Matrix, b: Vector) -> None:
    if not a:
        raise ValidationError("cannot solve an empty system")
    if len(b) != len(a) or len(c) != len(a[0]):
        raise ValidationError("dimension mismatch between c, A, b")


def _check_certificate(y: Vector, a: Matrix, b: Vector) -> None:
    """Raise unless ``y . b > 0`` and ``y . A <= 0``, which proves that
    ``{A x = b, x >= 0}`` is empty."""
    if _dot(y, b) <= 0 or any(_dot(y, column) > 0 for column in zip(*a)):
        raise InternalCheckError("phase 1 produced an invalid certificate")


def _phase1(
    c: Vector, a: Matrix, b: Vector
) -> tuple[IntMatrix, list[int], list[int]]:
    """Phase 1: a feasible tableau of ``{A x = b, x >= 0}`` and its basis,
    on the original columns, redundant rows dropped, cost row of ``c`` last.
    Raises :class:`InfeasibleSystemError` with a Farkas certificate.

    The artificial variables have no column: artificial i is the basis
    marker ``n + i`` of row i, and only the n original columns are priced,
    so an artificial that leaves the basis never re-enters.  The phase-1
    cost row, the sum of the artificials priced against that basis, is
    minus the sum of the rows."""
    m, n = len(a), len(a[0])
    # Rows with b_i < 0 are negated.  Row i is [a_i | b_i] over the lcm of
    # its denominators, which int_row leaves in lowest terms.
    signs = [-1 if v < 0 else 1 for v in b]
    rows: IntMatrix = []
    dens: list[int] = []
    for i, sign in enumerate(signs):
        ints, den = int_row([*a[i], b[i]])
        rows.append([-v for v in ints] if sign < 0 else ints)
        dens.append(den)
    basis = [n + i for i in range(m)]
    den = lcm(*dens)
    cost = [0] * (n + 1)
    for row, row_den in zip(rows, dens):
        cost = list(map(sub, cost, map((den // row_den).__mul__, row)))
    rows.append(cost)
    dens.append(reduce_row(cost, den))
    _iterate(rows, dens, basis, n)

    cost, cost_den = rows[m], dens[m]
    if cost[-1] < 0:
        value1 = Fraction(-cost[-1], cost_den)
        raise InfeasibleSystemError(
            "constraint system is infeasible (phase-1 residual "
            f"{_describe_rational(value1)})",
            residual=value1,
            certificate=_phase1_certificate(a, b, signs, basis),
        )

    # Drive artificial variables out of the basis; drop redundant rows.
    keep = []
    for i in range(m):
        if basis[i] >= n:
            enter = next((j for j in range(n) if rows[i][j] != 0), None)
            if enter is None:
                continue
            pivot(rows, dens, i, enter)
            basis[i] = enter
        keep.append(i)
    cost_ints, cost_den = int_row([*c, 0])
    rows2 = [rows[i] for i in keep] + [cost_ints]
    dens2 = [dens[i] for i in keep] + [cost_den]
    basis2 = [basis[i] for i in keep]
    _price(rows2, dens2, basis2)
    return rows2, dens2, basis2


def _phase1_certificate(
    a: Matrix, b: Vector, signs: list[int], basis: list[int]
) -> Vector:
    """The Farkas certificate of an infeasible phase 1 that ended at
    ``basis``: ``y = c_B B^-1`` on the sign-adjusted system, with ``c_B``
    1 on the artificials and 0 elsewhere, signed back to ``(A, b)`` and
    checked there."""
    m, n = len(a), len(a[0])
    # row k of B^T is the column of basis[k]: a_j signed, or the unit e_i
    columns = [
        [signs[i] * a[i][j] for i in range(m)] if j < n
        else [int(i == j - n) for i in range(m)]
        for j in basis
    ]
    y = solve_unique(columns, [Fraction(int(j >= n)) for j in basis])
    if y is None:
        raise InternalCheckError("phase 1 ended on a singular basis")
    certificate = [sign * v for sign, v in zip(signs, y)]
    _check_certificate(certificate, a, b)
    return certificate


def _dot(u: Vector, v: Vector) -> Fraction:
    return sum(p * q for p, q in zip(u, v))


def _basic_solution(
    rows: IntMatrix, dens: list[int], basis: list[int], n: int
) -> Vector:
    values = {
        bvar: Fraction(row[-1], den) for bvar, row, den in zip(basis, rows, dens)
    }
    return [values.get(j, _ZERO) for j in range(n)]


def _negated_copy(
    rows: IntMatrix, dens: list[int]
) -> tuple[IntMatrix, list[int]]:
    """A copy of a tableau with the reduced-cost row of ``-c`` for ``c``."""
    copy = [list(row) for row in rows[:-1]] + [[-v for v in rows[-1]]]
    return copy, list(dens)


def _optimum(rows: IntMatrix, dens: list[int]) -> Fraction:
    """The objective value of an optimal tableau, from its cost row."""
    return Fraction(-rows[-1][-1], dens[-1])


def _presolve(
    a: Matrix, b: Vector
) -> tuple[list[int], list[int], list[tuple[int, list[int]]]]:
    """Columns that ``{A x = b, x >= 0}`` forces to zero, found row by row.

    A row with right-hand side 0 whose coefficients on the columns still
    kept all have one sign forces each column in its support to 0.  Those
    columns are dropped and the rows rescanned until nothing changes.
    Returns the kept columns, the kept rows (those with a nonzero
    right-hand side or a nonzero entry on a kept column) and the pins
    ``(row, columns)`` in the order they were found.  When no row would be
    kept, nothing is dropped.
    """
    m, n = len(a), len(a[0])
    live = [True] * n
    pins: list[tuple[int, list[int]]] = []
    candidates = [(i, list(compress(range(n), a[i]))) for i in range(m) if b[i] == 0]
    found = True
    while found:
        found = False
        rest = []
        for i, support in candidates:
            support = list(compress(support, map(live.__getitem__, support)))
            if not support:
                continue
            if len({v > 0 for v in map(a[i].__getitem__, support)}) == 1:
                pins.append((i, support))
                for j in support:
                    live[j] = False
                found = True
            else:
                rest.append((i, support))
        candidates = rest
    cols = list(compress(range(n), live))
    rows = [i for i in range(m) if b[i] != 0 or any(map(a[i].__getitem__, cols))]
    if not rows:
        return list(range(n)), list(range(m)), []
    return cols, rows, pins


def _check_presolve(
    a: Matrix,
    b: Vector,
    cols: list[int],
    rows: list[int],
    pins: list[tuple[int, list[int]]],
) -> None:
    """Raise unless the presolved system has the feasible set of the full
    one, up to zeros in the dropped columns: each pin row has right-hand
    side 0 and one sign on its columns and is zero on every other column
    not pinned before it, the pins cover exactly the dropped columns, and
    each dropped row is zero on the kept columns with right-hand side 0."""
    dropped: set[int] = set()
    for i, pinned in pins:
        support = [j for j in compress(range(len(a[i])), a[i]) if j not in dropped]
        if b[i] != 0 or support != pinned or len({a[i][j] > 0 for j in support}) != 1:
            raise InternalCheckError(f"presolve: row {i} does not pin {pinned}")
        dropped.update(support)
    if len(dropped) + len(cols) != len(a[0]) or not dropped.isdisjoint(cols):
        raise InternalCheckError("presolve dropped a column no row forces to zero")
    kept = set(rows)
    for i in range(len(a)):
        if i not in kept and (b[i] != 0 or any(map(a[i].__getitem__, cols))):
            raise InternalCheckError(f"presolve dropped the nonzero row {i}")


def _full_certificate(
    y_kept: Vector, a: Matrix, rows: list[int], pins: list[tuple[int, list[int]]]
) -> Vector:
    """Extend a Farkas certificate of the presolved system to the full one.

    Pin rows have right-hand side 0, so adding multiples of them leaves
    ``y . b`` as it is.  From the last pin back, each pin row is
    subtracted, signed, just enough to bring ``y . A`` to at most 0 on the
    columns it pinned.  It is zero on the kept columns and on the columns
    pinned after it, so no column already settled moves.
    """
    y = [_ZERO] * len(a)
    for i, v in zip(rows, y_kept):
        y[i] = v
    for i, pinned in reversed(pins):
        row = a[i]
        excess = max(_dot(y, [r[j] for r in a]) / abs(row[j]) for j in pinned)
        if excess > 0:
            y[i] = -excess if row[pinned[0]] > 0 else excess
    return y


def _presolved_phase1(
    c: Vector, a: Matrix, b: Vector
) -> tuple[IntMatrix, list[int], list[int], list[int]]:
    """:func:`_presolve`, then :func:`_phase1` on the rest.  Returns that
    tableau and basis and the kept columns; an infeasible system raises
    with a certificate checked on ``(A, b)``."""
    _check_shape(c, a, b)
    cols, rows, pins = _presolve(a, b)
    _check_presolve(a, b, cols, rows, pins)
    try:
        tableau = _phase1(
            [c[j] for j in cols],
            [[a[i][j] for j in cols] for i in rows],
            [b[i] for i in rows],
        )
    except InfeasibleSystemError as err:
        y = _full_certificate(err.certificate, a, rows, pins)
        _check_certificate(y, a, b)
        raise InfeasibleSystemError(
            str(err), residual=err.residual, certificate=y
        ) from None
    return (*tableau, cols)


def objective_range(
    c: Vector, a: Matrix, b: Vector
) -> tuple[Fraction, Fraction]:
    """Exact (min, max) of ``c . x`` over the feasible polytope.

    Forced-zero columns are presolved away, phase 1 runs once, and both
    directions re-optimize copies of its tableau.
    """
    rows, dens, basis, cols = _presolved_phase1(c, a, b)
    up, up_dens = _negated_copy(rows, dens)
    _iterate(up, up_dens, list(basis), len(cols))
    _iterate(rows, dens, basis, len(cols))
    return _optimum(rows, dens), -_optimum(up, up_dens)


def simplex_minimize(
    c: Vector, a: Matrix, b: Vector
) -> tuple[Fraction, Vector]:
    """Minimize ``c . x`` over ``{A x = b, x >= 0}`` exactly.

    Returns the optimal value and the vertex of
    :func:`lexmin_optimal_vertex`, the lexicographically smallest optimal
    one, checked against the full ``(A, b)``.  Raises
    :class:`InfeasibleSystemError`, with a Farkas certificate, when the
    system has no nonnegative solution.
    """
    x = lexmin_optimal_vertex(c, a, b)
    return _dot(c, x), x


def lexmin_optimal_vertex(c: Vector, a: Matrix, b: Vector) -> Vector:
    """Lexicographically smallest point of the optimal face of ``min c.x``.

    After optimizing ``c``, a column with a positive reduced cost is zero
    on the optimal face (complementary slackness), so it may no longer
    enter.  Coordinates are then minimized in index order from the current
    basis, shutting out each column whose reduced cost turns positive,
    until every eligible column is basic; a nonbasic coordinate is already
    at its minimum 0 and is shut out unpriced.  The result is a vertex.  The
    search runs on the presolved system, whose columns keep their order,
    and writes zeros back into the dropped columns.
    """
    return _face_walk(*_presolved_phase1(c, a, b), c, a, b)


def lexmin_optimal_range(c: Vector, a: Matrix, b: Vector) -> tuple[Vector, Vector]:
    """:func:`lexmin_optimal_vertex` for ``c`` and for ``-c`` (the min and
    the max witness), from one shared phase 1."""
    rows, dens, basis, cols = _presolved_phase1(c, a, b)
    up, up_dens = _negated_copy(rows, dens)
    x_max = _face_walk(up, up_dens, list(basis), cols, [-v for v in c], a, b)
    return _face_walk(rows, dens, basis, cols, c, a, b), x_max


def _face_walk(
    rows: IntMatrix,
    dens: list[int],
    basis: list[int],
    cols: list[int],
    c: Vector,
    a: Matrix,
    b: Vector,
) -> Vector:
    """The search of :func:`lexmin_optimal_vertex`, from a tableau of the
    presolved system with kept columns ``cols``; the point it returns is
    checked against the full ``(A, b)`` and ``c``."""
    n = len(cols)
    _iterate(rows, dens, basis, n)
    optimum = _optimum(rows, dens)
    eligible = [d == 0 for d in rows[-1][:n]]
    count, basic = sum(eligible), set(basis)
    for j in range(n):
        if count == len(basis):
            break
        if not eligible[j]:
            continue
        if j not in basic:
            # 0 at the current vertex, which is on the face: its cost row
            # e_j is already priced and optimal, so only j drops out
            eligible[j] = False
            count -= 1
            continue
        rows[-1] = [int(k == j) for k in range(n + 1)]
        dens[-1] = 1
        _price(rows, dens, basis)
        _iterate(rows, dens, basis, n, eligible)
        eligible = [e and d == 0 for e, d in zip(eligible, rows[-1])]
        count, basic = sum(eligible), set(basis)
    x = [_ZERO] * len(c)
    for j, v in zip(cols, _basic_solution(rows, dens, basis, n)):
        x[j] = v
    # A vertex has few nonzero entries, and zero terms add nothing.  Over
    # the support's one denominator, x_j = nums[k] / den for j = support[k].
    support = [j for j, v in enumerate(x) if v]
    nums, den = int_row([x[j] for j in support])

    def attains(row, value) -> bool:  # row . x == value, cross-multiplied
        dot = sum(row[j] * v for j, v in zip(support, nums))
        return dot * value.denominator == value.numerator * den

    if (
        any(v < 0 for v in nums)
        or not all(map(attains, a, b))
        or not attains(c, optimum)
    ):
        raise InternalCheckError("face walk ended off the optimal face")
    return x

