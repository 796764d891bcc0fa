"""Small exact linear-algebra toolkit over the rationals.

:func:`pivot` is the package's one Gauss-Jordan step: :func:`rref` (and
so :func:`solve_unique` and :func:`nullspace`) and every simplex pivot in
:mod:`cforacle.lp` go through it.  Pricing there subtracts basic rows from
the cost row in one integer combination, which gives the row that a
:func:`pivot` on each of them would.

The kernel is fraction-free: a row is a list of Python ``int`` plus one
positive ``int`` denominator, and stands for ``row / den``.  After each
update a row is divided by ``gcd(den, *row)``, so the pair is canonical
and every entry has exactly the rational value a :class:`Fraction`
elimination would give it.  The public functions take lists of ``int``
(such as 0/1 event rows) or :class:`fractions.Fraction` and return
``Fraction``; :func:`int_row` converts a rational row to the integer
form once, reading the common denominator off ``.denominator``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[Fraction]]
Vector = list[Fraction]
IntMatrix = list[list[int]]


def int_row(values) -> tuple[list[int], int]:
    """A rational row as ``(ints, den)`` with ``ints / den`` equal to it.

    ``den`` is the lcm of the entries' denominators, so the pair is
    canonical.  Entries may be ``Fraction`` or ``int`` (0/1 event rows).
    """
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def reduce_row(row: list[int], den: int) -> int:
    """Bring ``row / den`` to lowest terms in place (``den > 0``) and
    return its new denominator."""
    if den != 1:
        g = gcd(den, *row)
        if g != 1:
            row[:] = [v // g for v in row]
            den //= g
    return den


def pivot(rows: IntMatrix, dens: list[int], r: int, col: int) -> None:
    """Gauss-Jordan step in place: scale row ``r`` so its ``col`` entry is
    1, then clear column ``col`` from every other row.

    Row ``i`` stands for ``rows[i] / dens[i]``.  Row lists are updated in
    place, so they must not share list objects with anything that has to
    stay unchanged.  A row whose ``col`` entry is zero is left as it is.
    """
    row = rows[r]
    p = row[col]
    if p != dens[r]:
        # row / p has a unit pivot (the row's own denominator cancels)
        if p < 0:
            row[:] = [-v for v in row]
            p = -p
        dens[r] = reduce_row(row, p)
    d = dens[r]
    nonzero = [(j, v) for j, v in enumerate(row) if v]
    for i, other in enumerate(rows):
        factor = other[col]
        if factor and i != r:
            # other/dens[i] - (factor/dens[i]) (row/d), over dens[i] * d / g
            g = gcd(d, factor)
            scale, factor = d // g, factor // g
            if scale != 1:
                other[:] = [v * scale for v in other]
            for j, v in nonzero:
                other[j] -= factor * v
            dens[i] = reduce_row(other, dens[i] * scale)


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form.

    Returns the reduced matrix (zero rows dropped) and the pivot columns.
    The input is not modified.
    """
    if not matrix:
        return [], []
    pairs = [int_row(row) for row in matrix]
    rows = [ints for ints, _ in pairs]
    dens = [den for _, den in pairs]
    n_cols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, len(rows)):
            if rows[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        dens[r], dens[pivot_row] = dens[pivot_row], dens[r]
        pivot(rows, dens, r, col)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    reduced = [[Fraction(v, d) for v in row] for row, d in zip(rows[:r], dens)]
    return reduced, pivots


def solve_unique(a: Matrix, b: Vector) -> Vector | None:
    """Solve ``a x = b`` when the solution exists and is unique.

    Returns None if the system is inconsistent or underdetermined.
    """
    if not a:
        return [] if all(v == 0 for v in b) else None
    n = len(a[0])
    aug = [list(row) + [rhs] for row, rhs in zip(a, b)]
    reduced, pivots = rref(aug)
    if n in pivots:
        return None  # pivot in the rhs column: inconsistent
    if len(pivots) < n:
        return None  # free variables: not unique
    x = [Fraction(0)] * n
    for row, col in zip(reduced, pivots):
        x[col] = row[-1]
    return x


def nullspace(matrix: Matrix) -> list[Vector]:
    """Basis of the null space of a matrix with at least one row.

    Free variables are set to 1 one at a time, in column order, which makes
    the returned basis deterministic.
    """
    n = len(matrix[0])
    reduced, pivots = rref(matrix)
    free_cols = [c for c in range(n) if c not in pivots]
    basis: list[Vector] = []
    for free in free_cols:
        vec = [Fraction(0)] * n
        vec[free] = Fraction(1)
        for row, piv in zip(reduced, pivots):
            vec[piv] = -row[free]
        basis.append(vec)
    return basis


def is_scalar_multiple(u: Vector, v: Vector) -> bool:
    """True if u = c v for some nonzero rational c (and neither is zero)."""
    if len(u) != len(v):
        return False
    scale = None
    for a, b in zip(u, v):
        if (a == 0) != (b == 0):
            return False
        if b != 0:
            s = a / b
            if scale is None:
                scale = s
            elif s != scale:
                return False
    return scale is not None and scale != 0
