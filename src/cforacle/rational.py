"""Small exact linear-algebra toolkit over the rationals.

:func:`pivot` is the package's only row operation: :func:`rref` (and so
:func:`solve_unique`, :func:`nullspace` and vertex enumeration) and every
simplex pivot and pricing step in :mod:`cforacle.lp` go through it.
Everything operates on lists of :class:`fractions.Fraction`.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


def pivot(rows: Matrix, r: int, col: int) -> None:
    """Gauss-Jordan step in place: scale row ``r`` so its ``col`` entry is
    1, then clear column ``col`` from every other row.

    Rows are updated in place, and only in the pivot row's nonzero
    columns, so they must not share list objects with anything that has
    to stay unchanged.
    """
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


def rref(matrix: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row-echelon form.

    Returns the reduced matrix (zero rows dropped) and the pivot columns.
    The input is not modified.
    """
    rows = [list(row) for row in matrix]
    if not rows:
        return [], []
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
        pivot(rows, r, col)
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


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
