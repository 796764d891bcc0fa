"""Exact simplex solver and its vertex-enumeration cross-check."""

import random
from fractions import Fraction

import pytest

from cforacle import (
    ConstraintLevel,
    CounterfactualQuery,
    InfeasibleSystemError,
    InternalCheckError,
    LinearTarget,
    UnboundedProgramError,
    build_constraints,
    lp,
    rational,
    restricted_tail_model,
)
from cforacle.lp import (
    enumerate_vertices,
    lexmin_optimal_range,
    lexmin_optimal_vertex,
    objective_range,
    simplex_minimize,
    vertex_objective_range,
)
from cforacle.rational import solve_unique
from cforacle.reproduce import (
    affine_ternary_model,
    mix_identity_flip,
    uniform_ternary_model,
)

F = Fraction


def frac_rows(rows):
    return [[F(v) for v in row] for row in rows]


def test_one_line_segment():
    a = frac_rows([[1, 1]])
    b = [F(1)]
    assert simplex_minimize([F(1), F(0)], a, b)[0] == 0
    assert simplex_minimize([F(-1), F(0)], a, b)[0] == -1
    assert objective_range([F(1), F(0)], a, b) == (F(0), F(1))


def test_known_polytope():
    # p over 4 atoms with p0 + p1 = 1/2 fixed; maximize p0 + p3
    a = frac_rows([[1, 1, 0, 0], [1, 1, 1, 1]])
    b = [F(1, 2), F(1)]
    value, x = simplex_minimize([F(-1), F(0), F(0), F(-1)], a, b)
    assert value == -1
    assert sum(x) == 1


INFEASIBLE_SYSTEMS = [
    ([[1, 1], [1, 1]], [1, 2]),
    # negative right-hand sides, a redundant row (twice the first) and
    # an infeasible row: x0 - x1 = -1, 2 x0 - 2 x1 = -2, x0 + x1 = -1
    ([[1, -1, 0], [2, -2, 0], [1, 1, 0], [0, 1, 1]], [-1, -2, -1, 3]),
    # x2 = 1/2 and x2 = -1/2, with an all-zero row
    ([[1, 1, 1], [0, 0, 1], [0, 0, 1], [0, 0, 0]], [1, F(1, 2), F(-1, 2), 0]),
]


def test_infeasible_with_certificate():
    for rows, b in INFEASIBLE_SYSTEMS:
        a = frac_rows(rows)
        b = [F(v) for v in b]
        n = len(a[0])
        with pytest.raises(InfeasibleSystemError) as excinfo:
            simplex_minimize([F(0)] * n, a, b)
        err = excinfo.value
        assert err.residual > 0
        y = err.certificate
        assert len(y) == len(a)
        assert sum(yi * bi for yi, bi in zip(y, b)) > 0
        for j in range(n):
            assert sum(y[i] * a[i][j] for i in range(len(a))) <= 0


def test_infeasible_negative_rhs_direction():
    # x0 = -1 is impossible for x >= 0
    a = frac_rows([[1]])
    b = [F(-1)]
    with pytest.raises(InfeasibleSystemError):
        simplex_minimize([F(1)], a, b)


def test_unbounded():
    a = frac_rows([[0, 1]])
    b = [F(1)]
    with pytest.raises(UnboundedProgramError):
        simplex_minimize([F(-1), F(0)], a, b)


def test_redundant_rows_are_harmless():
    a = frac_rows([[1, 1], [1, 1], [2, 2]])
    b = [F(1), F(1), F(2)]
    assert objective_range([F(1), F(0)], a, b) == (F(0), F(1))


def rref_by_full_rows(matrix):
    """Reference reduced row-echelon form: every row update rewrites the
    whole row, zero entries included."""
    rows = [list(row) for row in matrix]
    if not rows:
        return [], []
    pivots = []
    r = 0
    for col in range(len(rows[0])):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = rows[r][col]
        rows[r] = [v / inv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                factor = rows[i][col]
                rows[i] = [p - factor * q for p, q in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def test_rref_matches_the_full_row_reference_on_random_matrices():
    rng = random.Random(90210)
    for _ in range(300):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        matrix = [
            [F(rng.randint(-4, 4), rng.randint(1, 5)) if rng.random() < 0.6 else F(0)
             for _ in range(n)]
            for _ in range(m)
        ]
        if rng.random() < 0.3:
            matrix.append([F(0)] * n)  # a zero row
        if rng.random() < 0.3:
            zero_col = rng.randrange(n)
            for row in matrix:
                row[zero_col] = F(0)
        if rng.random() < 0.3:
            matrix.append(list(rng.choice(matrix)))  # a duplicate row
        rng.shuffle(matrix)
        before = [list(row) for row in matrix]
        assert rational.rref(matrix) == rref_by_full_rows(matrix)
        assert matrix == before


def test_pivot_in_place():
    rows = frac_rows([[2, 4, 0, 2], [1, 0, 3, 1], [0, 5, 1, 0]])
    same_rows = [id(row) for row in rows]
    rational.pivot(rows, 0, 0)
    assert rows == [
        [F(1), F(2), F(0), F(1)],
        [F(0), F(-2), F(3), F(0)],
        [F(0), F(5), F(1), F(0)],
    ]
    assert [id(row) for row in rows] == same_rows


def test_vertex_enumeration_square():
    # {p >= 0, sum = 1} in 3 variables: vertices are the unit atoms
    a = frac_rows([[1, 1, 1]])
    b = [F(1)]
    vertices = enumerate_vertices(a, b)
    assert set(vertices) == {
        (F(1), F(0), F(0)),
        (F(0), F(1), F(0)),
        (F(0), F(0), F(1)),
    }


def test_vertex_enumeration_infeasible():
    a = frac_rows([[1, 1], [1, 1]])
    b = [F(1), F(2)]
    with pytest.raises(InfeasibleSystemError):
        enumerate_vertices(a, b)


def test_lexmin_breaks_ties():
    # maximizing x0 + x1 over the simplex leaves a tie between (1,0,0)
    # and (0,1,0); the lexicographically smallest optimum is (0,1,0)
    a = frac_rows([[1, 1, 1]])
    b = [F(1)]
    c = [F(-1), F(-1), F(0)]
    value, _ = simplex_minimize(c, a, b)
    assert value == -1
    assert lexmin_optimal_vertex(c, a, b) == [F(0), F(1), F(0)]


def test_lexmin_returns_feasible_vertex():
    a = frac_rows([[1, 1, 1, 1], [1, 0, 1, 0]])
    b = [F(1), F(1, 3)]
    c = [F(0), F(1), F(0), F(2)]
    value, _ = simplex_minimize(c, a, b)
    x = lexmin_optimal_vertex(c, a, b)
    assert sum(ci * xi for ci, xi in zip(c, x)) == value
    assert sum(x) == 1 and x[0] + x[2] == F(1, 3)
    assert all(v >= 0 for v in x)


def test_simplex_agrees_with_vertex_enumeration_on_random_systems():
    rng = random.Random(4711)
    for _ in range(60):
        n = rng.randint(2, 6)
        m = rng.randint(1, 3)
        a = [[F(rng.randint(0, 3)) for _ in range(n)] for _ in range(m)]
        a.append([F(1)] * n)  # keep the polytope bounded
        point = [F(rng.randint(0, 5)) for _ in range(n)]
        total = sum(point)
        if total == 0:
            continue
        point = [p / total for p in point]  # a guaranteed witness
        b = [sum(row[j] * point[j] for j in range(n)) for row in a]
        c = [F(rng.randint(-3, 3)) for _ in range(n)]
        assert objective_range(c, a, b) == vertex_objective_range(c, a, b)


def lexmin_by_enumeration(c, a, b):
    """Lexicographically smallest optimal vertex, from all vertices."""
    vertices = enumerate_vertices(a, b)
    best = min(sum(ci * vi for ci, vi in zip(c, v)) for v in vertices)
    return list(
        min(v for v in vertices if sum(ci * vi for ci, vi in zip(c, v)) == best)
    )


def lexmin_by_restarts(c, a, b):
    """Reference lexicographic minimum, one fresh LP per coordinate.

    Pins ``c.x`` at its optimum, then minimizes each coordinate in turn
    with a new two-phase solve, appending its optimum as an equality row,
    until the equalities determine a single point.
    """
    optimum, _ = simplex_minimize(c, a, b)
    n = len(c)
    rows = [list(row) for row in a] + [list(c)]
    rhs = list(b) + [optimum]
    for j in range(n):
        point = solve_unique(rows, rhs)
        if point is not None:
            return point
        unit = [F(int(k == j)) for k in range(n)]
        vj, _ = simplex_minimize(unit, rows, rhs)
        rows.append(unit)
        rhs.append(vj)
    return solve_unique(rows, rhs)


def test_lexmin_matches_vertex_enumeration_on_random_systems():
    rng = random.Random(2024)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 9)
        m = rng.randint(1, 3)
        a = [[F(rng.randint(0, 2)) for _ in range(n)] for _ in range(m)]
        a.append([F(1)] * n)
        # sparse witness points make degenerate vertices common
        point = [F(rng.choice((0, 0, 1, 2, 3))) for _ in range(n)]
        if sum(point) == 0:
            continue
        point = [p / sum(point) for p in point]
        if rng.random() < 0.5:  # a redundant row: sum of two others
            a.append([u + v for u, v in zip(a[0], a[-1])])
        if rng.random() < 0.5:  # a row with negative right-hand side
            a.append([-v for v in a[0]])
        b = [sum(row[j] * point[j] for j in range(n)) for row in a]
        c = [F(rng.randint(-2, 2)) for _ in range(n)]
        expected = [lexmin_by_enumeration(d, a, b) for d in (c, [-v for v in c])]
        assert [lexmin_optimal_vertex(d, a, b) for d in (c, [-v for v in c])] == expected
        assert list(lexmin_optimal_range(c, a, b)) == expected
        checked += 2
    assert checked > 200


def _witness_systems():
    diagonal = "0:0,1:1,2:2"
    cases = {
        "binary one-way": (mix_identity_flip(), "one-way", "0:0,1:0"),
        "model_ab 3x3 two-way": (uniform_ternary_model(), "two-way", diagonal),
        "affine 3x3 one-way": (affine_ternary_model(), "one-way", diagonal),
        "tail-5 one-way": (
            restricted_tail_model(5, (0, 1)), "one-way", "0:1,1:1,2:1,3:0,4:1",
        ),
    }
    for name, (model, level, target) in cases.items():
        system = build_constraints(model, ConstraintLevel.parse(level))
        query = CounterfactualQuery.from_string(target)
        c = list(LinearTarget.from_query(query, model.n_x, model.n_y).coefficients)
        a, b = system.matrix()
        yield pytest.param(c, a, b, id=name)


@pytest.mark.parametrize("c, a, b", list(_witness_systems()))
def test_lexmin_matches_restart_algorithm_on_witness_systems(c, a, b):
    expected = [lexmin_by_restarts(d, a, b) for d in (c, [-v for v in c])]
    assert [lexmin_optimal_vertex(d, a, b) for d in (c, [-v for v in c])] == expected
    assert list(lexmin_optimal_range(c, a, b)) == expected


def test_lexmin_raises_when_the_final_vertex_is_off_the_face(monkeypatch):
    monkeypatch.setattr(lp, "_basic_solution", lambda *_: [F(0), F(0), F(1)])
    a = frac_rows([[1, 1, 1]])
    for search in (lexmin_optimal_vertex, lexmin_optimal_range):
        with pytest.raises(InternalCheckError):
            search([F(-1), F(-1), F(0)], a, [F(1)])
