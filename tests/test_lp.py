"""Exact simplex solver, checked against the references in ``reference.py``."""

import hashlib
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cforacle import (
    Bounds,
    FunctionDistribution,
    ConstraintLevel,
    CounterfactualQuery,
    InfeasibleSystemError,
    InternalCheckError,
    LinearTarget,
    UnboundedProgramError,
    build_constraints,
    lp,
    lp_bounds,
    lp_bounds_with_witnesses,
    rational,
    restricted_tail_model,
)
from cforacle.lp import (
    lexmin_optimal_range,
    lexmin_optimal_vertex,
    objective_range,
    simplex_minimize,
)
from cforacle.rational import rref, solve_unique
from cforacle.reproduce import (
    affine_ternary_model,
    mix_identity_flip,
    uniform_ternary_model,
)
from reference import (
    RANDOM_SIZES,
    fraction_face_walk,
    fraction_iterate,
    fraction_phase1,
    full_event_system,
    ladder,
    lexmin_by_enumeration,
    pivot_price,
    random_and_sparse,
    vertex_range,
    vertices,
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
        assert excinfo.value.residual > 0
        assert_full_certificate(excinfo.value, a, b)


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


def test_empty_systems():
    assert rref([]) == ([], [])
    assert solve_unique([], [F(0), F(0)]) == []
    assert solve_unique([], [F(0), F(1)]) is None


@pytest.mark.parametrize(
    "u, v, expected",
    [
        ([F(2), F(0), F(-4)], [F(1), F(0), F(-2)], True),
        ([F(1), F(2)], [F(1), F(2), F(0)], False),
        ([F(1), F(0)], [F(1), F(1)], False),
        ([F(1), F(2)], [F(1), F(1)], False),
        ([F(0), F(0)], [F(0), F(0)], False),
    ],
    ids=["multiple", "lengths differ", "zeros differ", "ratios differ", "both zero"],
)
def test_is_scalar_multiple(u, v, expected):
    assert rational.is_scalar_multiple(u, v) is expected


def test_pivot_in_place():
    # integer rows over one denominator each: row i is rows[i] / dens[i]
    rows = [[2, 4, 0, 2], [1, 0, 3, 1], [0, 5, 1, 0]]
    dens = [1, 1, 1]
    same_rows = [id(row) for row in rows]
    rational.pivot(rows, dens, 0, 0)
    assert [[F(v, d) for v in row] for row, d in zip(rows, dens)] == [
        [F(1), F(2), F(0), F(1)],
        [F(0), F(-2), F(3), F(0)],
        [F(0), F(5), F(1), F(0)],
    ]
    assert [id(row) for row in rows] == same_rows


def test_vertex_enumeration_square():
    # {p >= 0, sum = 1} in 3 variables: vertices are the unit atoms
    a = frac_rows([[1, 1, 1]])
    b = [F(1)]
    assert vertices(a, b) == [
        (F(0), F(0), F(1)), (F(0), F(1), F(0)), (F(1), F(0), F(0))
    ]


def test_vertex_enumeration_infeasible():
    a = frac_rows([[1, 1], [1, 1]])
    b = [F(1), F(2)]
    assert vertices(a, b) == []


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
        assert objective_range(c, a, b) == vertex_range(c, a, b)


def full_system_optimum(c, a, b):
    """``min c.x`` from the tableau of the full system, with no presolve."""
    rows, dens, basis = lp._phase1(c, a, b)
    lp._iterate(rows, dens, basis, len(c))
    return lp._optimum(rows, dens)


def lexmin_by_restarts(c, a, b):
    """Reference lexicographic minimum, one fresh LP per coordinate.

    Pins ``c.x`` at its optimum, then minimizes each coordinate in turn
    with a new two-phase solve of the unpresolved system, appending its
    optimum as an equality row, until the equalities determine a single
    point.
    """
    optimum = full_system_optimum(c, a, b)
    n = len(c)
    rows = [list(row) for row in a] + [list(c)]
    rhs = list(b) + [optimum]
    for j in range(n):
        point = solve_unique(rows, rhs)
        if point is not None:
            return point
        unit = [F(int(k == j)) for k in range(n)]
        vj = full_system_optimum(unit, rows, rhs)
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


def test_uniform_10x2_one_way_witnesses_are_pinned():
    # recorded while the face walk still priced every eligible column
    model = FunctionDistribution.uniform(10, 2)
    query = CounterfactualQuery(tuple((x, x % 2) for x in range(10)))
    bounds, w_lo, w_hi = lp_bounds_with_witnesses(
        LinearTarget.from_query(query, 10, 2), build_constraints(model, "one-way")
    )
    assert bounds == Bounds(0, F(1, 2))
    assert hashlib.sha256(repr((w_lo, w_hi)).encode()).hexdigest() == (
        "dacc806f16bbec553105b0f2bfc7ae84d21ad1680a462b62bd400cb52bc697bc"
    )


def test_lexmin_raises_when_the_final_vertex_is_off_the_face(monkeypatch):
    monkeypatch.setattr(lp, "_basic_solution", lambda *_: [F(0), F(0), F(1)])
    a = frac_rows([[1, 1, 1]])
    for search in (lexmin_optimal_vertex, lexmin_optimal_range, simplex_minimize):
        with pytest.raises(InternalCheckError):
            search([F(-1), F(-1), F(0)], a, [F(1)])


@pytest.mark.parametrize(
    "vertex",
    [[F(2), F(-1), F(0)], [F(1, 2), F(1, 2), F(1, 3)]],
    ids=["negative entry", "A x != b"],
)
def test_lexmin_raises_on_each_leg_of_the_final_check(monkeypatch, vertex):
    # each point misses one leg only: x >= 0, A x = b, or c . x = the
    # optimum -1 (the test above)
    c, a, b = [F(-1), F(-1), F(0)], frac_rows([[1, 1, 1]]), [F(1)]
    assert sum(ci * v for ci, v in zip(c, vertex)) == -1
    monkeypatch.setattr(lp, "_basic_solution", lambda *_: vertex)
    for search in (lexmin_optimal_vertex, lexmin_optimal_range, simplex_minimize):
        with pytest.raises(InternalCheckError):
            search(c, a, b)


# --- The integer tableau against the Fraction tableau of reference.py.


def as_fractions(rows, dens):
    return [[F(v, d) for v in row] for row, d in zip(rows, dens)]


def solve_both_ways(c, a, b):
    """Phase 1 and phase 2 on the Fraction reference and on the integer
    tableau: the outcome, plus the final tableau and basis when optimal."""
    outcomes = []
    for phase1, iterate, to_fractions in (
        (fraction_phase1, fraction_iterate, lambda rows: rows),
        (lp._phase1, lp._iterate, lambda rows, dens: as_fractions(rows, dens)),
    ):
        try:
            *tableau, basis = phase1(c, a, b)
            iterate(*tableau, basis, len(c))
        except InfeasibleSystemError as err:
            outcomes.append(("infeasible", err.residual, err.certificate))
        except UnboundedProgramError:
            outcomes.append(("unbounded",))
        else:
            outcomes.append(("optimal", to_fractions(*tableau), basis))
    return outcomes


def random_system(rng):
    """A small LP with non-unit rational coefficients.  Right-hand sides
    come from a sparse nonnegative point (feasible, often degenerate) or
    at random (often infeasible); rows may be negated, repeated as a
    combination of two others, or zero."""
    n, m = rng.randint(1, 7), rng.randint(1, 4)
    a = [
        [F(rng.randint(-4, 4), rng.randint(1, 4)) if rng.random() < 0.7 else F(0)
         for _ in range(n)]
        for _ in range(m)
    ]
    if rng.random() < 0.6:
        a.append([F(1)] * n)  # a normalization row keeps the polytope bounded
    if rng.random() < 0.3:
        i, k = rng.randrange(len(a)), rng.randrange(len(a))
        a.append([u + F(2, 3) * v for u, v in zip(a[i], a[k])])  # redundant
    if rng.random() < 0.2:
        a.append([F(0)] * n)
    if rng.random() < 0.7:
        point = [
            F(rng.choice((0, 0, 0, 1, 2, 5)), rng.randint(1, 3)) for _ in range(n)
        ]
        b = [sum(p * q for p, q in zip(row, point)) for row in a]
    else:
        b = [F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in a]
    c = [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n)]
    return c, a, b


def test_integer_tableau_matches_the_fraction_reference_on_random_systems():
    rng = random.Random(1968)
    kinds = {"optimal": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        c, a, b = random_system(rng)
        reference, integer = solve_both_ways(c, a, b)
        assert integer == reference
        kinds[reference[0]] += 1
        if reference[0] == "optimal":
            assert simplex_minimize(c, a, b)[0] == -reference[1][-1][-1]
        elif reference[0] == "infeasible":
            with pytest.raises(InfeasibleSystemError) as excinfo:
                simplex_minimize(c, a, b)
            assert_full_certificate(excinfo.value, a, b)
        else:
            with pytest.raises(UnboundedProgramError):
                simplex_minimize(c, a, b)
    assert min(kinds.values()) >= 20, kinds


@pytest.mark.parametrize("c, a, b", list(_witness_systems()))
def test_face_walk_matches_the_fraction_reference_on_witness_systems(c, a, b):
    expected = []
    for d in (c, [-v for v in c]):
        tableau, basis = fraction_phase1(d, a, b)
        expected.append(fraction_face_walk(tableau, basis, len(c))[0])
    assert list(lexmin_optimal_range(c, a, b)) == expected


# --- Pricing: one integer combination of the basic rows, against one
# rational.pivot per basic row.


def priced(price, rows, dens, basis):
    """``(rows, dens)`` after ``price`` on copies of the tableau."""
    rows, dens = [list(row) for row in rows], list(dens)
    price(rows, dens, list(basis))
    return rows, dens


def priced_tableaux(c, a, b):
    """Copies of every tableau that ``lp._price`` is handed while both
    witnesses of ``(c, a, b)`` are searched: on a feasible system, the
    phase-2 cost row of ``c``, then the face walks' unit rows."""
    seen = []
    real = lp._price

    def spy(rows, dens, basis):
        seen.append(([list(row) for row in rows], list(dens), list(basis)))
        real(rows, dens, basis)

    with mock.patch.object(lp, "_price", spy):
        try:
            lexmin_optimal_range(c, a, b)
        except (InfeasibleSystemError, UnboundedProgramError):
            pass
    return seen


def phase1_start(c, a, b):
    """A copy of the tableau and basis that ``lp._phase1`` hands to its
    first ``lp._iterate``: the rows of ``(a, b)`` and the phase-1 cost row."""
    seen = []
    real = lp._iterate

    def spy(rows, dens, basis, *args):
        if not seen:
            seen.append(([list(row) for row in rows], list(dens), list(basis)))
        real(rows, dens, basis, *args)

    with mock.patch.object(lp, "_iterate", spy):
        try:
            lp._phase1(c, a, b)
        except InfeasibleSystemError:
            pass
    return seen[0]


def wide_phase1_start(a, b):
    """The phase-1 start with artificial columns, in integer form: row i
    is ``[a_i | d_i e_i | b_i]`` over the lcm d_i of its denominators,
    negated where b_i < 0, and the cost row of the artificials,
    ``[0 | 1 | 0]``, priced by one ``rational.pivot`` per basic row."""
    m, n = len(a), len(a[0])
    rows, dens = [], []
    for i in range(m):
        ints, den = rational.int_row([*a[i], b[i]])
        if b[i] < 0:
            ints = [-v for v in ints]
        rows.append(ints[:n] + [den if k == i else 0 for k in range(m)] + ints[n:])
        dens.append(den)
    rows.append([0] * n + [1] * m + [0])
    dens.append(1)
    basis = [n + i for i in range(m)]
    pivot_price(rows, dens, basis)
    return rows, dens, basis


def assert_prices_alike(rows, dens, basis):
    assert priced(lp._price, rows, dens, basis) == priced(
        pivot_price, rows, dens, basis
    )


PRICING = settings(max_examples=150, deadline=None, derandomize=True)


@PRICING
@given(st.integers(0, 2**32))
def test_price_matches_a_pivot_per_row_at_the_phase1_start(seed):
    # the narrow start, minus the sum of the rows, is the wide start
    # without its artificial columns, which pricing has cleared
    c, a, b = random_system(random.Random(seed))
    m, n = len(a), len(a[0])
    rows, dens, basis = wide_phase1_start(a, b)
    assert all(v == 0 for v in rows[-1][n : n + m])
    narrow = [row[:n] + row[n + m :] for row in rows]
    assert phase1_start(c, a, b) == (narrow, dens, basis)


@PRICING
@given(st.integers(0, 2**32), st.data())
def test_price_matches_a_pivot_per_row_with_a_phase2_cost(seed, data):
    tableaux = priced_tableaux(*random_system(random.Random(seed)))
    if tableaux:
        rows, dens, basis = tableaux[0]
        assert_prices_alike(rows, dens, basis)  # the cost row of c
        n = len(rows[0]) - 1
        rows[-1] = data.draw(st.lists(st.integers(-60, 60), min_size=n, max_size=n))
        rows[-1].append(0)
        dens[-1] = data.draw(st.integers(1, 12))
        assert_prices_alike(rows, dens, basis)


@PRICING
@given(st.integers(0, 2**32))
def test_price_matches_a_pivot_per_row_on_face_walk_unit_rows(seed):
    tableaux = priced_tableaux(*random_system(random.Random(seed)))
    for rows, dens, basis in tableaux[1:]:  # the face walks' own
        assert_prices_alike(rows, dens, basis)
    if tableaux:
        rows, dens, basis = tableaux[0]
        n = len(rows[0]) - 1
        for j in range(n):
            rows[-1], dens[-1] = [int(k == j) for k in range(n + 1)], 1
            assert_prices_alike(rows, dens, basis)


# --- Presolve (objective_range, lexmin_optimal_*, simplex_minimize),
# checked against the same pricing on the full system.


def full_system_reference(c, a, b):
    """Bounds and both lexicographic witnesses from ``lp._face_walk`` over
    ``lp._phase1`` of the full system, with no presolve:
    ``((lo, hi), (x_lo, x_hi))``."""
    cols = list(range(len(c)))
    witnesses = tuple(
        lp._face_walk(*lp._phase1(d, a, b), cols, d, a, b)
        for d in (c, [-v for v in c])
    )
    lo, hi = (sum(p * q for p, q in zip(c, x)) for x in witnesses)
    return (lo, hi), witnesses


def outcome(solve, *args):
    try:
        return ("solved", solve(*args))
    except InfeasibleSystemError as err:
        return ("infeasible", err)
    except UnboundedProgramError:
        return ("unbounded",)


def assert_full_certificate(err, a, b):
    y = err.certificate
    assert len(y) == len(a)
    assert sum(p * q for p, q in zip(y, b)) > 0
    for j in range(len(a[0])):
        assert sum(y[i] * a[i][j] for i in range(len(a))) <= 0


def wide_reference(c, a, b):
    """Bounds and both lexicographic witnesses from the wide ``Fraction``
    phase 1, whose artificial columns may re-enter, and
    ``fraction_face_walk``, on the full system: ``((lo, hi), (x_lo, x_hi))``."""
    witnesses = tuple(
        fraction_face_walk(*fraction_phase1(d, a, b, wide=True), len(c))[0]
        for d in (c, [-v for v in c])
    )
    lo, hi = (sum(p * q for p, q in zip(c, x)) for x in witnesses)
    return (lo, hi), witnesses


def test_narrow_phase1_matches_the_wide_reference_on_random_systems():
    # the two may take other pivots and, on an infeasible system, give
    # other certificates; the outcome, bounds and witnesses are unique
    rng = random.Random(1983)
    kinds = {"solved": 0, "infeasible": 0, "unbounded": 0}
    for _ in range(300):
        c, a, b = random_system(rng)
        reference = outcome(wide_reference, c, a, b)
        got = outcome(full_system_reference, c, a, b)
        bounds = outcome(objective_range, c, a, b)
        assert (got[0], bounds[0]) == (reference[0], reference[0])
        if reference[0] == "solved":
            assert got[1] == reference[1]
            assert bounds[1] == reference[1][0]
        elif reference[0] == "infeasible":
            for err in (reference[1], got[1], bounds[1]):
                assert_full_certificate(err, a, b)
        kinds[reference[0]] += 1
    assert min(kinds.values()) >= 20, kinds


def assert_matches_full_system(c, a, b):
    """objective_range, lexmin_optimal_range, lexmin_optimal_vertex and
    simplex_minimize agree with the reference; returns the kind of
    outcome."""
    reference = outcome(full_system_reference, c, a, b)
    both = (c, [-v for v in c])
    got = [
        outcome(objective_range, c, a, b),
        outcome(lexmin_optimal_range, c, a, b),
        outcome(lambda: tuple(lexmin_optimal_vertex(d, a, b) for d in both)),
        outcome(lambda: tuple(simplex_minimize(d, a, b) for d in both)),
    ]
    assert [g[0] for g in got] == [reference[0]] * 4
    if reference[0] == "solved":
        (lo, hi), (x_lo, x_hi) = reference[1]
        assert [g[1] for g in got] == [
            (lo, hi), (x_lo, x_hi), (x_lo, x_hi), ((lo, x_lo), (-hi, x_hi))
        ]
    elif reference[0] == "infeasible":
        for g in got:
            assert_full_certificate(g[1], a, b)
    return reference[0]


def pinned_system(rng):
    """:func:`random_system` with rows of right-hand side 0 added: one
    sign on a random support, and sometimes one entry of the other sign on
    a column that an earlier such row pins, so pins cascade."""
    c, a, b = random_system(rng)
    n = len(c)
    pinned = []
    for _ in range(rng.randint(0, 3)):
        sign = rng.choice((1, -1))
        support = rng.sample(range(n), rng.randint(1, max(1, n // 2)))
        row = [F(0)] * n
        for j in support:
            row[j] = sign * F(rng.randint(1, 4), rng.randint(1, 3))
        if pinned and rng.random() < 0.5:
            row[rng.choice(pinned)] = -sign * F(rng.randint(1, 3))
        pinned.extend(support)
        at = rng.randint(0, len(a))
        a.insert(at, row)
        b.insert(at, F(0))
    return c, a, b


def test_presolve_and_pricing_match_bland_on_random_systems():
    rng = random.Random(1977)
    kinds = {"solved": 0, "infeasible": 0, "unbounded": 0}
    dropped = 0
    for _ in range(300):
        c, a, b = pinned_system(rng)
        kinds[assert_matches_full_system(c, a, b)] += 1
        dropped += len(a[0]) - len(lp._presolve(a, b)[0])
    assert min(kinds.values()) >= 20, kinds
    assert dropped >= 100


@pytest.mark.parametrize(
    "model, level, pairs", [pytest.param(*case[1:], id=case[0]) for case in ladder()]
)
def test_presolve_and_pricing_match_bland_on_the_ladder(model, level, pairs):
    system = build_constraints(model, ConstraintLevel.parse(level))
    c = list(
        LinearTarget.from_query(CounterfactualQuery(pairs), model.n_x, model.n_y)
        .coefficients
    )
    a, b = system.matrix()
    assert assert_matches_full_system(c, a, b) == "solved"


def _basis_cases():
    for name, *case in ladder():
        yield pytest.param(*case, id=name)
    for n_x, n_y in RANDOM_SIZES:
        pairs = tuple((x, x % n_y) for x in range(n_x))
        for kind, model in zip(("random", "sparse"), random_and_sparse(n_x, n_y)):
            for level in ("one-way", "two-way"):
                name = f"{kind} {n_x}x{n_y} {level}"
                yield pytest.param(model, level, pairs, id=name)


@pytest.mark.parametrize("model, level, pairs", list(_basis_cases()))
def test_event_basis_has_the_solutions_of_every_event(model, level, pairs):
    # the rows themselves are checked in test_identify
    system, full = build_constraints(model, level), full_event_system(model, level)
    (a, b), (full_a, full_b) = system.matrix(), full.matrix()
    assert rref([row + [v] for row, v in zip(a, b)]) == rref(
        [row + [v] for row, v in zip(full_a, full_b)]
    )
    assert lp._presolve(a, b)[0] == lp._presolve(full_a, full_b)[0]
    target = LinearTarget.from_query(CounterfactualQuery(pairs), model.n_x, model.n_y)
    assert lp_bounds_with_witnesses(target, system) == lp_bounds_with_witnesses(
        target, full
    )


def test_tail_two_way_bounds_take_few_pivots(monkeypatch):
    # guards presolve strength: with every event row (no basis) these took
    # 54, 54 and 64 pivots, counted when pricing also pivoted
    pivots = 0
    real_pivot = lp.pivot

    def counting_pivot(*args):
        nonlocal pivots
        pivots += 1
        return real_pivot(*args)

    monkeypatch.setattr(lp, "pivot", counting_pivot)
    for tail in ((0, 0, 0), (1, 1, 1), (0, 1, 0, 1)):
        n = 3 + len(tail)
        model = restricted_tail_model(n, tail)
        query = CounterfactualQuery(
            ((0, 1), (1, 1), (2, 1)) + tuple((3 + i, v) for i, v in enumerate(tail))
        )
        system = build_constraints(model, "two-way")
        pivots = 0
        assert lp_bounds(LinearTarget.from_query(query, n, 2), system) == Bounds(
            0, F(1, 4)
        )
        assert pivots <= 10, (tail, pivots)


def test_presolve_drops_forced_zero_columns_of_a_tail_model():
    system = build_constraints(
        restricted_tail_model(7, (0, 1, 0, 1)), ConstraintLevel.parse("two-way")
    )
    a, b = system.matrix()
    # the 99 events hold 45 of probability 0 and span 7 + 29 dimensions
    assert (len(a), len(a[0])) == (53, 128)
    cols, rows, _ = lp._presolve(a, b)
    assert (len(rows), len(cols)) == (7, 8)


def test_presolve_pins_with_negative_coefficients():
    # -x0 - 2 x1 = 0 forces x0 = x1 = 0
    a = frac_rows([[1, 1, 1, 1], [-1, -2, 0, 0]])
    b = [F(1), F(0)]
    assert lp._presolve(a, b) == ([2, 3], [0], [(1, [0, 1])])
    c = [F(5), F(7), F(1), F(-1)]
    assert objective_range(c, a, b) == (F(-1), F(1))
    assert lexmin_optimal_range(c, a, b) == (
        [F(0), F(0), F(0), F(1)], [F(0), F(0), F(1), F(0)]
    )
    assert_matches_full_system(c, a, b)


def test_presolve_pins_cascade():
    # x0 - x1 = 0 has mixed signs until x1 = 0 is pinned by the next row
    a = frac_rows([[1, -1, 0, 0], [0, 3, 0, 0], [1, 1, 1, 1]])
    b = [F(0), F(0), F(1)]
    assert lp._presolve(a, b) == ([2, 3], [2], [(1, [1]), (0, [0])])
    assert_matches_full_system([F(1), F(2), F(3), F(4)], a, b)


def test_presolve_leaves_a_system_it_would_empty():
    # every column and every row is dropped: solve the full system instead
    a = frac_rows([[1, 1]])
    b = [F(0)]
    assert lp._presolve(a, b) == ([0, 1], [0], [])
    assert objective_range([F(1), F(-1)], a, b) == (F(0), F(0))
    assert lexmin_optimal_range([F(1), F(-1)], a, b) == ([F(0), F(0)], [F(0), F(0)])


@pytest.mark.parametrize(
    "rows, b",
    [
        # every column is forced to zero, leaving 0 = 1
        ([[1, 0, 0], [0, 1, 1], [1, 1, 1]], [0, 0, 1]),
        # the same through a cascade: x1 = 0, then x0 - x1 = 0
        ([[1, -1, 0], [0, 1, 0], [1, 1, 0]], [0, 0, 1]),
        # pins leave an infeasible system on the kept columns
        ([[0, 1, 2, 0], [1, 0, 0, 1], [1, 0, 0, 1]], [0, F(1, 2), F(1, 3)]),
    ],
)
def test_presolved_infeasible_system_has_a_full_certificate(rows, b):
    a = frac_rows(rows)
    assert_raises_with_the_full_phase1_certificate(
        [F(1)] * len(a[0]), a, [F(v) for v in b]
    )


def assert_raises_with_the_full_phase1_certificate(c, a, b):
    """Every entry point raises with the certificate of ``lp._phase1`` on
    the full system and the message and residual of ``lp._phase1`` on the
    presolved one; returns whether the two residuals differ."""
    cols, rows, _ = lp._presolve(a, b)
    with pytest.raises(InfeasibleSystemError) as full:
        lp._phase1(c, a, b)
    with pytest.raises(InfeasibleSystemError) as kept:
        lp._phase1(
            [c[j] for j in cols],
            [[a[i][j] for j in cols] for i in rows],
            [b[i] for i in rows],
        )
    for search in (
        objective_range, lexmin_optimal_range, lexmin_optimal_vertex, simplex_minimize
    ):
        with pytest.raises(InfeasibleSystemError) as excinfo:
            search(c, a, b)
        err = excinfo.value
        assert err.certificate == full.value.certificate
        assert (str(err), err.residual) == (str(kept.value), kept.value.residual)
        assert_full_certificate(err, a, b)
    return kept.value.residual != full.value.residual


def test_presolved_infeasible_random_systems_take_the_full_phase1_certificate():
    rng = random.Random(1989)
    cases = differ = 0
    for _ in range(200):
        c, a, b = pinned_system(rng)
        if not lp._presolve(a, b)[2]:
            continue
        try:
            lp._phase1(c, a, b)
        except InfeasibleSystemError:
            cases += 1
            differ += assert_raises_with_the_full_phase1_certificate(c, a, b)
    # the message and residual are the presolved run's, not the full run's
    assert cases >= 50 and differ >= 10, (cases, differ)


def test_presolve_that_empties_a_feasible_system_is_caught(monkeypatch):
    # x0 = 1, x0 + x1 = 1 is feasible; with x0 dropped it reads 0 = 1
    real = lp._presolve

    def drop_first_column(a, b):
        cols, rows, pins = real(a, b)
        return cols[1:], rows, pins

    monkeypatch.setattr(lp, "_presolve", drop_first_column)
    monkeypatch.setattr(lp, "_check_presolve", lambda *args: None)
    a = frac_rows([[1, 0], [1, 1]])
    for search in (
        objective_range, lexmin_optimal_vertex, lexmin_optimal_range, simplex_minimize
    ):
        with pytest.raises(InternalCheckError, match="presolve emptied"):
            search([F(1), F(0)], a, [F(1), F(1)])


def test_presolve_that_drops_a_live_column_is_caught(monkeypatch):
    real = lp._presolve

    def drop_first_column(a, b):
        cols, rows, pins = real(a, b)
        return cols[1:], rows, pins

    monkeypatch.setattr(lp, "_presolve", drop_first_column)
    a = frac_rows([[1, 1, 1]])
    for search in (
        objective_range, lexmin_optimal_vertex, lexmin_optimal_range, simplex_minimize
    ):
        with pytest.raises(InternalCheckError):
            search([F(-1), F(0), F(0)], a, [F(1)])
