"""Identifiability analysis over the function-distribution simplex.

Each oracle access mode pins down an affine slice of the simplex: single
queries with classical readout fix the per-input output marginals, while
coherent queries additionally fix all pairwise output marginals.  A
counterfactual target is identifiable exactly when the induced linear
program has width zero; otherwise the LP yields the tight
partial-identification interval together with witness models at both
endpoints.  In the binary case three coherent-probe statistics and
normalization fix the whole distribution, exactly (:func:`solve_binary_pF`).

This module, with :mod:`core`, :mod:`lp` and :mod:`rational`, is the
exact core: it imports only those, :mod:`errors` and the standard
library.  The paper's scenarios, models and reports are built on it in
:mod:`reproduce`.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import combinations, product

from . import lp
from .core import (
    CounterfactualQuery,
    FunctionDistribution,
    FunctionTable,
    _as_fraction,
    _built,
    _cardinalities,
    _check_size,
    _describe_count,
    _describe_int,
    _describe_power,
    _describe_rational,
    _event_row,
    _is_power,
    _set_cardinalities,
    _trusted,
    _value_digits,
    enumerate_functions,
)
from .errors import (
    DomainError,
    InternalCheckError,
    MeasurementInconsistencyError,
    ValidationError,
)
from .rational import int_row, nullspace, solve_unique

_ZERO = Fraction(0)


def _exact(coeffs) -> tuple:
    """Keep ``int`` and ``Fraction`` entries; convert others with ``_as_fraction``."""
    try:
        coeffs = tuple(coeffs)
    except TypeError as exc:
        raise ValidationError(f"coefficients must be a sequence: {exc}") from exc
    if set(map(type, coeffs)) <= {int, Fraction}:
        return coeffs
    return tuple(c if type(c) in (int, Fraction) else _as_fraction(c) for c in coeffs)


class ConstraintLevel(enum.Enum):
    """How much of the function distribution an experiment reveals."""

    ONE_WAY = "one_way"
    TWO_WAY = "two_way"

    @classmethod
    def parse(cls, token: "ConstraintLevel | str") -> "ConstraintLevel":
        if isinstance(token, cls):
            return token
        if not isinstance(token, str):
            kind = type(token).__name__
            raise ValidationError(f"constraint level must be a string, got a {kind}")
        normalized = token.strip().lower().replace("-", "_")
        for level in cls:
            if level.value == normalized:
                return level
        raise ValidationError(
            f"unknown constraint level {token!r}; expected one-way or two-way"
        )


@dataclass(frozen=True)
class ConstraintSystem:
    """Affine constraints ``A p = b`` over the full table simplex.

    Coefficient vectors run over all n_y**n_x tables in canonical order.
    The all-ones normalization row must appear exactly once; duplicate or
    linearly dependent data rows are kept as given, and the LP drops the
    redundant ones itself.  (:func:`build_constraints` emits a basis of
    its event rows plus every zero event.)  In the degenerate one-table
    case every marginal row is syntactically all-ones, so the uniqueness
    check is waived there and only consistency is enforced.

    ``marginals[x][y]`` is p(f(x)=y) on a one-way system returned by
    :func:`build_constraints`, whose rows then fix exactly those values;
    it is None on every other system.
    """

    n_x: int
    n_y: int
    rows: tuple[tuple[tuple[int | Fraction, ...], Fraction], ...]
    marginals: tuple[tuple[Fraction, ...], ...] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        n_x, n_y = _set_cardinalities(self)
        try:
            rows = [(coeffs, rhs) for coeffs, rhs in self.rows]
        except (TypeError, ValueError) as exc:  # ValueError: not a pair
            raise ValidationError(
                f"rows must be (coefficients, rhs) pairs: {exc}"
            ) from exc
        normalized_rows = []
        ones = 0
        length = None  # the previous row's, already checked
        for coeffs, rhs in rows:
            coeffs = _exact(coeffs)
            rhs = _as_fraction(rhs)
            if len(coeffs) != length and not _is_power(len(coeffs), n_y, n_x):
                raise ValidationError(
                    f"coefficient vector has {len(coeffs)} entries, "
                    f"expected {_describe_count(n_y, n_x)}"
                )
            length = len(coeffs)
            if coeffs.count(1) == len(coeffs):
                ones += 1
                if rhs != 1:
                    raise ValidationError(
                        "normalization row must have right-hand side 1, got "
                        + _describe_rational(rhs)
                    )
            normalized_rows.append((coeffs, rhs))
        if ones != 1 and not (n_y == 1 and ones >= 1):
            raise ValidationError(
                f"system must contain the normalization row exactly once, found {ones}"
            )
        object.__setattr__(self, "rows", tuple(normalized_rows))

    @property
    def dimension(self) -> int:
        """n_y**n_x, read off the checked rows (the normalization row is
        always one of them) instead of taking the power."""
        return len(self.rows[0][0])

    def matrix(self) -> tuple[list[list[int | Fraction]], list[Fraction]]:
        a = [list(coeffs) for coeffs, _ in self.rows]
        b = [rhs for _, rhs in self.rows]
        return a, b


@dataclass(frozen=True)
class LinearTarget:
    """A linear functional ``sum_f c_f p(f)`` of the table distribution.

    ``source`` is ``(query, n_x, n_y)`` on a target returned by
    :meth:`from_query`, and None on every other target.
    """

    coefficients: tuple[int | Fraction, ...]
    source: tuple[CounterfactualQuery, int, int] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        object.__setattr__(self, "coefficients", _exact(self.coefficients))

    @classmethod
    def from_query(
        cls, query: CounterfactualQuery, n_x: int, n_y: int
    ) -> "LinearTarget":
        """Indicator coefficients of a joint counterfactual event."""
        n_x, n_y = _cardinalities(n_x, n_y)
        query.validate_for(n_x, n_y)
        _check_size(f"{_describe_power(n_y, n_x)} target coefficients", n_y, n_x)
        return _built(
            cls, coefficients=_event_row(n_x, n_y, query.pairs),
            source=(query, n_x, n_y),
        )

    def value_on(self, pF: FunctionDistribution) -> Fraction:
        if not _is_power(len(self.coefficients), pF.n_y, pF.n_x):
            raise ValidationError(
                f"target has {len(self.coefficients)} coefficients, the model "
                f"{_describe_power(pF.n_y, pF.n_x)} tables"
            )
        # the coefficients on the support over their own one denominator
        coeffs, den = int_row([self.coefficients[t.index] for t in pF.weights])
        return Fraction(sum(map(operator.mul, coeffs, pF._nums)), den * pF._den)


@dataclass(frozen=True)
class Bounds:
    """A tight partial-identification interval for a probability target."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        object.__setattr__(self, "lo", _as_fraction(self.lo))
        object.__setattr__(self, "hi", _as_fraction(self.hi))
        if not (0 <= self.lo <= self.hi <= 1):
            raise ValidationError(
                "bounds must satisfy 0 <= lo <= hi <= 1, got "
                f"[{_describe_rational(self.lo)}, {_describe_rational(self.hi)}]"
            )

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def _marginal_counts(pF: FunctionDistribution, input_pairs) -> tuple[list, list]:
    """Every p(f(x)=y), and every p(f(x)=y, f(x')=y') for ``(x, x')`` in
    ``input_pairs``, in one pass over the support, as integer counts over
    ``pF._den``: ``one[x][y]`` and ``two[k][y][y']`` for the k-th pair."""
    one = [[0] * pF.n_y for _ in range(pF.n_x)]
    two = [[[0] * pF.n_y for _ in range(pF.n_y)] for _ in input_pairs]
    for table, count in zip(pF.weights, pF._nums):
        outs = table.outputs
        for x, y in enumerate(outs):
            one[x][y] += count
        for cell, (x, x_prime) in zip(two, input_pairs):
            cell[outs[x]][outs[x_prime]] += count
    return one, two


def build_constraints(
    pF_true: FunctionDistribution,
    level: ConstraintLevel | str,
) -> ConstraintSystem:
    """The affine system an experiment at ``level`` reveals about pF_true.

    ONE_WAY fixes every p(f(x)=y); TWO_WAY additionally fixes every
    p(f(x)=y, f(x')=y') for x != x'.  Not every such event is emitted,
    only a basis of their span plus every event of probability 0.  For
    each x the reference output r(x) is the last y with p(f(x)=y) > 0.
    The rows, in event order, are the one-way events with y != r(x), the
    two-way events with y != r(x) and y' != r(x'), and every other
    two-way event of probability 0; the normalization row is last.  Each
    dropped event is a signed sum of kept ones, e.g. [f(x)=r(x)] = 1 -
    sum over y != r(x) of [f(x)=y], and all right-hand sides come from
    ``pF_true``, so the solution set is that of the full event system;
    keeping the zero events lets :mod:`lp` presolve pin the same columns.
    The two-way system contains the one-way system as a subset of rows.

    Rows are ``int`` 0/1 event indicators; right-hand sides are their
    exact dot products with ``pF_true``.  Raises
    :class:`EnumerationCapError`, before anything is built, when the
    full event count (plus one) times the tables would exceed the cap.
    """
    level = ConstraintLevel.parse(level)
    n_x, n_y = pF_true.n_x, pF_true.n_y
    two_way = level is ConstraintLevel.TWO_WAY
    n_rows = n_x * n_y + (math.comb(n_x, 2) * n_y**2 if two_way else 0) + 1
    tables = _describe_power(n_y, n_x)
    what = f"cells of {_describe_int(n_rows)} rows over {tables} tables"
    _check_size(what, n_y, n_x, n_rows)
    input_pairs = list(combinations(range(n_x), 2)) if two_way else []
    den = pF_true._den
    one, two = _marginal_counts(pF_true, input_pairs)
    ref = [max(y for y in range(n_y) if counts[y]) for counts in one]
    events = [
        (((x, y),), one[x][y]) for x in range(n_x) for y in range(n_y) if y != ref[x]
    ]
    events += [
        (((x, y), (x_prime, y_prime)), cell[y][y_prime])
        for cell, (x, x_prime) in zip(two, input_pairs)
        for y in range(n_y)
        for y_prime in range(n_y)
        if (y != ref[x] and y_prime != ref[x_prime]) or not cell[y][y_prime]
    ]
    rows = [
        (_event_row(n_x, n_y, pairs), Fraction(count, den))
        for pairs, count in events
    ]
    rows.append(((1,) * n_y**n_x, Fraction(1)))
    marginals = None if two_way else tuple(
        tuple(Fraction(c, den) for c in counts) for counts in one
    )
    return _built(
        ConstraintSystem, n_x=n_x, n_y=n_y, rows=tuple(rows), marginals=marginals
    )


#: The three binary probe settings that pin down a 2 -> 2 distribution:
#: output statistics under each basis input, plus the Bell overlap of the
#: superposed probe.
BINARY_SCENARIOS = ("basis0", "basis1", "plus_bell")


def _scenario_position(scenario: str) -> int:
    """Where ``scenario`` sits in ``BINARY_SCENARIOS``: the one name check."""
    if scenario not in BINARY_SCENARIOS:
        raise DomainError(f"unknown scenario {scenario!r}")
    return BINARY_SCENARIOS.index(scenario)


def scenario_coefficient(f: FunctionTable, scenario: str) -> Fraction:
    """Exact Born probability of the scenario outcome for a single table.

    basis0 / basis1: probability of reading output 0 after preparing the
    corresponding basis input, which is 1 iff f maps it to 0.
    plus_bell: the Bell-state overlap of (|0, f(0)> + |1, f(1)>)/sqrt(2),
    equal to (m/2)^2 with m the number of fixed points of f.  Each is an
    amplitude squared: the sum of the scenario's w[x] over the inputs x
    where f(x) equals its t[x].
    """
    if f.n_x != 2 or f.n_y != 2:
        raise DomainError("binary scenarios require a 2 -> 2 table")
    w, t = (
        ((1, 0), (0, 0)),
        ((0, 1), (0, 0)),
        ((Fraction(1, 2),) * 2, (0, 1)),
    )[_scenario_position(scenario)]
    return Fraction(sum(w[x] for x, y in enumerate(f.outputs) if y == t[x])) ** 2


# The cache holds tuples only, so concurrent callers share nothing mutable.
@cache
def _binary_system() -> tuple[
    tuple[FunctionTable, ...], tuple[tuple[int, ...], ...], int,
    tuple[tuple[int, ...], ...], int,
]:
    """The exact binary system, built once: the four 2 -> 2 tables in
    canonical index order; each table's ``scenario_coefficient`` column,
    one entry per scenario of ``BINARY_SCENARIOS``, as integers over one
    denominator; and the exact inverse of the scenario rows plus the
    all-ones row, as integer rows over one denominator:
    ``(tables, columns, den, inverse, inv_den)``."""
    tables = tuple(enumerate_functions(2, 2))
    matrix = [[scenario_coefficient(t, s) for t in tables] for s in BINARY_SCENARIOS]
    coefficients, den = int_row([v for column in zip(*matrix) for v in column])
    matrix.append([1] * 4)
    solved = []
    for k in range(4):
        column = solve_unique(matrix, [Fraction(int(i == k)) for i in range(4)])
        if column is None:
            raise InternalCheckError("the binary identification matrix is singular")
        solved.append(column)
    inverse, inv_den = int_row([v for row in zip(*solved) for v in row])
    return (
        tables,
        tuple(tuple(coefficients[i : i + 3]) for i in range(0, 12, 3)),
        den,
        tuple(tuple(inverse[i : i + 4]) for i in range(0, 16, 4)),
        inv_den,
    )


def scenario_probability_exact(
    pF: FunctionDistribution, scenario: str
) -> Fraction:
    """Exact rational outcome probability of one probe scenario."""
    return binary_forward_measurements(pF)[_scenario_position(scenario)]


def binary_forward_measurements(
    pF: FunctionDistribution,
) -> tuple[Fraction, Fraction, Fraction]:
    """Exact (basis0, basis1, plus_bell) outcome probabilities: each
    table's coefficients times its weight, summed in one pass."""
    if pF.n_x != 2 or pF.n_y != 2:
        raise DomainError("binary scenarios require a 2 -> 2 model")
    _, columns, den, _, _ = _binary_system()
    sums = [0] * len(BINARY_SCENARIOS)
    for table, num in zip(pF.weights, pF._nums):
        for s, coefficient in enumerate(columns[table.index]):
            sums[s] += coefficient * num
    return tuple(Fraction(total, den * pF._den) for total in sums)


def solve_binary_pF(c00, c01, bell) -> FunctionDistribution:
    """Recover the full binary table distribution from the three probe
    statistics (plus normalization).

    Inputs may be exact rationals or floats.  The 4x4 system always has a
    unique algebraic solution: its cached exact inverse, in integers over
    one common denominator, times the statistics.  If any component falls
    outside [0, 1] by more than 1e-9 (tested exactly, in integers) the
    statistics are inconsistent and an error reports the violation.
    Otherwise components are clamped and renormalized.
    """
    statistics = [_as_fraction(v) for v in (c00, c01, bell)]
    tables, _, _, inverse, inv_den = _binary_system()
    rhs, den = int_row(statistics + [Fraction(1)])
    # component i of the solution is nums[i] / scale
    scale = den * inv_den
    nums = [sum(a * b for a, b in zip(row, rhs)) for row in inverse]
    if max(-min(nums), max(nums) - scale, 0) * 10**9 > scale:
        low, high = Fraction(min(nums), scale), Fraction(max(nums), scale)
        residual = max(Fraction(0) - low, high - 1, Fraction(0))
        raise MeasurementInconsistencyError(
            "measured statistics admit no distribution: component range "
            f"[{_describe_rational(low)}, {_describe_rational(high)}] exceeds "
            f"[0, 1] by {_describe_rational(residual)}",
            residual=residual,
        )
    clamped = [min(max(v, 0), scale) for v in nums]
    items = zip(tables, clamped)
    return _trusted(FunctionDistribution, "weights", items, sum(clamped), n_x=2, n_y=2)


def _frechet_bounds(target: LinearTarget, system: ConstraintSystem) -> Bounds | None:
    """The one-way bounds in closed form, or None when they do not apply.

    They apply when ``system`` is a one-way system from
    :func:`build_constraints` and ``target`` comes from
    :meth:`LinearTarget.from_query` for the same cardinalities.  The
    feasible set is then every coupling of the marginals p(f(x)=y), so
    with p_i = p(f(x_i)=y_i) over the queried pairs the target ranges
    exactly over the Frechet bounds [max(0, sum p_i - (k-1)), min p_i].
    """
    if system.marginals is None or target.source is None:
        return None
    query, n_x, n_y = target.source
    if (n_x, n_y) != (system.n_x, system.n_y):
        return None
    p = [system.marginals[x][y] for x, y in query.pairs]
    return Bounds(max(_ZERO, sum(p) - (len(p) - 1)), min(p))


def lp_bounds(target: LinearTarget, system: ConstraintSystem) -> Bounds:
    """Exact min and max of the target over all distributions satisfying
    the system.  Raises :class:`InfeasibleSystemError` when empty.

    A one-way system from :func:`build_constraints` with a target from
    :meth:`LinearTarget.from_query` is answered in closed form: one-way
    data fixes only the marginals p(f(x)=y), which is the paper's
    classical-oracle limit, so the bounds are the Frechet bounds of the
    queried marginals (see :func:`_frechet_bounds`).  Every other system
    or target, and every witness (:func:`lp_bounds_with_witnesses`),
    comes from the LP.
    """
    if len(target.coefficients) != system.dimension:
        raise ValidationError("target dimension does not match the system")
    bounds = _frechet_bounds(target, system)
    if bounds is not None:
        return bounds
    a, b = system.matrix()
    lo, hi = lp.objective_range(list(target.coefficients), a, b)
    return Bounds(lo, hi)


def lp_bounds_with_witnesses(
    target: LinearTarget, system: ConstraintSystem
) -> tuple[Bounds, FunctionDistribution, FunctionDistribution]:
    """Bounds plus feasible models attaining each endpoint.

    Ties are broken toward the lexicographically smallest optimal vertex
    under the canonical table ordering.
    """
    if len(target.coefficients) != system.dimension:
        raise ValidationError("target dimension does not match the system")
    a, b = system.matrix()
    w_lo, w_hi = (
        _witness(system.n_x, system.n_y, vertex)
        for vertex in lp.lexmin_optimal_range(list(target.coefficients), a, b)
    )
    return Bounds(target.value_on(w_lo), target.value_on(w_hi)), w_lo, w_hi


def _witness(n_x: int, n_y: int, vertex: list[Fraction]) -> FunctionDistribution:
    """The distribution with weight ``vertex[k]`` on the table of canonical
    index k.  :mod:`lp` has checked the vertex to be nonnegative and to meet
    every row, the normalization row among them, so it is not checked again."""
    support = [k for k, w in enumerate(vertex) if w]
    nums, den = int_row([vertex[k] for k in support])
    items = (
        (FunctionTable(n_x, n_y, tuple(_value_digits(k, n_y, n_x))), num)
        for k, num in zip(support, nums)
    )
    return _trusted(FunctionDistribution, "weights", items, den, n_x=n_x, n_y=n_y)


@dataclass(frozen=True)
class IdentifiabilityResult:
    identifiable: bool
    bounds: Bounds
    witness_lo: FunctionDistribution
    witness_hi: FunctionDistribution


def is_identifiable(
    target: LinearTarget, system: ConstraintSystem
) -> IdentifiabilityResult:
    """A target is identifiable iff its LP width is exactly zero.

    When it is not, the two witnesses are distributions consistent with
    the system that realize the extreme values.
    """
    bounds, w_lo, w_hi = lp_bounds_with_witnesses(target, system)
    return IdentifiabilityResult(bounds.width == 0, bounds, w_lo, w_hi)


def solution_family_direction(system: ConstraintSystem) -> list[list[Fraction]]:
    """Basis of the directions along which the system leaves p(F) free.

    The affine solution set of ``A p = b`` is a translate of the null
    space of A; a one-dimensional null space means a one-parameter family.
    """
    a, _ = system.matrix()
    return nullspace(a)


# The one paper model kept here rather than in :mod:`reproduce`, because
# perfbench/workloads.py calls it as ``identify.restricted_tail_model``.
def restricted_tail_model(n: int, fixed_tail: tuple[int, ...]) -> FunctionDistribution:
    """Binary-output model on n inputs, uniform over the first three
    coordinates and deterministic on the rest.

    Support: the 8 tables with (f(0), f(1), f(2)) free in {0,1}^3 and
    f(3+i) pinned to fixed_tail[i].
    """
    n, _ = _cardinalities(n, 2)
    if n < 3:
        raise ValidationError("needs n >= 3")
    if len(fixed_tail) != n - 3:
        raise ValidationError(
            f"fixed_tail must have length n-3={n - 3}, got {len(fixed_tail)}"
        )
    if any(v not in (0, 1) for v in fixed_tail):
        raise ValidationError("fixed_tail entries must be bits")
    tables = [
        FunctionTable(n, 2, head + tuple(fixed_tail))
        for head in product((0, 1), repeat=3)
    ]
    return FunctionDistribution.uniform_over(tables)
