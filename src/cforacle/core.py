"""Response-function causal models over finite variables.

A single cause X in {0..n_x-1} feeds a single effect Y in {0..n_y-1}
through an unknown deterministic map f.  All uncertainty lives in a
distribution over the n_y**n_x possible maps.  Every counterfactual
quantity is a functional of that distribution, and everything here is
computed in exact rational arithmetic so that identifiability questions
("is this value pinned down?") never hinge on a tolerance.
"""

from __future__ import annotations

import itertools
import numbers
import operator
import reprlib
from array import array
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from functools import partial
from math import gcd, lcm
from typing import Iterable, Mapping, Sequence

from .errors import (
    ContractViolationError,
    DomainError,
    EnumerationCapError,
    UndefinedConditionalError,
    ValidationError,
)

#: Hard ceiling on full function-table enumerations.  Operations that need
#: the complete table list fail loudly past this rather than sampling.
DEFAULT_ENUMERATION_CAP = 10**6

#: Upper bound on the classical oracle queries of one call (``simulate
#: --queries``, ``estimate_conditionals``), checked before anything is
#: drawn: a log's memory and every call's time grow with the count.
MAX_QUERIES = 10**7


# Fractions with a longer numerator or denominator are shown approximately
# in messages: Python refuses to print integers beyond 4300 digits.
_SHOWN_BITS = 3000


def _describe_rational(value: Fraction) -> str:
    """``str(value)``, or an approximation with the bit lengths when the
    numerator or denominator is too long to print in a message."""
    num_bits = value.numerator.bit_length()
    den_bits = value.denominator.bit_length()
    if max(num_bits, den_bits) <= _SHOWN_BITS:
        return str(value)
    if Fraction(1, 10**300) < abs(value) < 10**300:
        size = f"about {float(value):.17g}"
    else:
        size = "of magnitude outside [1e-300, 1e300]"
    return f"a rational {size} ({num_bits}-bit numerator, {den_bits}-bit denominator)"


def _describe_int(value: int) -> str:
    """``str(value)``, or its order of magnitude in powers of two when it
    is too long to print in a message."""
    bits = value.bit_length()
    if bits <= _SHOWN_BITS:
        return str(value)
    return f"-2^{bits - 1} or less" if value < 0 else f"2^{bits - 1} or more"


# Integers of at most this many bits (603 digits) are printed by ``str``
# whatever the process's int-to-str digit limit: the limit is at least 640.
_STR_BITS = 2000


def _int_str(value: int) -> str:
    """``str(value)`` for an integer of any length, whatever the process's
    int-to-str digit limit, without changing it: a long integer is split
    at a power of 10, as :func:`_value_digits` splits at a power of n_y."""
    if value < 0:
        return "-" + _int_str(-value)
    bits = value.bit_length()
    if bits <= _STR_BITS:
        return str(value)
    low = bits * 3 // 20  # half of a lower bound on the digits
    high, value = divmod(value, 10**low)
    return _int_str(high) + _int_str(value).zfill(low)


def _exact_str(value: Fraction) -> str:
    """``str(value)`` for a rational of any length, through :func:`_int_str`:
    the one renderer of exact results and model weights."""
    if value.denominator == 1:
        return _int_str(value.numerator)
    return f"{_int_str(value.numerator)}/{_int_str(value.denominator)}"


def _describe_power(base: int, exponent: int) -> str:
    """``f"{base}^{exponent}"``, each part through :func:`_describe_int`."""
    parts = (_describe_int(base), _describe_int(exponent))
    return "^".join(p if p.isdigit() else f"({p})" for p in parts)


def _power_exceeds(base: int, exponent: int, value: int) -> bool:
    """``base**exponent > value`` for a positive ``base``.  The power is
    not taken when its whole bits alone exceed ``value``'s bit length, so
    it is never much longer than ``value``, which is in memory already."""
    if value < 0 or exponent * (base.bit_length() - 1) >= value.bit_length():
        return True
    return base**exponent > value


def _is_power(value: int, base: int, exponent: int) -> bool:
    """``value == base**exponent``, by way of :func:`_power_exceeds`."""
    return not _power_exceeds(base, exponent, value) and base**exponent == value


def _describe_count(base: int, exponent: int) -> str:
    """``base**exponent`` as :func:`_describe_int` shows it, or as
    :func:`_describe_power` when it is too long to print (it is then not
    taken)."""
    if _power_exceeds(base, exponent, 1 << _SHOWN_BITS):
        return _describe_power(base, exponent)
    return _describe_int(base**exponent)


def _check_size(what: str, base: int, exponent: int = 1, factor: int = 1) -> None:
    """The one enumeration guard: raise :class:`EnumerationCapError` when
    ``factor * base**exponent`` (the count of ``what``) exceeds
    ``DEFAULT_ENUMERATION_CAP``, read at call time.  A count whose bit
    lengths put it past both the cap and printing is refused before the
    power is taken, so no huge integer is built only to be refused."""
    cap = DEFAULT_ENUMERATION_CAP
    # count >= 2**low, the whole bits of each factor
    low = factor.bit_length() - 1 + exponent * (base.bit_length() - 1)
    if low <= max(_SHOWN_BITS, cap.bit_length()):
        count = factor * base**exponent
        if count <= cap:
            return
        shown = _describe_int(count)
    else:
        shown = _describe_power(2, low) + " or more"
    raise EnumerationCapError(f"{what}: {shown} exceeds the enumeration cap {cap}")


def _cardinalities(n_x, n_y) -> tuple[int, int]:
    """The one check of a caller's n_x and n_y: positive integers (whatever
    ``operator.index`` takes), returned as ``int``; else
    :class:`ValidationError`."""
    try:
        n_x, n_y = operator.index(n_x), operator.index(n_y)
    except TypeError as exc:
        raise ValidationError(
            f"cardinalities must be positive integers: {exc}"
        ) from exc
    if n_x < 1 or n_y < 1:
        raise ValidationError("cardinalities must be positive integers")
    return n_x, n_y


def _as_index(value, what: str, bound: int | None = None) -> int:
    """The one read of a caller's input or output value: an integer
    (whatever ``operator.index`` takes), returned as ``int``, else
    :class:`ValidationError`; with ``bound``, also in ``[0, bound)``, else
    :class:`DomainError`."""
    try:
        value = operator.index(value)
    except TypeError as exc:
        kind = type(value).__name__
        raise ValidationError(f"{what} must be an integer, got a {kind}") from exc
    if bound is not None and not 0 <= value < bound:
        raise DomainError(
            f"{what} {_describe_int(value)} outside range [0, {_describe_int(bound)})"
        )
    return value


def _set_cardinalities(obj) -> tuple[int, int]:
    """:func:`_cardinalities` of a frozen dataclass's ``n_x`` and ``n_y``,
    written back into it and returned."""
    n_x, n_y = _cardinalities(obj.n_x, obj.n_y)
    object.__setattr__(obj, "n_x", n_x)
    object.__setattr__(obj, "n_y", n_y)
    return n_x, n_y


def _is_digits(text: str) -> bool:
    """ASCII ``0-9`` only: ``str.isdigit`` also accepts ``"²"`` and
    ``"١"``, and ``int`` also ``" 0"``, ``"+0"`` and ``"1_0"``."""
    return text.isascii() and text.isdigit()


# Text is refused unparsed past this length or decimal exponent:
# ``Fraction("1e10000000")`` builds a ten-million-digit integer.
MAX_RATIONAL_CHARS = 1000
MAX_RATIONAL_EXPONENT = 1000


def _as_fraction(value) -> Fraction:
    """The one conversion of a caller's number to a ``Fraction``: whatever
    ``Fraction(value)`` takes (a ``numbers.Rational``, ``float``, ``Decimal``
    or ``str``), text bounded as above; else :class:`ValidationError`."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Decimal):
        value = str(value)
    try:
        if isinstance(value, str):
            if len(value) > MAX_RATIONAL_CHARS:
                raise ValidationError(
                    f"cannot interpret text of {len(value)} characters as an exact "
                    f"rational: the limit is {MAX_RATIONAL_CHARS} characters"
                )
            exponent = value.lower().partition("e")[2]  # no int: no rational
            if exponent and abs(int(exponent)) > MAX_RATIONAL_EXPONENT:
                raise ValidationError(
                    f"cannot interpret {reprlib.repr(value)} as an exact rational: "
                    f"its exponent is beyond +-{MAX_RATIONAL_EXPONENT}"
                )
        elif not isinstance(value, (numbers.Rational, float)):
            raise TypeError(value)
        return Fraction(value)
    except (ValueError, TypeError, OverflowError, ZeroDivisionError) as exc:
        # a container is named by its type: its repr may hold a huge int
        plain = isinstance(value, (str, float, type(None)))
        shown = reprlib.repr(value) if plain else f"a {type(value).__name__}"
        raise ValidationError(f"cannot interpret {shown} as an exact rational") from exc


@dataclass(frozen=True)
class FunctionTable:
    """One deterministic map f: {0..n_x-1} -> {0..n_y-1}.

    ``outputs[i]`` is f(i).  Tables are immutable and hashable so they can
    key probability maps.  The hash, ``hash((n_x, n_y, outputs))`` as a
    frozen dataclass would compute it on every lookup, is computed once,
    and so is ``index``; neither is a field.
    """

    # slots instead of a __dict__ per table: with its hash and index kept,
    # a table takes about the memory it took without them
    __slots__ = ("n_x", "n_y", "outputs", "_hash", "_index")

    n_x: int
    n_y: int
    outputs: tuple[int, ...]

    def __post_init__(self):
        _set_cardinalities(self)
        try:
            outputs = tuple(map(operator.index, self.outputs))
        except TypeError as exc:
            raise ValidationError(f"table entries must be integers: {exc}") from exc
        object.__setattr__(self, "outputs", outputs)
        if len(self.outputs) != self.n_x:
            raise ValidationError(
                f"outputs has {len(self.outputs)} entries, expected n_x={self.n_x}"
            )
        for i, y in enumerate(self.outputs):
            if not 0 <= y < self.n_y:
                raise ValidationError(
                    f"outputs[{i}]={_describe_int(y)} outside range [0, {self.n_y})"
                )
        object.__setattr__(self, "_hash", hash((self.n_x, self.n_y, outputs)))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # frozen slots take no state through setattr: rebuild the table
        return type(self), (self.n_x, self.n_y, self.outputs)

    def __call__(self, x: int) -> int:
        return self.outputs[_as_index(x, "input", self.n_x)]

    @property
    def index(self) -> int:
        """Canonical index: the integer whose base-n_y digits are the
        outputs, most significant digit first (= f(0)); computed on the
        first read and kept."""
        try:
            return self._index
        except AttributeError:
            index = _digits_value(self.outputs, self.n_y)
            object.__setattr__(self, "_index", index)
            return index

    @classmethod
    def from_index(cls, n_x: int, n_y: int, index: int) -> "FunctionTable":
        n_x, n_y = _cardinalities(n_x, n_y)
        _check_size(f"{_describe_int(n_x)} table outputs", n_x)
        index = _as_index(index, "index")
        if not 0 <= index or not _power_exceeds(n_y, n_x, index):
            raise DomainError(
                f"index {_describe_int(index)} outside range "
                f"[0, {_describe_count(n_y, n_x)})"
            )
        return cls(n_x, n_y, tuple(_value_digits(index, n_y, n_x)))

    @classmethod
    def identity(cls, n: int) -> "FunctionTable":
        return cls(n, n, tuple(range(n)))

    @classmethod
    def constant(cls, n_x: int, n_y: int, y: int) -> "FunctionTable":
        return cls(n_x, n_y, (y,) * n_x)

    @classmethod
    def flip(cls) -> "FunctionTable":
        """The binary bit-flip map x -> 1 - x."""
        return cls(2, 2, (1, 0))

    def __repr__(self) -> str:
        return f"FunctionTable({self.n_x}->{_describe_int(self.n_y)}, {_outputs(self)})"


# Up to this many digits an index is converted one digit at a time.  Each
# step of that loop works on the whole integer, so the loop is quadratic in
# the digits; longer tables are split at a power of n_y instead, and a few
# big-integer products and divisions do the work of the steps.
_DIGIT_LOOP = 64


def _digits_value(digits: Sequence[int], base: int) -> int:
    """The integer whose base-``base`` digits are ``digits``, most
    significant first."""
    if len(digits) > _DIGIT_LOOP:
        low = len(digits) // 2
        high = _digits_value(digits[:-low], base)
        return high * base**low + _digits_value(digits[-low:], base)
    value = 0
    for digit in digits:
        value = value * base + digit
    return value


def _value_digits(value: int, base: int, count: int) -> list[int]:
    """The ``count`` base-``base`` digits of ``value`` (below
    ``base**count``), most significant first."""
    if count > _DIGIT_LOOP:
        low = count // 2
        high, value = divmod(value, base**low)
        return _value_digits(high, base, count - low) + _value_digits(value, base, low)
    digits = [0] * count
    for i in range(count - 1, -1, -1):
        value, digits[i] = divmod(value, base)
    return digits


def _outputs(table: FunctionTable) -> str:
    """``str(list(table.outputs))``, each output through :func:`_describe_int`."""
    return f"[{', '.join(map(_describe_int, table.outputs))}]"


def enumerate_functions(n_x: int, n_y: int) -> list[FunctionTable]:
    """All n_y**n_x tables, exactly once, in lexicographic output order.

    Lexicographic order coincides with canonical-index order.  Raises
    :class:`EnumerationCapError` if the count would exceed the cap.
    """
    n_x, n_y = _cardinalities(n_x, n_y)
    _check_size(f"{_describe_power(n_y, n_x)} function tables", n_y, n_x)
    return [
        FunctionTable(n_x, n_y, outs)
        for outs in itertools.product(range(n_y), repeat=n_x)
    ]


def _event_row(n_x: int, n_y: int, pairs) -> tuple[int, ...]:
    """Entry k (an ``int``) is 1 if f_k(x) = y for every (x, y) in
    ``pairs``, checked ``int`` arguments in range, and 0 otherwise; f_k(x)
    is digit x of k in base n_y, most significant first, and no table is
    built.  From the last input outward, a free input repeats the row n_y
    times and f(x) = y puts it at block y of n_y blocks, the others zero;
    an input given two outputs gives the all-zero row."""
    fixed: dict[int, int] = {}
    for x, y in pairs:
        if fixed.setdefault(x, y) != y:
            return (0,) * n_y**n_x
    row = (1,)
    for x in range(n_x - 1, -1, -1):
        y = fixed.get(x)
        if y is None:
            row *= n_y
        else:
            zeros = (0,) * len(row)
            row = zeros * y + row + zeros * (n_y - 1 - y)
    return row


def _as_table(n_x: int, n_y: int, table) -> FunctionTable:
    """``table``, built from its outputs if need be, checked to be n_x -> n_y."""
    if not isinstance(table, FunctionTable):
        table = FunctionTable(n_x, n_y, tuple(table))
    if table.n_x != n_x or table.n_y != n_y:
        raise ValidationError(
            f"table {table} does not match cardinalities ({n_x}, {n_y})"
        )
    return table


def _checked_weights(
    weights: Mapping, what: str, canonical, order
) -> tuple[dict, tuple[int, ...], int]:
    """``{canonical(key): weight}`` from a mapping, zero weights dropped,
    keys sorted by ``order``, plus the same weights as integers over one
    denominator: ``(weights, nums, den)``, ``nums`` in key order and ``den``
    the lcm of the weights' denominators.  Raises unless ``weights`` is a
    mapping, every weight is a nonnegative rational, no key comes twice and
    the ``what`` sum to exactly 1."""
    if not isinstance(weights, Mapping):
        raise ValidationError(
            f"{what} must be a mapping, got a {type(weights).__name__}"
        )
    cleaned = {}
    for key, w in weights.items():
        key = canonical(key)
        w = _as_fraction(w)
        if w < 0:
            raise ValidationError(
                f"weight of {key} is negative: {_describe_rational(w)}"
            )
        if key in cleaned:
            raise ValidationError(f"duplicate weight entry for {key}")
        cleaned[key] = w
    den = lcm(*(w.denominator for w in cleaned.values()))
    kept = sorted(
        ((key, w) for key, w in cleaned.items() if w), key=lambda kv: order(kv[0])
    )
    nums = tuple(w.numerator * (den // w.denominator) for _, w in kept)
    total = sum(nums)
    if total != den:
        raise ValidationError(
            f"{what} sum to {_describe_rational(Fraction(total, den))}, "
            "expected exactly 1"
        )
    return dict(kept), nums, den


def _set_weights(obj, name: str, checked: tuple[dict, tuple[int, ...], int]) -> None:
    """Write :func:`_checked_weights`' result into a frozen dataclass:
    the mapping as ``name``, the integers as ``_nums`` over ``_den``."""
    weights, nums, den = checked
    object.__setattr__(obj, name, weights)
    object.__setattr__(obj, "_nums", nums)
    object.__setattr__(obj, "_den", den)


def _built(cls, **values):
    """A frozen dataclass ``cls`` whose fields, every one of them, are set
    to ``values``, built without ``__post_init__``: the one unchecked
    constructor, for objects the package made itself from values its
    checks would keep as they are.  :func:`_trusted` builds distributions
    through it, and ``identify`` its constraint systems and targets."""
    obj = object.__new__(cls)
    # a frozen dataclass without slots keeps its fields in its __dict__
    vars(obj).update(values)
    return obj


def _trusted(cls, name: str, items: Iterable[tuple], den: int, **values):
    """A ``cls`` whose weights ``name`` are ``{key: num / den}`` over
    ``items``, built by :func:`_built`: the package's own constructors
    only, whose keys are distinct, canonical and in canonical order, whose
    numerators are nonnegative ``int``s summing to ``den``, and whose other
    field ``values`` are checked.  Zero numerators are dropped and the rest
    divided by their gcd with ``den``, so ``weights``, ``_nums`` and
    ``_den`` are what :func:`_checked_weights` would give."""
    kept = [(key, num) for key, num in items if num]
    divisor = gcd(den, *(num for _, num in kept))
    nums = tuple(num // divisor for _, num in kept)
    den //= divisor
    weights = {key: Fraction(num, den) for (key, _), num in zip(kept, nums)}
    return _built(cls, **values, **{name: weights, "_nums": nums, "_den": den})


#: Item types of a distribution's output store, smallest first: signed, so
#: that each mixes with int64, and the same C types in numpy's dtype codes.
_STORE_TYPES = "bhiq"


@dataclass(frozen=True)
class FunctionDistribution:
    """An exact probability distribution over function tables.

    The central unknown of the whole library: every observational,
    interventional and counterfactual quantity is a functional of it.

    ``weights`` keeps no zero weight and lists the tables in canonical
    index order; ``_nums`` holds the same weights, in the same order, as
    integers over the one denominator ``_den``, so a linear functional is
    a sum of ``int``s with one ``Fraction`` built at the end.  The tables'
    outputs, in the same order, are one flat store, built on first use
    (:meth:`_output_store`).
    """

    n_x: int
    n_y: int
    weights: Mapping[FunctionTable, Fraction]
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        n_x, n_y = _set_cardinalities(self)
        _set_weights(self, "weights", _checked_weights(
            self.weights, "weights", partial(_as_table, n_x, n_y),
            operator.attrgetter("index"),
        ))

    @classmethod
    def point_mass(cls, table: FunctionTable) -> "FunctionDistribution":
        return cls(table.n_x, table.n_y, {table: Fraction(1)})

    @classmethod
    def from_vector(
        cls, n_x: int, n_y: int, vector: Sequence
    ) -> "FunctionDistribution":
        """Weight ``vector[k]`` on the table of canonical index k, for all k."""
        n_x, n_y = _cardinalities(n_x, n_y)
        if not _is_power(len(vector), n_y, n_x):
            raise ValidationError(
                f"vector has {len(vector)} entries, "
                f"expected {_describe_power(n_y, n_x)}"
            )
        entries = [(k, w) for k, w in enumerate(vector) if w]
        if entries:
            _check_size(f"{_describe_int(n_x)} table outputs", n_x)
        # every k is below the checked length, so from_index's checks hold
        return cls(n_x, n_y, {
            FunctionTable(n_x, n_y, tuple(_value_digits(k, n_y, n_x))): w
            for k, w in entries
        })

    @classmethod
    def uniform(cls, n_x: int, n_y: int) -> "FunctionDistribution":
        n_x, n_y = _cardinalities(n_x, n_y)
        tables = enumerate_functions(n_x, n_y)  # in canonical order
        items = zip(tables, itertools.repeat(1))
        return _trusted(cls, "weights", items, len(tables), n_x=n_x, n_y=n_y)

    @classmethod
    def uniform_over(
        cls, tables: Iterable[FunctionTable]
    ) -> "FunctionDistribution":
        tables = list(tables)
        if not tables:
            raise ValidationError("cannot build a distribution over no tables")
        w = Fraction(1, len(tables))
        return cls(tables[0].n_x, tables[0].n_y, {t: w for t in tables})

    def probability(self, table: FunctionTable) -> Fraction:
        return self.weights.get(table, Fraction(0))

    def support(self) -> tuple[FunctionTable, ...]:
        return tuple(self.weights.keys())

    def _output_store(self) -> array:
        """Every support table's outputs, row-major in ``weights`` order
        (entry ``k * n_x + x`` is f_k(x)), as one ``array`` of the smallest
        item in ``_STORE_TYPES`` that holds n_y - 1.  Built on the first
        call and kept: concurrent first calls build equal stores, and every
        caller gets the one kept.  Raises :class:`DomainError` when n_y is
        beyond 2^63, past every item."""
        store = self.__dict__.get("_store")
        if store is None:
            bits = (self.n_y - 1).bit_length()
            code = next((c for c in _STORE_TYPES if bits < 8 * array(c).itemsize), None)
            if code is None:
                raise DomainError(
                    f"n_y = {_describe_int(self.n_y)} is beyond 2^63, the most "
                    "outputs a table store holds"
                )
            outputs = itertools.chain.from_iterable(t.outputs for t in self.weights)
            store = self.__dict__.setdefault("_store", array(code, outputs))
        return store

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{_outputs(t)}: {_describe_rational(w)}" for t, w in self.weights.items()
        )
        n_y = _describe_int(self.n_y)
        return f"FunctionDistribution({self.n_x}->{n_y}, {{{parts}}})"


@dataclass(frozen=True)
class CounterfactualQuery:
    """A joint counterfactual event: Y would be y_i under input x_i, jointly
    over all listed pairs.  Antecedents must be pairwise distinct."""

    pairs: tuple[tuple[int, int], ...]

    def __post_init__(self):
        try:
            pairs = tuple((operator.index(x), operator.index(y)) for x, y in self.pairs)
        except (TypeError, ValueError) as exc:  # ValueError: not a pair
            raise ContractViolationError(
                f"pairs must be two integers each: {exc}"
            ) from exc
        object.__setattr__(self, "pairs", pairs)
        if not pairs:
            raise ContractViolationError("query needs at least one (x, y) pair")
        xs = [x for x, _ in pairs]
        if len(set(xs)) != len(xs):
            raise ContractViolationError(
                "antecedents must be pairwise distinct, got "
                f"[{', '.join(map(_describe_int, xs))}]"
            )

    @classmethod
    def from_string(cls, text: str) -> "CounterfactualQuery":
        """Parse the CLI syntax ``"x:y,x':y'"``; each side is ASCII ``0-9``
        after stripping whitespace."""
        pairs = []
        for chunk in text.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            sides = [side.strip() for side in chunk.split(":")]
            if len(sides) != 2 or not all(map(_is_digits, sides)):
                raise ContractViolationError(
                    f"malformed target pair {chunk!r}, expected 'x:y' in digits 0-9"
                )
            try:
                pairs.append((int(sides[0]), int(sides[1])))
            except ValueError:  # more digits than int() converts
                raise ContractViolationError(
                    f"target pair side of {max(map(len, sides))} digits, too many"
                ) from None
        return cls(tuple(pairs))

    def validate_for(self, n_x: int, n_y: int) -> None:
        n_x, n_y = _cardinalities(n_x, n_y)
        for x, y in self.pairs:
            _as_index(x, "antecedent", n_x)
            _as_index(y, "outcome", n_y)

    def __repr__(self) -> str:
        pairs = ", ".join(
            f"({_describe_int(x)}, {_describe_int(y)})" for x, y in self.pairs
        )
        comma = "," if len(self.pairs) == 1 else ""
        return f"CounterfactualQuery(pairs=({pairs}{comma}))"


@dataclass(frozen=True)
class Evidence:
    """A single observed run: X was seen to be x_obs and Y to be y_obs."""

    x_obs: int
    y_obs: int

    def __post_init__(self):
        object.__setattr__(self, "x_obs", _as_index(self.x_obs, "observed input"))
        object.__setattr__(self, "y_obs", _as_index(self.y_obs, "observed output"))

    def __repr__(self) -> str:
        x_obs, y_obs = _describe_int(self.x_obs), _describe_int(self.y_obs)
        return f"Evidence(x_obs={x_obs}, y_obs={y_obs})"


def conditional(pF: FunctionDistribution, x: int) -> tuple[Fraction, ...]:
    """p(Y=y | X=x) for every y, as an exact probability vector.

    With no confounder this is simultaneously the observational
    conditional, the do-conditional, and the one-way counterfactual
    p(Y_x = y).  Raises :class:`EnumerationCapError` when n_y, the length
    of the vector, exceeds the cap.
    """
    x = _as_index(x, "input", pF.n_x)
    _check_size(f"{_describe_int(pF.n_y)} conditional probabilities", pF.n_y)
    nums = [0] * pF.n_y
    for table, num in zip(pF.weights, pF._nums):
        nums[table.outputs[x]] += num
    return tuple(Fraction(num, pF._den) for num in nums)


def joint_counterfactual(
    pF: FunctionDistribution, query: CounterfactualQuery
) -> Fraction:
    """Probability that f maps every queried x_i to its y_i simultaneously."""
    query.validate_for(pF.n_x, pF.n_y)
    pairs = query.pairs
    hits = zip(pF.weights, pF._nums)
    return Fraction(
        sum(num for t, num in hits if all(t.outputs[x] == y for x, y in pairs)),
        pF._den,
    )


def conditional_counterfactual(
    pF: FunctionDistribution, evidence: Evidence, x_cf: int, y_cf: int
) -> Fraction:
    """p(Y would be y_cf under do(X=x_cf) | observed X=x_obs, Y=y_obs).

    The ratio of the two-way joint over the evidence conditional.  When
    the counterfactual input equals the observed one the answer is the
    degenerate indicator of y_cf == y_obs.
    """
    # the evidence must lie in pF's ranges
    _as_index(evidence.x_obs, "observed input", pF.n_x)
    _as_index(evidence.y_obs, "observed output", pF.n_y)
    x_cf = _as_index(x_cf, "counterfactual input", pF.n_x)
    y_cf = _as_index(y_cf, "counterfactual output", pF.n_y)
    denom = conditional(pF, evidence.x_obs)[evidence.y_obs]
    if denom == 0:
        raise UndefinedConditionalError(
            f"evidence (X={evidence.x_obs}, Y={evidence.y_obs}) has probability zero"
        )
    if x_cf == evidence.x_obs:
        return Fraction(1 if y_cf == evidence.y_obs else 0)
    num = joint_counterfactual(
        pF,
        CounterfactualQuery(((evidence.x_obs, evidence.y_obs), (x_cf, y_cf))),
    )
    return num / denom


@dataclass(frozen=True)
class ConfoundedModel:
    """A joint distribution over (input setting, response table).

    Statistical dependence between the two coordinates models an
    unobserved common cause of X and Y.  Interventions on X sever it.
    """

    n_x: int
    n_y: int
    joint_weights: Mapping[tuple[int, FunctionTable], Fraction]
    # the joint weights over one denominator, as on FunctionDistribution
    _nums: tuple[int, ...] = field(init=False, repr=False, compare=False)
    _den: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set_cardinalities(self)
        _set_weights(self, "joint_weights", _checked_weights(
            self.joint_weights, "joint weights", self._key,
            lambda key: (key[0], key[1].index),
        ))

    def _key(self, key) -> tuple[int, FunctionTable]:
        """A joint key ``(r_x, table)``, checked and made canonical."""
        try:
            r_x, table = key
            r_x = operator.index(r_x)
        except (TypeError, ValueError) as exc:  # ValueError: not a pair
            raise ValidationError(
                "joint keys must be (input setting, table) pairs, settings "
                f"integers: {exc}"
            ) from exc
        if not 0 <= r_x < self.n_x:
            raise ValidationError(f"input setting {_describe_int(r_x)} out of range")
        return r_x, _as_table(self.n_x, self.n_y, table)

    def response_marginal(self) -> FunctionDistribution:
        """Marginalize out the input setting."""
        nums: dict[FunctionTable, int] = {}
        for (_, table), num in zip(self.joint_weights, self._nums):
            nums[table] = nums.get(table, 0) + num
        items = sorted(nums.items(), key=lambda item: item[0].index)
        return _trusted(FunctionDistribution, "weights", items, self._den,
                        n_x=self.n_x, n_y=self.n_y)

    def __repr__(self) -> str:
        parts = ", ".join(
            f"({r_x}, {_outputs(t)}): {_describe_rational(w)}"
            for (r_x, t), w in self.joint_weights.items()
        )
        n_y = _describe_int(self.n_y)
        return f"ConfoundedModel({self.n_x}->{n_y}, {{{parts}}})"
