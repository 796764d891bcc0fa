"""Classical oracle simulation: x -> (x, f(x)) with a fresh table draw
per query.

Each query samples its own table independently, so any number of queries
reveals at most the per-input output frequencies.  Sampling uses a
counter-based generator (Philox) and exact integer thresholds: the
cumulative table probabilities are floored onto a 64-bit grid and
compared against raw uniform 64-bit draws, so the per-atom sampling bias
is below 2**-64.

A draw's table is found by an indexed search (a guide table, as in
Chen and Asau 1974 and Devroye 1986, III.2), exact on integers: the top
``_BUCKET_BITS`` bits of a draw pick one of 4096 buckets, and a bucket
that no threshold splits holds a single table index, read straight off.
Only draws in a split bucket (at most one bucket per threshold) are
searched, so every draw gets the index a full binary search would give.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import FunctionDistribution, _as_index
from .errors import DomainError, ValidationError

_SCALE = 1 << 64

#: A draw's top bits pick its bucket in :class:`TableSampler`'s lookup table.
_BUCKET_BITS = 12
_BUCKET_SHIFT = np.uint64(64 - _BUCKET_BITS)

#: Rows per chunk, both for :meth:`SampleLog.csv_chunks` (one rendered
#: string per chunk) and for the draws of :func:`estimate_conditionals`:
#: scratch memory stays at one chunk however many queries there are.
_CHUNK_ROWS = 1 << 16

_CSV_HEADER = "x_in,x_out,y_out,query_index\n"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator for a seed in [0, 2**128)."""
    seed = _as_index(seed, "seed")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(eq=False)
class SampleLog:
    """Oracle queries in order, reproducible from the seed: query i sent
    ``x_in[i]`` and read ``y_out[i]``.  The CSV's ``x_out`` repeats ``x_in``."""

    x_in: np.ndarray
    y_out: np.ndarray
    seed: int = 0

    def csv_chunks(self) -> Iterator[str]:
        """The CSV as the header, then one string per ``_CHUNK_ROWS`` rows.

        Each chunk is one ``(rows, width)`` byte matrix with every field
        zero-padded to its widest value in the chunk, and a mask that
        drops the padding."""
        yield _CSV_HEADER
        for start in range(0, len(self.x_in), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(self.x_in))
            x = self.x_in[start:stop]
            fields = (x, x, self.y_out[start:stop], np.arange(start, stop))
            widths = [len(str(int(values.max()))) for values in fields]
            chars = np.empty((stop - start, sum(widths) + len(fields)), dtype=np.uint8)
            keep = np.ones(chars.shape, dtype=bool)
            col = 0
            for values, width in zip(fields, widths):
                _put_digits(chars, keep, col, values, width)
                col += width
                chars[:, col] = ord(",")
                col += 1
            chars[:, -1] = ord("\n")
            if not keep.all():
                chars = chars[keep]
            yield chars.tobytes().decode("ascii")

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


@functools.cache
def _digit_quads() -> np.ndarray:
    """Entry n is the four ASCII digits of n, zero-padded, as one 4-byte item."""
    text = "".join(f"{n:04d}" for n in range(10**4))
    return np.frombuffer(text.encode("ascii"), dtype=np.uint32)


def _put_digits(
    chars: np.ndarray, keep: np.ndarray, col: int, values: np.ndarray, width: int
) -> None:
    """Write nonnegative integers below ``10**width`` into columns
    ``col .. col + width - 1`` of ``chars`` as zero-padded ASCII digits,
    four per table lookup, and clear ``keep`` on the leading zeros (a lone
    0 keeps its last digit)."""
    quads = _digit_quads()
    rest = values
    stop = col + width
    while stop > col:
        n = min(4, stop - col)
        if stop - n > col:
            high = rest // 10**4
            group, rest = rest - high * 10**4, high
        else:
            group = rest
        # n bytes are copied as one n-byte item, not as n strided bytes;
        # numpy copies unsigned items much faster than void ones
        item = "V3" if n == 3 else f"u{n}"
        digits = quads[group].view(np.uint8).reshape(-1, 4)[:, 4 - n :]
        chars[:, stop - n : stop].view(item)[:, 0] = digits.view(item)[:, 0]
        stop -= n
    smallest = int(values.min())
    for j in range(width - 1):
        power = 10 ** (width - 1 - j)
        if smallest < power:
            keep[:, col + j] = values >= power


class TableSampler:
    """Draws tables from a distribution via integer inverse-CDF lookup.

    Thresholds are ``floor(cumulative * 2**64)`` computed exactly from the
    rational weights; a raw uint64 draw's table index is the number of
    thresholds at or below it.  ``_lut`` holds that index for each bucket
    of draws sharing their top ``_BUCKET_BITS`` bits, or -1 where a
    threshold falls inside the bucket; only draws in those buckets are
    looked up with ``searchsorted``.
    """

    def __init__(self, pF: FunctionDistribution):
        support = pF.support()
        cumulative = Fraction(0)
        thresholds = []
        for table in support:
            cumulative += pF.weights[table]
            thresholds.append(
                (cumulative.numerator << 64) // cumulative.denominator
            )
        # the final threshold is 2**64 and can never be reached by a draw,
        # so it is dropped; searchsorted then lands in [0, len(support))
        self._cuts = np.array(thresholds[:-1], dtype=np.uint64)
        # row k is the outputs of support[k]: outputs[k, x] is f_k(x)
        self.outputs = np.array([t.outputs for t in support], dtype=np.int64)
        # the index is nondecreasing in the draw, so a bucket whose first
        # and last draws share an index gives every draw in it that index
        first = np.arange(1 << _BUCKET_BITS, dtype=np.uint64) << _BUCKET_SHIFT
        last = first + np.uint64(2 ** (64 - _BUCKET_BITS) - 1)
        low = np.searchsorted(self._cuts, first, side="right")
        high = np.searchsorted(self._cuts, last, side="right")
        # int32 halves the gather's memory traffic; no support has 2**31 tables
        self._lut = np.where(low == high, low, -1).astype(np.int32)

    def _lookup(self, draws: np.ndarray) -> np.ndarray:
        """``searchsorted(self._cuts, draws, side="right")`` for uint64 draws."""
        # the bucket numbers are below 2**12, so the int64 view is exact
        indices = self._lut[(draws >> _BUCKET_SHIFT).view(np.int64)]
        split = np.flatnonzero(indices < 0)
        indices[split] = np.searchsorted(self._cuts, draws[split], side="right")
        return indices

    def draw_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return self._lookup(rng.integers(0, _SCALE, size=size, dtype=np.uint64))

    def draw_outputs(self, rng: np.random.Generator, x_in: np.ndarray) -> np.ndarray:
        """f(x_in[i]), x_in[i] in [0, n_x), a fresh table drawn per query."""
        # a flat gather is about twice as fast as the 2-D one
        n_x = self.outputs.shape[1]
        return self.outputs.ravel()[self.draw_indices(rng, len(x_in)) * n_x + x_in]


def simulate_log(
    pF: FunctionDistribution, inputs: Sequence[int], seed: int
) -> SampleLog:
    """Run the oracle over a fixed input sequence; fully seed-determined."""
    sampler = TableSampler(pF)
    rng = make_rng(seed)
    x_in = np.asarray(inputs)
    if x_in.ndim != 1 or (x_in.size and x_in.dtype.kind not in "iu"):
        raise DomainError("inputs must be a flat sequence of integers")
    x_in = x_in.astype(np.int64, copy=False)
    bad = x_in[(x_in < 0) | (x_in >= pF.n_x)]
    if bad.size:
        raise DomainError(f"input {bad[0]} outside range [0, {pF.n_x})")
    return SampleLog(x_in, sampler.draw_outputs(rng, x_in), seed)


@dataclass
class ConditionalEstimates:
    """Empirical conditional frequencies with binomial standard errors."""

    counts: np.ndarray  # (n_x, n_y) integer counts
    p_hat: np.ndarray  # (n_x, n_y) frequencies
    std_err: np.ndarray  # (n_x, n_y) sqrt(p(1-p)/N)
    queries_per_x: int
    seed: int


def estimate_conditionals(
    pF: FunctionDistribution, queries_per_x: int, seed: int
) -> ConditionalEstimates:
    """Query the oracle ``queries_per_x`` times at each input and tabulate
    the observed output frequencies."""
    queries_per_x = _as_index(queries_per_x, "queries_per_x")
    if queries_per_x < 1:
        raise DomainError("queries_per_x must be at least 1")
    sampler = TableSampler(pF)
    rng = make_rng(seed)
    counts = np.zeros((pF.n_x, pF.n_y), dtype=np.int64)
    for x in range(pF.n_x):
        # draws per table; the full-range uint64 stream is the same
        # however it is split
        tally = np.zeros(len(sampler.outputs), dtype=np.int64)
        for start in range(0, queries_per_x, _CHUNK_ROWS):
            size = min(_CHUNK_ROWS, queries_per_x - start)
            tally += np.bincount(sampler.draw_indices(rng, size), minlength=len(tally))
        np.add.at(counts[x], sampler.outputs[:, x], tally)
    p_hat = counts / float(queries_per_x)
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / queries_per_x)
    return ConditionalEstimates(counts, p_hat, std_err, queries_per_x, seed)
