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

Draws and the CSV are both made one ``_CHUNK_ROWS`` chunk at a time, on
the calling thread, each chunk drawn and then looked up, so the stream
is the serial one.  A chunk's CSV is one byte matrix per run of rows whose
``query_index`` has one width: its low four digits are a slice of a
tiled digit table, the digits above them are constant over each block
of 10**4 rows, and one-digit x and y are written as
``value + ord("0")``.  No padding is masked out unless an x or y field
mixes widths (ten or more inputs or outputs).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .core import MAX_QUERIES, FunctionDistribution, _as_index, _check_size, _describe_int
from .errors import DomainError, ValidationError

_SCALE = 1 << 64

#: A draw's top bits pick its bucket in :class:`TableSampler`'s lookup table.
_BUCKET_BITS = 12
_BUCKET_SHIFT = np.uint64(64 - _BUCKET_BITS)

#: Rows per chunk, for :meth:`SampleLog.csv_chunks` (one rendered string
#: per chunk), :meth:`TableSampler.draw_outputs` and the draws of
#: :func:`estimate_conditionals`: every temporary of the draws and of the
#: rendering is one chunk long, small enough to stay in cache, however
#: many queries there are.
_CHUNK_ROWS = 1 << 16

_CSV_HEADER = "x_in,x_out,y_out,query_index\n"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator for a seed in [0, 2**128)."""
    seed = _as_index(seed, "seed")
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {_describe_int(seed)}")
    return np.random.Generator(np.random.Philox(key=seed))


def _chunk_sizes(total: int) -> list[int]:
    """``total`` rows split into ``_CHUNK_ROWS`` chunks, the last one short."""
    return [min(_CHUNK_ROWS, total - start) for start in range(0, total, _CHUNK_ROWS)]


@dataclass(eq=False)
class SampleLog:
    """Oracle queries in order, reproducible from the seed: query i sent
    ``x_in[i]`` and read ``y_out[i]``.  The CSV's ``x_out`` repeats ``x_in``."""

    x_in: np.ndarray
    y_out: np.ndarray

    def csv_chunks(self) -> Iterator[str]:
        """The CSV as the header, then one string per ``_CHUNK_ROWS`` rows."""
        yield _CSV_HEADER
        for start in range(0, len(self.x_in), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(self.x_in))
            yield _csv_rows(self.x_in[start:stop], self.y_out[start:stop], start)

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


def _csv_rows(x: np.ndarray, y: np.ndarray, first: int) -> str:
    """The CSV rows ``x[i],x[i],y[i],first + i``: one byte matrix per run
    of rows whose query indices have one width, split at powers of ten."""
    runs = []
    start = 0
    while start < len(x):
        width = len(str(first + start))
        stop = min(len(x), 10**width - first)
        runs.append(_csv_run(x[start:stop], y[start:stop], first + start, width))
        start = stop
    return "".join(runs)


def _csv_run(x: np.ndarray, y: np.ndarray, first: int, width: int) -> str:
    """The rows of :func:`_csv_rows` for query indices ``first, first + 1,
    ...``, all ``width`` digits long.  A mask drops leading zeros only in
    an x or y field whose values have more than one width."""
    rows = len(x)
    x_width, y_width = (len(str(int(values.max()))) for values in (x, y))
    y_col = 2 * x_width + 2
    index_col = y_col + y_width + 1
    chars = np.empty((rows, index_col + width + 1), dtype=np.uint8)
    keep = None
    for values, col, field_width in ((x, 0, x_width), (y, y_col, y_width)):
        if field_width == 1:
            np.add(values, ord("0"), out=chars[:, col], casting="unsafe")
            continue
        if keep is None and int(values.min()) < 10 ** (field_width - 1):
            keep = np.ones(chars.shape, dtype=bool)
        _put_digits(chars, keep, col, values, field_width)
    # one byte column at a time: a 2-D slice, a broadcast row or a 2-byte
    # item written down a column of odd stride is two to ten times slower
    for col in range(x_width):
        chars[:, x_width + 1 + col] = chars[:, col]
    if keep is not None:
        keep[:, x_width + 1 : y_col - 1] = keep[:, :x_width]
    for col in (x_width, y_col - 1, index_col - 1):
        chars[:, col] = ord(",")
    chars[:, -1] = ord("\n")
    if width < 4:  # the first 1000 rows of a log
        _put_digits(chars, None, index_col, np.arange(first, first + rows), width)
    else:
        # the low four digits are a slice of the tiled table; the digits
        # above them are constant over each aligned block of 10**4 indices
        offset = first % 10**4
        low = chars[:, index_col + width - 4 : index_col + width]
        low.view(np.uint32)[:, 0] = _digit_quads()[offset : offset + rows]
        if width > 4:
            for block in range(-offset, rows, 10**4):
                high = str((first + block) // 10**4).encode("ascii")
                for col, digit in enumerate(high, index_col):
                    chars[max(block, 0) : block + 10**4, col] = digit
    return str((chars if keep is None else chars[keep]).data, "ascii")


@functools.cache
def _digit_quads() -> np.ndarray:
    """Entry n is the low four ASCII digits of n, zero-padded, as one 4-byte
    item, for n below ``10**4 + _CHUNK_ROWS``: the 10**4 entries tiled, so
    the low digits of any chunk's query indices are one slice."""
    text = "".join(f"{n:04d}" for n in range(10**4))
    quads = np.frombuffer(text.encode("ascii"), dtype=np.uint32)
    return np.tile(quads, -(-(10**4 + _CHUNK_ROWS) // 10**4))


def _put_digits(
    chars: np.ndarray, keep: np.ndarray | None, col: int, values: np.ndarray, width: int
) -> None:
    """Write nonnegative integers below ``10**width`` into columns
    ``col .. col + width - 1`` of ``chars`` as zero-padded ASCII digits,
    four per table lookup, and clear ``keep`` on the leading zeros (a lone
    0 keeps its last digit); ``keep`` may be None when no value is shorter
    than ``width`` digits."""
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
    looked up with ``searchsorted``.  A distribution whose n_y is beyond
    2^63, so that no int64 holds its outputs, is refused here with
    :class:`DomainError`, before any draw.
    """

    def __init__(self, pF: FunctionDistribution):
        # row k is the outputs of support table k: outputs[k, x] is f_k(x),
        # the distribution's store widened to int64 for the gather
        store = pF._output_store()
        outputs = np.frombuffer(store, dtype=store.typecode)
        self.outputs = outputs.astype(np.int64).reshape(-1, pF.n_x)
        # prefix sums of the weights, as integers over their one denominator
        thresholds = [(s << 64) // pF._den for s in itertools.accumulate(pF._nums)]
        # the final threshold is 2**64 and can never be reached by a draw,
        # so it is dropped; searchsorted then lands in [0, len(outputs))
        self._cuts = np.array(thresholds[:-1], dtype=np.uint64)
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
        """The table indices of the generator's next ``size`` raw uint64
        draws.  Every draw of the classical oracle goes through here, one
        ``_CHUNK_ROWS`` chunk per call; the full-range stream is the same
        however it is split."""
        return self._lookup(rng.integers(0, _SCALE, size=size, dtype=np.uint64))

    def draw_outputs(self, rng: np.random.Generator, x_in: np.ndarray) -> np.ndarray:
        """f(x_in[i]), x_in[i] in [0, n_x), a fresh table drawn per query.

        Drawn, looked up and gathered one ``_CHUNK_ROWS`` chunk at a time."""
        # a flat gather is about twice as fast as the 2-D one
        n_x = self.outputs.shape[1]
        flat = self.outputs.ravel()
        y_out = np.empty(len(x_in), dtype=np.int64)
        start = 0
        for size in _chunk_sizes(len(x_in)):
            stop = start + size
            cells = self.draw_indices(rng, size) * n_x + x_in[start:stop]
            # every cell is in range; "clip" skips the buffered copy
            # that take's default "raise" makes of its output
            np.take(flat, cells, out=y_out[start:stop], mode="clip")
            start = stop
        return y_out


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
    if x_in.size and (x_in.min() < 0 or x_in.max() >= pF.n_x):
        first = x_in[np.flatnonzero((x_in < 0) | (x_in >= pF.n_x))[0]]
        raise DomainError(f"input {first} outside range [0, {pF.n_x})")
    return SampleLog(x_in, sampler.draw_outputs(rng, x_in))


@dataclass
class ConditionalEstimates:
    """Empirical conditional frequencies with binomial standard errors."""

    counts: np.ndarray  # (n_x, n_y) integer counts
    p_hat: np.ndarray  # (n_x, n_y) frequencies
    std_err: np.ndarray  # (n_x, n_y) sqrt(p(1-p)/N)


def estimate_conditionals(
    pF: FunctionDistribution, queries_per_x: int, seed: int
) -> ConditionalEstimates:
    """Query the oracle ``queries_per_x`` times at each input and tabulate
    the observed output frequencies; more than ``MAX_QUERIES`` queries in
    all are refused with :class:`DomainError`."""
    queries_per_x = _as_index(queries_per_x, "queries_per_x")
    if queries_per_x < 1:
        raise DomainError("queries_per_x must be at least 1")
    if pF.n_x * queries_per_x > MAX_QUERIES:
        raise DomainError(
            f"{pF.n_x} inputs x {_describe_int(queries_per_x)} queries each "
            f"exceed the query limit {MAX_QUERIES}"
        )
    sampler = TableSampler(pF)
    shown = f"{pF.n_x} inputs x {_describe_int(pF.n_y)} outputs"
    _check_size(f"output counts of {shown}", pF.n_y, 1, pF.n_x)
    rng = make_rng(seed)
    counts = np.zeros((pF.n_x, pF.n_y), dtype=np.int64)
    # each input's draws in chunks of their own; the full-range uint64
    # stream is the same however it is split
    sizes = _chunk_sizes(queries_per_x)
    for x in range(pF.n_x):
        # draws per table
        tally = np.zeros(len(sampler.outputs), dtype=np.int64)
        for size in sizes:
            tally += np.bincount(sampler.draw_indices(rng, size), minlength=len(tally))
        np.add.at(counts[x], sampler.outputs[:, x], tally)
    p_hat = counts / float(queries_per_x)
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / queries_per_x)
    return ConditionalEstimates(counts, p_hat, std_err)
