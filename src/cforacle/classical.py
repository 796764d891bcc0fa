"""Classical oracle simulation: x -> (x, f(x)) with a fresh table draw
per query.

Each query samples its own table independently, so any number of queries
reveals at most the per-input output frequencies.  Sampling uses a
counter-based generator (Philox) and exact integer thresholds: the
cumulative table probabilities are floored onto a 64-bit grid and
compared against raw uniform 64-bit draws, so the per-atom sampling bias
is below 2**-64.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .core import FunctionDistribution
from .errors import DomainError, ValidationError

_SCALE = 1 << 64

#: Rows per chunk, both for :meth:`SampleLog.csv_chunks` (one rendered
#: string per chunk) and for the draws of :func:`estimate_conditionals`:
#: scratch memory stays at one chunk however many queries there are.
_CHUNK_ROWS = 1 << 16

_CSV_HEADER = "x_in,x_out,y_out,query_index\n"


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator for a seed in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class ClassicalQueryRecord:
    """One oracle round trip, as :func:`query` returns it.  x_out always
    equals x_in; the only payload is y_out = f(x_in)."""

    x_in: int
    x_out: int
    y_out: int


@dataclass(eq=False)
class SampleLog:
    """Oracle queries in order, reproducible from the seed: query i sent
    ``x_in[i]`` and read ``y_out[i]``.  The CSV's ``x_out`` repeats ``x_in``."""

    x_in: np.ndarray
    y_out: np.ndarray
    seed: int = 0

    def csv_chunks(self) -> Iterator[str]:
        """The CSV as the header, then one string per ``_CHUNK_ROWS`` rows."""
        yield _CSV_HEADER
        for start in range(0, len(self.x_in), _CHUNK_ROWS):
            stop = min(start + _CHUNK_ROWS, len(self.x_in))
            comma = _separator(",", stop - start)
            x = _digits(self.x_in[start:stop])
            y = _digits(self.y_out[start:stop])
            index = _digits(np.arange(start, stop))
            parts = (x, comma, x, comma, y, comma, index, _separator("\n", stop - start))
            chars, keep = (np.hstack(column) for column in zip(*parts))
            yield chars[keep].tobytes().decode("ascii")

    def to_csv(self) -> str:
        return "".join(self.csv_chunks())


def _separator(char: str, rows: int) -> tuple[np.ndarray, np.ndarray]:
    """A one-character column, kept on every row."""
    return np.full((rows, 1), ord(char), dtype=np.uint8), np.ones((rows, 1), dtype=bool)


def _digits(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nonnegative integers as a fixed-width matrix of ASCII digits, most
    significant first, and the mask that drops leading zeros (a lone 0
    keeps its last digit)."""
    rest = values.astype(np.int64, copy=False)
    width = len(str(int(rest.max(initial=0))))
    digits = np.empty((len(rest), width), dtype=np.uint8)
    keep = np.empty((len(rest), width), dtype=bool)
    for j in range(width - 1, -1, -1):
        keep[:, j] = rest > 0
        rest, digits[:, j] = np.divmod(rest, 10)
    digits += ord("0")
    keep[:, -1] = True
    return digits, keep


class TableSampler:
    """Draws tables from a distribution via integer inverse-CDF lookup.

    Thresholds are ``floor(cumulative * 2**64)`` computed exactly from the
    rational weights; a raw uint64 draw then indexes the support with
    ``searchsorted``.
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

    def draw_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = rng.integers(0, _SCALE, size=size, dtype=np.uint64)
        return np.searchsorted(self._cuts, draws, side="right")

    def draw_outputs(self, rng: np.random.Generator, x_in: np.ndarray) -> np.ndarray:
        """f(x_in[i]) with a fresh table drawn for every query i."""
        return self.outputs[self.draw_indices(rng, len(x_in)), x_in]


def query(
    pF: FunctionDistribution, x: int, rng: np.random.Generator
) -> ClassicalQueryRecord:
    """One oracle query at input x with a fresh table draw."""
    if not 0 <= x < pF.n_x:
        raise DomainError(f"input {x} outside range [0, {pF.n_x})")
    y_out = TableSampler(pF).draw_outputs(rng, np.array([x]))
    return ClassicalQueryRecord(x, x, int(y_out[0]))


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
    if queries_per_x < 1:
        raise DomainError("queries_per_x must be at least 1")
    sampler = TableSampler(pF)
    rng = make_rng(seed)
    counts = np.zeros((pF.n_x, pF.n_y), dtype=np.int64)
    for x in range(pF.n_x):
        # the full-range uint64 stream is the same however it is split
        for start in range(0, queries_per_x, _CHUNK_ROWS):
            size = min(_CHUNK_ROWS, queries_per_x - start)
            indices = sampler.draw_indices(rng, size)
            counts[x] += np.bincount(sampler.outputs[indices, x], minlength=pF.n_y)
    p_hat = counts / float(queries_per_x)
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / queries_per_x)
    return ConditionalEstimates(counts, p_hat, std_err, queries_per_x, seed)
