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

import csv
import io
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .core import FunctionDistribution
from .errors import DomainError, ValidationError

_SCALE = 1 << 64


def make_rng(seed: int) -> np.random.Generator:
    """Counter-based deterministic generator for a seed in [0, 2**128)."""
    if not 0 <= seed < 2**128:
        raise ValidationError(f"seed must lie in [0, 2**128), got {seed}")
    return np.random.Generator(np.random.Philox(key=seed))


@dataclass(frozen=True)
class ClassicalQueryRecord:
    """One oracle round trip.  The oracle copies its input, so
    x_out always equals x_in; the only payload is y_out = f(x_in)."""

    x_in: int
    x_out: int
    y_out: int


@dataclass
class SampleLog:
    """An ordered record of oracle queries, reproducible from the seed."""

    records: list[ClassicalQueryRecord] = field(default_factory=list)
    seed: int = 0

    def to_csv(self) -> str:
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(["x_in", "x_out", "y_out", "query_index"])
        for i, record in enumerate(self.records):
            writer.writerow([record.x_in, record.x_out, record.y_out, i])
        return buffer.getvalue()


class TableSampler:
    """Draws tables from a distribution via integer inverse-CDF lookup.

    Thresholds are ``floor(cumulative * 2**64)`` computed exactly from the
    rational weights; a raw uint64 draw then indexes the support with
    ``searchsorted``.
    """

    def __init__(self, pF: FunctionDistribution):
        self.pF = pF
        self.tables = list(pF.support())
        cumulative = Fraction(0)
        thresholds = []
        for table in self.tables:
            cumulative += pF.weights[table]
            thresholds.append(
                (cumulative.numerator << 64) // cumulative.denominator
            )
        # the final threshold is 2**64 and can never be reached by a draw,
        # so it is dropped; searchsorted then lands in [0, len(support))
        self._cuts = np.array(thresholds[:-1], dtype=np.uint64)
        # outputs[k, x] = f_k(x), for vectorized output lookup
        self.outputs = np.array(
            [t.outputs for t in self.tables], dtype=np.int64
        )

    def draw_indices(self, rng: np.random.Generator, size: int) -> np.ndarray:
        draws = rng.integers(0, _SCALE, size=size, dtype=np.uint64)
        return np.searchsorted(self._cuts, draws, side="right")

    def draw(self, rng: np.random.Generator):
        return self.tables[int(self.draw_indices(rng, 1)[0])]


def query(
    pF: FunctionDistribution, x: int, rng: np.random.Generator
) -> ClassicalQueryRecord:
    """One oracle query at input x with a fresh table draw."""
    if not 0 <= x < pF.n_x:
        raise DomainError(f"input {x} outside range [0, {pF.n_x})")
    table = TableSampler(pF).draw(rng)
    return ClassicalQueryRecord(x, x, table.outputs[x])


def simulate_log(
    pF: FunctionDistribution, inputs: list[int], seed: int
) -> SampleLog:
    """Run the oracle over a fixed input sequence; fully seed-determined."""
    sampler = TableSampler(pF)
    rng = make_rng(seed)
    for x in inputs:
        if not 0 <= x < pF.n_x:
            raise DomainError(f"input {x} outside range [0, {pF.n_x})")
    indices = sampler.draw_indices(rng, len(inputs))
    records = [
        ClassicalQueryRecord(x, x, int(sampler.outputs[k, x]))
        for x, k in zip(inputs, indices)
    ]
    return SampleLog(records, seed)


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
        indices = sampler.draw_indices(rng, queries_per_x)
        ys = sampler.outputs[indices, x]
        counts[x] = np.bincount(ys, minlength=pF.n_y)
    p_hat = counts / float(queries_per_x)
    std_err = np.sqrt(p_hat * (1.0 - p_hat) / queries_per_x)
    return ConditionalEstimates(counts, p_hat, std_err, queries_per_x, seed)
