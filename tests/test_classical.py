"""Classical oracle sampling: determinism, statistics, log format."""

import csv
import io
import math
import random
import threading
from fractions import Fraction

import numpy as np
import pytest

from cforacle import (
    DomainError,
    EnumerationCapError,
    FunctionDistribution,
    FunctionTable,
    conditional,
    estimate_conditionals,
    make_rng,
    simulate_log,
)
from cforacle import classical
from cforacle.classical import _CHUNK_ROWS, TableSampler, _csv_rows, _put_digits
from cforacle.core import MAX_QUERIES
from cforacle.reproduce import (
    affine_ternary_model,
    mix_identity_flip,
    uniform_ternary_model,
)
from conftest import (
    CONST0,
    CONST1,
    FLIP,
    IDENTITY,
    assert_same_rows,
    binary_distribution,
)
from reference import fraction_cuts, serial_table_indices

F = Fraction


def test_point_mass_flip():
    pf = FunctionDistribution.point_mass(FLIP)
    log = simulate_log(pf, [0], seed=1)
    assert log.to_csv() == "x_in,x_out,y_out,query_index\n0,0,1,0\n"


def test_point_mass_const1_any_input():
    pf = FunctionDistribution.point_mass(CONST1)
    for x in range(2):
        log = simulate_log(pf, [x], seed=9)
        assert (log.x_in.tolist(), log.y_out.tolist()) == ([x], [1])


def test_copy_invariant_and_log_shape():
    pf = FunctionDistribution.uniform(2, 2)
    inputs = [i % 2 for i in range(500)]
    log = simulate_log(pf, inputs, seed=42)
    assert np.array_equal(log.x_in, inputs)
    assert log.y_out.shape == (500,)
    assert np.all((log.y_out >= 0) & (log.y_out < 2))
    rows = [line.split(",") for line in log.to_csv().splitlines()[1:]]
    assert all(x_in == x_out for x_in, x_out, _, _ in rows)


def test_log_determinism():
    pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
    inputs = [i % 2 for i in range(200)]
    first = simulate_log(pf, inputs, seed=7)
    second = simulate_log(pf, inputs, seed=7)
    assert np.array_equal(first.y_out, second.y_out)
    other = simulate_log(pf, inputs, seed=8)
    assert not np.array_equal(first.y_out, other.y_out)


def test_csv_format():
    pf = FunctionDistribution.point_mass(IDENTITY)
    log = simulate_log(pf, [0, 1, 0], seed=3)
    lines = log.to_csv().splitlines()
    assert lines[0] == "x_in,x_out,y_out,query_index"
    assert lines[1] == "0,0,0,0"
    assert lines[2] == "1,1,1,1"
    assert len(lines) == 4


def test_out_of_range_input():
    pf = FunctionDistribution.uniform(2, 2)
    for inputs in ([0, 5], [-1], [0.5], [2**70], [True], [[0, 1]], ["1"]):
        with pytest.raises(DomainError):
            simulate_log(pf, inputs, seed=0)


@pytest.mark.parametrize(
    "inputs, first",
    [([0, 1, 7, -3], "7"), ([1, -3, 7], "-3"), ([2**40, 0], str(2**40))],
)
def test_out_of_range_message_names_the_first_bad_input(inputs, first):
    pf = FunctionDistribution.uniform(2, 2)
    with pytest.raises(DomainError) as raised:
        simulate_log(pf, inputs, seed=0)
    assert str(raised.value) == f"input {first} outside range [0, 2)"


def test_binomial_concentration_on_balanced_mixture():
    # 1e5 draws at x=0 from the identity/flip mixture: p(Y=0) = 1/2
    pf = binary_distribution(0, F(1, 2), F(1, 2), 0)
    log = simulate_log(pf, [0] * 100_000, seed=2024)
    freq = np.count_nonzero(log.y_out == 0) / 100_000
    sigma = math.sqrt(0.25 / 100_000)
    assert abs(freq - 0.5) <= 3 * sigma


def test_estimates_exact_for_deterministic_model():
    pf = FunctionDistribution.point_mass(IDENTITY)
    est = estimate_conditionals(pf, 1000, seed=5)
    assert np.array_equal(est.p_hat, np.eye(2))
    assert np.all(est.std_err == 0)


def test_estimates_concentrate():
    pf = binary_distribution(0, F(1, 2), F(1, 2), 0)
    est = estimate_conditionals(pf, 10_000, seed=99)
    for x in range(2):
        se = max(est.std_err[x, 0], 1e-12)
        assert abs(est.p_hat[x, 0] - 0.5) <= 5 * se


def test_ternary_models_indistinguishable_from_samples():
    # both ternary models produce conditionals near 1/3 everywhere; finite
    # sampling cannot tell them apart
    est_a = estimate_conditionals(uniform_ternary_model(), 10_000, seed=314)
    est_b = estimate_conditionals(affine_ternary_model(), 10_000, seed=314)
    for est in (est_a, est_b):
        for x in range(3):
            for y in range(3):
                se = max(est.std_err[x, y], 1e-12)
                assert abs(est.p_hat[x, y] - 1 / 3) <= 5 * se


def test_estimates_match_exact_conditionals_within_5_se():
    pf = binary_distribution(F(1, 6), F(1, 3), F(1, 4), F(1, 4))
    est = estimate_conditionals(pf, 10_000, seed=123)
    for x in range(2):
        exact = conditional(pf, x)
        for y in range(2):
            se = max(est.std_err[x, y], 1e-12)
            assert abs(est.p_hat[x, y] - float(exact[y])) <= 5 * se


def test_sub_resolution_atom_is_never_drawn():
    # an atom thinner than the 64-bit grid silently gets zero draws; the
    # documented bias is below 2**-64
    tiny = F(1, 2**70)
    pf = FunctionDistribution(
        2, 2, {IDENTITY: tiny, FLIP: 1 - tiny}
    )
    log = simulate_log(pf, [0] * 1000, seed=1)
    assert np.all(log.y_out == 1)


def test_counts_sum_to_queries():
    pf = FunctionDistribution.uniform(3, 3)
    est = estimate_conditionals(pf, 500, seed=8)
    assert est.counts.shape == (3, 3)
    assert np.all(est.counts.sum(axis=1) == 500)


def one_shot_counts(pf, queries_per_x, seed):
    """Reference tally: every input's draws made in one call."""
    sampler = TableSampler(pf)
    rng = make_rng(seed)
    counts = np.zeros((pf.n_x, pf.n_y), dtype=np.int64)
    for x in range(pf.n_x):
        ys = sampler.draw_outputs(rng, np.full(queries_per_x, x))
        counts[x] = np.bincount(ys, minlength=pf.n_y)
    return counts


@pytest.mark.parametrize(
    "queries_per_x",
    [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1],
)
def test_chunked_tally_matches_one_shot_draws(queries_per_x):
    for pf in (mix_identity_flip(), affine_ternary_model()):
        for seed in (0, 31, 2**100):
            est = estimate_conditionals(pf, queries_per_x, seed)
            assert np.array_equal(est.counts, one_shot_counts(pf, queries_per_x, seed))


@pytest.mark.parametrize(
    "rows", [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 2 * _CHUNK_ROWS + 1]
)
def test_chunked_outputs_match_one_gather(rows):
    for pf in (mix_identity_flip(), affine_ternary_model(), LOG_MODELS["12->11"]):
        sampler = TableSampler(pf)
        x_in = np.random.default_rng(rows).integers(0, pf.n_x, rows)
        indices = sampler.draw_indices(make_rng(3), rows)
        outputs = sampler.draw_outputs(make_rng(3), x_in)
        assert outputs.dtype == np.int64
        assert np.array_equal(outputs, sampler.outputs[indices, x_in])


STREAM_SIZES = [1, _CHUNK_ROWS - 1, _CHUNK_ROWS, _CHUNK_ROWS + 1, 3 * _CHUNK_ROWS + 5]
STREAM_SEEDS = [0, 31, 2**100]


def rng_state(rng):
    """The bit generator's state with its arrays as lists, comparable by ``==``."""
    def plain(value):
        if isinstance(value, dict):
            return {key: plain(item) for key, item in value.items()}
        return value.tolist() if isinstance(value, np.ndarray) else value
    return plain(rng.bit_generator.state)


@pytest.mark.parametrize("queries_per_x", STREAM_SIZES)
def test_estimate_counts_match_one_serial_draw(queries_per_x):
    for pf in (mix_identity_flip(), affine_ternary_model()):
        outputs = np.array([t.outputs for t in pf.support()])
        for seed in STREAM_SEEDS:
            indices = serial_table_indices(pf, make_rng(seed), pf.n_x * queries_per_x)
            # input x reads the x-th run of queries_per_x draws
            per_x = indices.reshape(pf.n_x, queries_per_x)
            expected = [
                np.bincount(outputs[per_x[x], x], minlength=pf.n_y).tolist()
                for x in range(pf.n_x)
            ]
            est = estimate_conditionals(pf, queries_per_x, seed)
            assert est.counts.tolist() == expected


@pytest.mark.parametrize("rows", STREAM_SIZES)
def test_outputs_match_one_serial_draw(rows):
    for pf in (mix_identity_flip(), affine_ternary_model(), LOG_MODELS["12->11"]):
        sampler = TableSampler(pf)
        x_in = np.random.default_rng(rows).integers(0, pf.n_x, rows)
        for seed in STREAM_SEEDS:
            indices = serial_table_indices(pf, make_rng(seed), rows)
            outputs = sampler.draw_outputs(make_rng(seed), x_in)
            assert np.array_equal(outputs, sampler.outputs[indices, x_in])


@pytest.mark.parametrize("rows", STREAM_SIZES)
@pytest.mark.parametrize("drawn", [0, 1, 2, 3])
def test_draws_leave_the_serial_state(rows, drawn):
    # 1 to 3 draws already made leave Philox's four-draw buffer mid-block
    pf = affine_ternary_model()
    sampler = TableSampler(pf)
    x_in = np.random.default_rng(rows).integers(0, pf.n_x, rows)
    rng, serial = make_rng(7), make_rng(7)
    for generator in (rng, serial):
        generator.integers(0, 2**64, size=drawn, dtype=np.uint64)
    outputs = sampler.draw_outputs(rng, x_in)
    indices = serial_table_indices(pf, serial, rows)
    assert np.array_equal(outputs, sampler.outputs[indices, x_in])
    assert rng_state(rng) == rng_state(serial)


# calls of several chunks of draws, the last one short, and of one chunk
# in all, each with the sizes of its draws, chunk by chunk; every draw is
# made on the calling thread
DRAWING_CALLS = {
    "simulate_log": (
        lambda pf: simulate_log(
            pf, np.zeros(2 * _CHUNK_ROWS + 5, dtype=np.int64), seed=1
        ),
        [_CHUNK_ROWS, _CHUNK_ROWS, 5],
    ),
    # three inputs, two chunks each
    "estimate_conditionals": (
        lambda pf: estimate_conditionals(pf, _CHUNK_ROWS + 7, seed=1),
        [_CHUNK_ROWS, 7] * 3,
    ),
    "simulate_log_one_chunk": (
        lambda pf: simulate_log(pf, np.zeros(_CHUNK_ROWS, dtype=np.int64), seed=1),
        [_CHUNK_ROWS],
    ),
    # three inputs, one chunk each, one chunk in all
    "estimate_conditionals_one_chunk": (
        lambda pf: estimate_conditionals(pf, _CHUNK_ROWS // 3, seed=1),
        [_CHUNK_ROWS // 3] * 3,
    ),
}
MULTI_CHUNK_CALLS = ["simulate_log", "estimate_conditionals"]


@pytest.mark.parametrize("name", MULTI_CHUNK_CALLS)
def test_no_thread_outlives_a_call(name):
    threads = threading.active_count()
    run, _ = DRAWING_CALLS[name]
    run(affine_ternary_model())
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", MULTI_CHUNK_CALLS)
def test_no_thread_outlives_a_failed_call(monkeypatch, name):
    threads = threading.active_count()
    error = RuntimeError("lookup failed")
    seen = []
    lookup = TableSampler._lookup

    def failing(self, draws):
        seen.append(threading.active_count())
        if len(seen) == 2:
            raise error
        return lookup(self, draws)

    monkeypatch.setattr(TableSampler, "_lookup", failing)
    run, _ = DRAWING_CALLS[name]
    with pytest.raises(RuntimeError) as raised:
        run(affine_ternary_model())
    assert raised.value is error
    # no thread was running while the chunks were looked up
    assert seen == [threads] * 2
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", DRAWING_CALLS)
def test_no_call_starts_a_thread(monkeypatch, name):
    seen = []
    lookup = TableSampler._lookup

    def counting(self, draws):
        seen.append(threading.active_count())
        return lookup(self, draws)

    monkeypatch.setattr(TableSampler, "_lookup", counting)
    threads = threading.active_count()
    run, chunks = DRAWING_CALLS[name]
    run(affine_ternary_model())
    assert seen == [threads] * len(chunks)
    assert threading.active_count() == threads


@pytest.mark.parametrize("name", DRAWING_CALLS)
def test_each_chunk_is_one_draw_indices_call(monkeypatch, name):
    # every draw goes through TableSampler.draw_indices, one call per
    # _chunk_sizes chunk: the calls the tracer counts draws on
    sizes = []
    draw_indices = TableSampler.draw_indices

    def spying(self, rng, size):
        sizes.append(size)
        return draw_indices(self, rng, size)

    monkeypatch.setattr(TableSampler, "draw_indices", spying)
    run, chunks = DRAWING_CALLS[name]
    result = run(affine_ternary_model())
    assert sizes == chunks
    # one draw per query: the tracer's classical.draws
    if name.startswith("simulate_log"):
        assert sum(sizes) == len(result.y_out)
    else:
        assert sum(sizes) == result.counts.sum()


@pytest.mark.parametrize("call", [
    lambda pf: simulate_log(pf, [0, 1, 0], seed=0),
    lambda pf: estimate_conditionals(pf, 3, seed=0),
], ids=["simulate_log", "estimate_conditionals"])
def test_outputs_past_int64_are_refused_before_any_draw(monkeypatch, call):
    # a valid library model whose outputs no int64 holds: one DomainError
    # naming n_y, where the sampler reads the output store
    n_y = 2**70
    tables = (FunctionTable(2, n_y, (0, 1)), FunctionTable(2, n_y, (n_y - 1, 5)))
    pf = FunctionDistribution(2, n_y, dict.fromkeys(tables, F(1, 2)))

    def no_draw(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(classical, "make_rng", no_draw)
    with pytest.raises(DomainError) as raised:
        call(pf)
    assert str(raised.value) == (
        f"n_y = {n_y} is beyond 2^63, the most outputs a table store holds"
    )


def test_counts_past_the_cap_are_refused_before_any_draw(monkeypatch):
    # a valid model whose n_x * n_y counts would take 16 TiB: refused by
    # the size guard after the sampler is built, before a generator is made
    n_y = 2**40
    pf = FunctionDistribution.point_mass(FunctionTable(2, n_y, (0, n_y - 1)))

    def no_draw(seed):
        raise AssertionError("a generator was made")

    monkeypatch.setattr(classical, "make_rng", no_draw)
    with pytest.raises(EnumerationCapError) as raised:
        estimate_conditionals(pf, 3, seed=0)
    assert str(raised.value) == (
        f"output counts of 2 inputs x {n_y} outputs: {2 * n_y} exceeds the "
        "enumeration cap 1000000"
    )


def test_estimates_refused_past_the_query_limit():
    pf = FunctionDistribution.uniform(2, 2)
    est = estimate_conditionals(pf, MAX_QUERIES // 2, seed=0)
    assert est.counts.sum() == MAX_QUERIES
    for queries_per_x in (MAX_QUERIES // 2 + 1, 10**30, 10**5000):
        with pytest.raises(DomainError, match="query limit"):
            estimate_conditionals(pf, queries_per_x, seed=0)


def csv_by_records(pf, inputs, seed):
    """Reference log writer: one record per query, rows written by
    ``csv.writer``, each output read off the drawn table itself."""
    support = pf.support()
    indices = TableSampler(pf).draw_indices(make_rng(seed), len(inputs))
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["x_in", "x_out", "y_out", "query_index"])
    for i, (x, k) in enumerate(zip(inputs, indices)):
        writer.writerow([x, x, support[k].outputs[x], i])
    return buffer.getvalue()


TINY = F(1, 2**70)
LOG_MODELS = {
    "uniform 2x2": FunctionDistribution.uniform(2, 2),
    "identity/flip": mix_identity_flip(),
    "uniform 3x3": uniform_ternary_model(),
    "affine 3x3": affine_ternary_model(),
    "3->2": FunctionDistribution.uniform_over(
        [FunctionTable(3, 2, (0, 1, 1)), FunctionTable(3, 2, (1, 0, 0))]
    ),
    "2**-70 atom": FunctionDistribution(2, 2, {IDENTITY: TINY, FLIP: 1 - TINY}),
    # two-digit x_in and y_out
    "12->11": FunctionDistribution.uniform_over(
        FunctionTable(12, 11, tuple(k * x % 11 for x in range(12))) for k in range(1, 5)
    ),
}


@pytest.mark.parametrize("pf", LOG_MODELS.values(), ids=LOG_MODELS.keys())
def test_columnar_csv_matches_the_record_writer(pf):
    rng = random.Random(pf.n_x * 10 + pf.n_y)
    schedules = (
        [i % pf.n_x for i in range(300)],
        [rng.randrange(pf.n_x) for _ in range(300)],
        [],
        [rng.randrange(pf.n_x) for _ in range(_CHUNK_ROWS + 3)],
    )
    for inputs in schedules:
        for seed in (0, 7, 2**100):
            expected = csv_by_records(pf, inputs, seed)
            assert_same_rows(simulate_log(pf, inputs, seed).to_csv(), expected)


@pytest.mark.parametrize("pf", LOG_MODELS.values(), ids=LOG_MODELS.keys())
def test_csv_query_index_widens_inside_a_chunk(pf):
    # query_index reaches 6 digits at row 100000, inside the second chunk;
    # the schedule also crosses two chunk boundaries
    rng = random.Random(pf.n_x * 100 + pf.n_y)
    inputs = [rng.randrange(pf.n_x) for _ in range(2 * _CHUNK_ROWS + 5)]
    assert _CHUNK_ROWS < 100_000 < 2 * _CHUNK_ROWS
    assert_same_rows(
        simulate_log(pf, inputs, 5).to_csv(), csv_by_records(pf, inputs, 5)
    )


LOOKUP_MODELS = {
    "point mass": FunctionDistribution.point_mass(IDENTITY),
    # cuts at multiples of 2**62, each the first draw of a bucket
    "uniform 2x2": FunctionDistribution.uniform(2, 2),
    # three cuts within 2**-60 of 1/3, in one bucket, two of them equal
    "thin atoms": FunctionDistribution(2, 2, {
        CONST0: F(1, 3), IDENTITY: TINY, FLIP: F(1, 2**60),
        CONST1: F(2, 3) - TINY - F(1, 2**60),
    }),
    # 8192 tables: a cut inside every bucket, so every draw is searched
    "uniform 13->2": FunctionDistribution.uniform(13, 2),
    "affine 3x3": affine_ternary_model(),
}


@pytest.mark.parametrize("pf", LOOKUP_MODELS.values(), ids=LOOKUP_MODELS.keys())
def test_bucket_lookup_matches_a_full_search(pf):
    sampler = TableSampler(pf)
    cuts = sampler._cuts
    assert cuts.tolist() == fraction_cuts(pf)
    starts = np.arange(4096, dtype=np.uint64) << np.uint64(52)
    edges = np.concatenate([
        np.array([0, 2**64 - 1], dtype=np.uint64),
        cuts,
        cuts[cuts > 0] - np.uint64(1),
        starts,
        starts + np.uint64(2**52 - 1),
        make_rng(17).integers(0, 2**64, size=50_000, dtype=np.uint64),
    ])
    expected = np.searchsorted(cuts, edges, side="right")
    assert np.array_equal(sampler._lookup(edges), expected)


def test_bucket_table_resolves_unsplit_buckets():
    assert np.all(TableSampler(FunctionDistribution.uniform(2, 2))._lut >= 0)
    assert np.all(TableSampler(FunctionDistribution.uniform(13, 2))._lut == -1)
    thin = TableSampler(LOOKUP_MODELS["thin atoms"])
    assert np.count_nonzero(thin._lut < 0) == 1


@pytest.mark.parametrize("top", [9, 10**4, 10**8, 10**12 + 7])
def test_digit_rendering_matches_str(top):
    rng = np.random.default_rng(top)
    values = np.concatenate([
        np.array([0, 1, 9, 10, 99, 100, 999, 1000, 9999, 10**4, top]),
        rng.integers(0, top + 1, size=2000),
    ])
    values = values[values <= top]
    width = len(str(top))
    chars = np.zeros((len(values), width + 1), dtype=np.uint8)
    keep = np.ones(chars.shape, dtype=bool)
    _put_digits(chars, keep, 1, values, width)
    rows = [bytes(row[mask]).decode("ascii") for row, mask in zip(chars, keep)]
    assert rows == [f"\0{v}" for v in values.tolist()]


def csv_by_format(x, y, first):
    """Reference rows: one f-string per query."""
    return "".join(
        f"{a},{a},{b},{first + i}\n" for i, (a, b) in enumerate(zip(x.tolist(), y.tolist()))
    )


# (lowest, highest) of x and y: one digit, mixed one and two digits, and
# two digits throughout
FIELD_RANGES = {
    "x 0-1, y 0-1": ((0, 1), (0, 1)),
    "x 0-11, y 0-2": ((0, 11), (0, 2)),
    "x 0-2, y 0-11": ((0, 2), (0, 11)),
    "x 10-12, y 10-99": ((10, 12), (10, 99)),
}
# first query indices: just below each power of ten, so a run of each width
# starts inside the rows; and chunk starts that are not 10**4-aligned, so the
# high digits change mid-chunk
FIRST_INDICES = [10**k - 3 for k in range(1, 9)] + [
    _CHUNK_ROWS, 3 * _CHUNK_ROWS, 152 * _CHUNK_ROWS, 10**8 - 2 * 10**4 - 1,
]


@pytest.mark.parametrize("ranges", FIELD_RANGES.values(), ids=FIELD_RANGES.keys())
@pytest.mark.parametrize("first", FIRST_INDICES)
def test_chunk_rendering_matches_a_format_string(ranges, first):
    (x_low, x_high), (y_low, y_high) = ranges
    rng = np.random.default_rng(first)
    for rows in (1, 25_003, _CHUNK_ROWS):
        x = rng.integers(x_low, x_high + 1, rows)
        y = rng.integers(y_low, y_high + 1, rows)
        assert_same_rows(_csv_rows(x, y, first), csv_by_format(x, y, first))


def test_estimate_counts_match_the_recorded_ones():
    # modelA.json's distribution; recorded with the per-draw output gather
    # and a full searchsorted per draw
    counts = estimate_conditionals(uniform_ternary_model(), 70_000, seed=9).counts
    assert counts.tolist() == [
        [23378, 23493, 23129], [23253, 23142, 23605], [23377, 23278, 23345],
    ]
