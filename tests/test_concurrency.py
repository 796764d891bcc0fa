"""The library from several threads at once.

Four threads run a fixed mix of calls for a few rounds; two of the calls
draw several chunks from a generator of their own.  Two others share one
distribution whose output store is not built yet, so the threads race
its lazy build, and two share one two-way constraint system, on which
``is_identifiable`` runs the face walk.
Every result must equal its serial value bit for bit, and no thread may
outlive the run."""

import sys
import threading

import numpy as np

from cforacle import (
    Amplitudes,
    CounterfactualQuery,
    FunctionDistribution,
    LinearTarget,
    binary_forward_measurements,
    build_constraints,
    build_rho_xy,
    estimate_conditionals,
    is_identifiable,
    lp_bounds,
    simulate_log,
    solve_binary_pF,
    tomography_sweep,
    verify_binary_equivalence,
)
from cforacle.classical import _CHUNK_ROWS
from cforacle.reproduce import affine_ternary_model
from cforacle.toy import equivalence_grid

THREADS = 4
ROUNDS = 3


def the_mix(shared):
    """The calls each thread makes, by name; ``shared`` is the one
    distribution that every thread's probe calls read."""
    alpha = Amplitudes.uniform(shared.n_x)
    grid = equivalence_grid(num_mixtures=30)
    sampled = affine_ternary_model()
    # more than one chunk of draws, each drawn on the calling thread
    inputs = np.arange(3 * _CHUNK_ROWS + 5) % sampled.n_x
    system = build_constraints(FunctionDistribution.uniform(3, 2), "two-way")
    target = LinearTarget.from_query(
        CounterfactualQuery(((0, 1), (1, 1), (2, 1))), 3, 2
    )

    def rho_bytes():
        return build_rho_xy(shared, alpha).entries.tobytes()

    def sweep():
        rows = tomography_sweep(build_rho_xy(shared, alpha), alpha)
        return [(*key, value.hex()) for *key, value in rows]

    def round_trips():
        return [repr(solve_binary_pF(*binary_forward_measurements(m))) for m in grid]

    def toy_check():
        return verify_binary_equivalence().to_json_list()

    def simulate():
        return simulate_log(sampled, inputs, seed=17).y_out.tobytes()

    def estimate():
        return estimate_conditionals(sampled, _CHUNK_ROWS + 1, seed=17).counts.tobytes()

    def bounds():
        result = lp_bounds(target, system)
        return result.lo, result.hi

    def identify():
        result = is_identifiable(target, system)
        witnesses = (result.witness_lo, result.witness_hi)
        return result.identifiable, result.bounds, [repr(w) for w in witnesses]

    return {
        "build_rho_xy": rho_bytes,
        "tomography_sweep": sweep,
        "solve_binary_pF": round_trips,
        "verify_binary_equivalence": toy_check,
        "simulate_log": simulate,
        "estimate_conditionals": estimate,
        "lp_bounds": bounds,
        "is_identifiable": identify,
    }


def test_threads_get_the_serial_results():
    threads_before = threading.active_count()
    mix = the_mix(FunctionDistribution.uniform(6, 3))
    serial = {name: call() for name, call in mix.items()}
    shared = FunctionDistribution.uniform(6, 3)
    assert "_store" not in vars(shared)
    mix = list(the_mix(shared).items())
    start = threading.Barrier(THREADS)
    results, errors = {}, []

    def work(rank):
        try:
            start.wait(timeout=60)
            for round_ in range(ROUNDS):
                # every thread's first round starts on ``shared``; later
                # rounds start at the thread's own call, so unlike calls overlap
                order = mix[rank:] + mix[:rank] if round_ else mix
                for name, call in order:
                    results[rank, round_, name] = call()
        except Exception as exc:  # reported by the main thread
            errors.append(exc)

    workers = [threading.Thread(target=work, args=(rank,)) for rank in range(THREADS)]
    # switch threads every few bytecodes, not every 5 ms, so that a short
    # unguarded step such as the store's build would be interleaved
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)

    assert not any(worker.is_alive() for worker in workers)
    assert errors == []
    assert len(results) == THREADS * ROUNDS * len(mix)
    for (rank, round_, name), value in results.items():
        assert value == serial[name], (rank, round_, name)
    assert "_store" in vars(shared)
    assert threading.active_count() == threads_before
