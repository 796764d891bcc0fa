"""The benchmark's workloads: fixed job lists with a correctness check each.

A job is a named call into cforacle, either through ``cforacle.cli.main``
with stdout captured or through the public library API.  Every call goes
through a module attribute looked up at call time, so the tracer's
wrappers see it.  ``build(name, seed, workdir)`` does all set-up (models,
model files, expected values) before any pass is timed.

A job fails when it raises, when a CLI call exits nonzero, or when its
check raises ``CheckFailed``.  CLI jobs whose output does not depend on
the seed are compared byte for byte, by sha256, with ``references.json``
on every seed; ``simulate`` output is compared on the default seed only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from cforacle import classical, cli, core, identify, modelio, quantum, toy
from cforacle.core import CounterfactualQuery, FunctionDistribution
from cforacle.reproduce import affine_ternary_model

DEFAULT_SEED = 0
REFERENCES = Path(__file__).resolve().parent / "references.json"
DATA = Path(cli.__file__).resolve().parent / "data"

# Simulator frequencies must lie within this many binomial standard errors.
SIGMAS = 6


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Job:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]
    queries: int = 0  # classical oracle queries logged to CSV by this job
    digest_key: str | None = None  # references.json entry for the stdout bytes


@dataclass
class CliOutput:
    code: int
    stdout: str


def call_cli(argv: list[str]) -> CliOutput:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return CliOutput(code, buffer.getvalue())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def load_references() -> dict:
    with open(REFERENCES, encoding="utf-8") as handle:
        return json.load(handle)


def cli_job(name, argv, references, digest_key, extra_check=None, queries=0) -> Job:
    """A CLI call that must exit 0 and, when ``digest_key`` is set, print
    exactly the bytes recorded in ``references.json`` under that key."""

    def check(out: CliOutput) -> None:
        require(out.code == 0, f"exit code {out.code}")
        if digest_key is not None:
            expected = references.get(digest_key)
            require(expected is not None, f"no reference digest for {digest_key!r}")
            require(sha256(out.stdout) == expected, "stdout differs from the reference bytes")
        if extra_check is not None:
            extra_check(out.stdout)

    return Job(name, lambda: call_cli(argv), check, queries, digest_key)


def tail_pairs(fixed_tail: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The n-way target of reproduce_appendix_e_general: ones on the three
    free inputs, the tail's own values on the rest."""
    return ((0, 1), (1, 1), (2, 1)) + tuple((3 + i, v) for i, v in enumerate(fixed_tail))


def lp_bounds_job(name, model, level, pairs, expected) -> Job:
    def run():
        system = identify.build_constraints(model, level)
        target = identify.LinearTarget.from_query(
            CounterfactualQuery(pairs), model.n_x, model.n_y
        )
        return identify.lp_bounds(target, system)

    def check(bounds) -> None:
        got = (bounds.lo, bounds.hi)
        require(got == expected, f"bounds {got} != expected {expected}")

    return Job(name, run, check)


# --- witness -------------------------------------------------------------

def _witness_check(model, level, pairs, expected):
    system = identify.build_constraints(model, level)
    target = identify.LinearTarget.from_query(
        CounterfactualQuery(pairs), model.n_x, model.n_y
    )

    def satisfies(pF: FunctionDistribution) -> bool:
        for coeffs, rhs in system.rows:
            if sum((coeffs[t.index] * w for t, w in pF.weights.items()), Fraction(0)) != rhs:
                return False
        return True

    def check(stdout: str) -> None:
        data = json.loads(stdout)
        got = (Fraction(data["lo"]), Fraction(data["hi"]))
        require(got == expected, f"bounds {got} != expected {expected}")
        for key, endpoint in (("witness_lo", got[0]), ("witness_hi", got[1])):
            witness = modelio.parse_model(data[key])
            require(satisfies(witness), f"{key} violates the constraint system")
            require(target.value_on(witness) == endpoint, f"{key} misses its endpoint")

    return check


def witness_jobs(seed, workdir, references) -> list[Job]:
    jobs = [
        cli_job(f"reproduce {scenario}", ["reproduce", scenario], references,
                f"reproduce {scenario}")
        for scenario in ("model_ab", "appendix_e", "binary")
    ]
    tail = (0, 1)
    model = identify.restricted_tail_model(5, tail)
    path = Path(workdir) / "tail5.json"
    modelio.save_model(model, path)
    pairs = tail_pairs(tail)
    target = ",".join(f"{x}:{y}" for x, y in pairs)
    jobs.append(
        cli_job(
            "identify tail5 one-way",
            ["identify", "--model", str(path), "--level", "one-way", "--target", target],
            references,
            "identify tail5 one-way",
            _witness_check(model, "one-way", pairs, (Fraction(0), Fraction(1, 2))),
        )
    )
    return jobs


# --- bounds --------------------------------------------------------------

def bounds_jobs(seed, workdir, references) -> list[Job]:
    quarter = (Fraction(0), Fraction(1, 4))
    jobs = [
        lp_bounds_job(
            f"tail{3 + len(tail)} two-way tail {''.join(map(str, tail))}",
            identify.restricted_tail_model(3 + len(tail), tail),
            "two-way",
            tail_pairs(tail),
            quarter,
        )
        for tail in ((0, 0, 0), (1, 1, 1), (0, 1, 0, 1))
    ]
    jobs.append(lp_bounds_job(
        "affine 3x3 two-way diagonal", affine_ternary_model(), "two-way",
        ((0, 0), (1, 1), (2, 2)), (Fraction(0), Fraction(1, 9)),
    ))
    jobs.append(lp_bounds_job(
        "uniform 4x3 one-way", FunctionDistribution.uniform(4, 3), "one-way",
        ((0, 0), (1, 1), (2, 2), (3, 0)), (Fraction(0), Fraction(1, 3)),
    ))
    jobs.append(lp_bounds_job(
        "uniform 3x4 one-way", FunctionDistribution.uniform(3, 4), "one-way",
        ((0, 0), (1, 1), (2, 2)), quarter,
    ))
    jobs.append(cli_job(
        "reproduce appendix_e_general", ["reproduce", "appendix_e_general"],
        references, "reproduce appendix_e_general",
    ))
    return jobs


# --- simulate ------------------------------------------------------------

def _within_sigmas(counts: np.ndarray, total: int, expected: tuple[Fraction, ...], what: str):
    for y, p in enumerate(expected):
        p = float(p)
        se = math.sqrt(p * (1.0 - p) / total)
        gap = abs(counts[y] / total - p)
        require(
            gap <= SIGMAS * se,
            f"{what}: frequency of y={y} is {counts[y] / total:.6f}, "
            f"expected {p:.6f} within {SIGMAS} standard errors ({se:.2e})",
        )


def _simulate_check(model, queries):
    def check(stdout: str) -> None:
        header, body = stdout.split("\n", 1)
        require(header == "x_in,x_out,y_out,query_index", f"header {header!r}")
        values = np.fromstring(body.replace("\n", ","), dtype=np.int64, sep=",")
        require(values.size == 4 * queries, f"{values.size // 4} rows, expected {queries}")
        x_in, x_out, y_out, index = values.reshape(-1, 4).T
        require(np.array_equal(index, np.arange(queries)), "query_index is not 0..N-1")
        require(np.array_equal(x_in, index % model.n_x), "inputs are not the round-robin schedule")
        require(np.array_equal(x_out, x_in), "x_out differs from x_in")
        for x in range(model.n_x):
            ys = y_out[x_in == x]
            counts = np.bincount(ys, minlength=model.n_y)
            _within_sigmas(counts, ys.size, core.conditional(model, x), f"input {x}")

    return check


def simulate_jobs(seed, workdir, references) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for name, queries in (("uniform2.json", 10**6), ("modelA.json", 5 * 10**5)):
        model = modelio.load_model(DATA / name)
        sim_seed = rng.randrange(2**32)
        key = f"simulate {name} seed={DEFAULT_SEED}" if seed == DEFAULT_SEED else None
        jobs.append(cli_job(
            f"simulate {name} {queries}",
            ["simulate", "--model", name, "--queries", str(queries), "--seed", str(sim_seed)],
            references, key, _simulate_check(model, queries), queries=queries,
        ))
    model = modelio.load_model(DATA / "modelA.json")
    per_x = 10**6
    est_seed = rng.randrange(2**32)

    def check(estimates) -> None:
        for x in range(model.n_x):
            require(int(estimates.counts[x].sum()) == per_x, f"input {x}: wrong query count")
            _within_sigmas(estimates.counts[x], per_x, core.conditional(model, x), f"input {x}")

    jobs.append(Job(
        "estimate_conditionals modelA 10^6",
        lambda: classical.estimate_conditionals(model, per_x, est_seed),
        check,
    ))
    return jobs


# --- probe ---------------------------------------------------------------

def _exact_sweep(model) -> dict:
    """joint_counterfactual for every (x, x', y, y') row tomography emits."""
    expected = {}
    for x in range(model.n_x):
        for y in range(model.n_y):
            query = CounterfactualQuery(((x, y),))
            expected[(x, x, y, y)] = float(core.joint_counterfactual(model, query))
        for x_prime in range(x + 1, model.n_x):
            for y in range(model.n_y):
                for y_prime in range(model.n_y):
                    query = CounterfactualQuery(((x, y), (x_prime, y_prime)))
                    expected[(x, x_prime, y, y_prime)] = float(
                        core.joint_counterfactual(model, query)
                    )
    return expected


def _compare_sweep(rows, expected: dict) -> None:
    require(len(rows) == len(expected), f"{len(rows)} rows, expected {len(expected)}")
    for x, x_prime, y, y_prime, value in rows:
        exact = expected[(x, x_prime, y, y_prime)]
        require(
            abs(value - exact) <= quantum.EXTRACTION_TOL,
            f"p(f({x})={y}, f({x_prime})={y_prime}) read {value}, exact {exact}",
        )


def _tomography_job(n_x: int, n_y: int) -> Job:
    model = FunctionDistribution.uniform(n_x, n_y)
    alpha = quantum.Amplitudes.uniform(n_x)
    expected = _exact_sweep(model)

    def run():
        rho = quantum.build_rho_xy(model, alpha)
        return quantum.tomography_sweep(rho, alpha)

    return Job(
        f"tomography uniform {n_x}x{n_y}", run, lambda rows: _compare_sweep(rows, expected)
    )


def _tomography_cli_check(model):
    expected = _exact_sweep(model)

    def check(stdout: str) -> None:
        lines = stdout.splitlines()
        require(lines[0] == "x,x_prime,y,y_prime,value", f"header {lines[0]!r}")
        rows = []
        for line in lines[1:]:
            x, x_prime, y, y_prime, value = line.split(",")
            rows.append((int(x), int(x_prime), int(y), int(y_prime), float(value)))
        _compare_sweep(rows, expected)

    return check


def probe_jobs(seed, workdir, references) -> list[Job]:
    jobs = [_tomography_job(6, 4), _tomography_job(8, 3)]
    for name in ("appE.json", "modelA.json", "modelB.json"):
        model = modelio.load_model(DATA / name)
        if isinstance(model, core.ConfoundedModel):
            model = model.response_marginal()
        jobs.append(cli_job(
            f"tomography {name}", ["tomography", "--model", name], references,
            f"tomography {name}", _tomography_cli_check(model),
        ))
    jobs.append(cli_job("toy-check", ["toy-check"], references, "toy-check"))
    # the four point masses plus 196 random rational mixtures drawn from the seed
    models = toy.equivalence_grid(num_mixtures=196, seed=seed)

    def round_trips():
        return [
            quantum.solve_binary_pF(*quantum.binary_forward_measurements(m))
            for m in models
        ]

    def check(recovered) -> None:
        for i, (got, truth) in enumerate(zip(recovered, models)):
            require(got == truth, f"round trip {i}: recovered {got}, true {truth}")

    jobs.append(Job("binary round trips x200", round_trips, check))
    return jobs


WORKLOADS = {
    "witness": witness_jobs,
    "bounds": bounds_jobs,
    "simulate": simulate_jobs,
    "probe": probe_jobs,
}


def build(name: str, seed: int, workdir) -> list[Job]:
    return WORKLOADS[name](seed, workdir, load_references())
