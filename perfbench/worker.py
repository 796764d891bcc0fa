"""Runs one workload in this process and prints its result as one JSON line.

Started by ``run.py`` in a fresh interpreter per run, so ``peak_rss_mb``
is this workload's own peak.  ``run.py`` puts the checkout's ``src/`` on
``PYTHONPATH`` and pins the environment.  Usage:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --trace 0|1 --workdir DIR [--spans FILE]

Passes over the workload's job list repeat while another pass, at the
median pass length so far, still ends within ``--seconds``; so the run
ends on time however fast the host is.  Only the job calls are timed for
``pass_s``; set-up and checks are not.  With ``--trace 1`` the first pass
runs untraced and the rest traced, which gives the tracing overhead; the
traced passes must agree exactly on every work counter.  The spans of the
last traced pass are written to ``--spans``, one JSON object per line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import cforacle
import numpy
import workloads
from tracer import CHILD_S, END, FAILED, NAME, PARENT, START, Tracer

ROOT = Path(__file__).resolve().parent.parent

MIN_TRACED_PASSES = 2

# Per-layer metrics as (name, unit); all are reported on every workload.
LAYER_METRICS = [
    ("lp.simplex_minimize.self_s", "s"),
    ("lp.simplex_minimize.calls", "count"),
    ("lp.lexmin_optimal_vertex.self_s", "s"),
    ("lp.lexmin_optimal_vertex.calls", "count"),
    ("lp.lexmin_optimal_vertex.simplex_calls", "count"),
    ("lp.lexmin_optimal_vertex.share", "ratio"),
    ("lp.objective_range.s", "s"),
    ("lp.failed", "count"),
    ("rational.rref.calls", "count"),
    ("rational.rref.self_s", "s"),
    ("rational.solve_unique.self_s", "s"),
    ("identify.build_constraints.self_s", "s"),
    ("identify.build_constraints.cells", "count"),
    ("identify.from_query.self_s", "s"),
    ("identify.lp_bounds.s", "s"),
    ("identify.is_identifiable.s", "s"),
    ("core.enumerate_functions.self_s", "s"),
    ("core.enumerate_functions.tables", "count"),
    ("core.joint_counterfactual.self_s", "s"),
    ("classical.draw_indices.self_s", "s"),
    ("classical.draws", "count"),
    ("classical.simulate_log.self_s", "s"),
    ("classical.to_csv.self_s", "s"),
    ("classical.csv_bytes", "bytes"),
    ("classical.estimate_conditionals.s", "s"),
    ("quantum.build_rho_xy.self_s", "s"),
    ("quantum.rho_cells", "count"),
    ("quantum.tomography_sweep.self_s", "s"),
    ("quantum.solve_binary_pF.s", "s"),
    ("toy.verify_binary_equivalence.s", "s"),
    ("modelio.load_model.self_s", "s"),
    ("modelio.bytes_read", "bytes"),
    ("cli.main.self_s", "s"),
    ("cli.stdout_bytes", "bytes"),
    ("report.to_json_dict.self_s", "s"),
    ("reproduce.binary.s", "s"),
    ("reproduce.model_ab.s", "s"),
    ("reproduce.appendix_e.s", "s"),
    ("reproduce.appendix_e_general.s", "s"),
    ("queries_per_s", "1/s"),
    ("failed_ratio", "ratio"),
    ("trace.overhead", "ratio"),
]

# Exact counts that must repeat from one traced pass to the next.
EXACT_COUNTS = [
    "lp.simplex_minimize.calls",
    "lp.lexmin_optimal_vertex.simplex_calls",
    "rational.rref.calls",
    "identify.build_constraints.cells",
    "core.enumerate_functions.tables",
    "classical.draws",
    "classical.csv_bytes",
    "cli.stdout_bytes",
]


@dataclass
class Pass:
    seconds: float = 0.0
    job_seconds: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    queries: int = 0
    query_seconds: float = 0.0
    stdout_bytes: int = 0


def run_pass(jobs, tracer: Tracer) -> Pass:
    result = Pass()
    for job in jobs:
        result.attempted += 1
        output = None
        failure = None
        start = time.perf_counter()
        with tracer.span(f"job:{job.name}"):
            try:
                output = job.run()
            except (Exception, SystemExit) as exc:  # SystemExit: argparse usage errors
                failure = f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        result.seconds += elapsed
        result.job_seconds[job.name] = elapsed
        if job.queries:
            result.queries += job.queries
            result.query_seconds += elapsed
        if isinstance(output, workloads.CliOutput):
            result.stdout_bytes += len(output.stdout.encode())
        if failure is None:
            active, tracer.active = tracer.active, False  # checks are not traced
            try:
                job.check(output)
            except workloads.CheckFailed as exc:
                failure = str(exc)
            except Exception:
                failure = traceback.format_exc()
            finally:
                tracer.active = active
        if failure is not None:
            result.failed += 1
            print(f"FAILED {job.name}: {failure}", file=sys.stderr)
    return result


def layer_values(spans, counts, run: Pass) -> dict:
    """Per-layer metrics of one traced pass."""
    calls = defaultdict(int)
    inclusive = defaultdict(float)
    self_s = defaultdict(float)
    failed = 0
    lexmin_simplex = 0
    for span in spans:
        name = span[NAME]
        duration = span[END] - span[START]
        calls[name] += 1
        inclusive[name] += duration
        self_s[name] += duration - span[CHILD_S]
        if span[FAILED] and name.startswith("lp."):
            failed += 1
        if name == "lp.simplex_minimize":
            parent = span[PARENT]
            while parent >= 0 and spans[parent][NAME] != "lp.lexmin_optimal_vertex":
                parent = spans[parent][PARENT]
            lexmin_simplex += parent >= 0
    lexmin = "lp.lexmin_optimal_vertex"
    identifiable = inclusive["identify.is_identifiable"]
    values = {
        "lp.lexmin_optimal_vertex.simplex_calls": lexmin_simplex,
        "lp.lexmin_optimal_vertex.share": (
            inclusive[lexmin] / identifiable if identifiable else 0.0
        ),
        "lp.failed": failed,
        "cli.stdout_bytes": run.stdout_bytes,
        "queries_per_s": run.queries / run.query_seconds if run.queries else 0.0,
        "failed_ratio": run.failed / run.attempted,
    }
    values.update(counts)
    for metric, _unit in LAYER_METRICS:
        if metric in values:
            continue
        base, _, kind = metric.rpartition(".")
        if kind == "self_s":
            values[metric] = self_s[base]
        elif kind == "s":
            values[metric] = inclusive[base]
        elif kind == "calls":
            values[metric] = calls[base]
        else:
            values[metric] = 0
    return values


def middle(unit: str):
    """Median for timings and ratios; a value that occurred for counts."""
    return statistics.median_low if unit in ("count", "bytes") else statistics.median


def write_spans(path: Path, spans) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for index, span in enumerate(spans):
            root = index
            while spans[root][PARENT] >= 0:
                root = spans[root][PARENT]
            handle.write(json.dumps({
                "id": index,
                "name": span[NAME],
                "start": span[START],
                "end": span[END],
                "parent": span[PARENT],
                "job": spans[root][NAME],
                "self_s": span[END] - span[START] - span[CHILD_S],
                "failed": span[FAILED],
            }) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="file for the last traced pass's spans")
    args = parser.parse_args()

    source = Path(cforacle.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"cforacle imported from {source}, not from {ROOT / 'src'}", file=sys.stderr)
        return 2

    jobs = workloads.build(args.workload, args.seed, args.workdir)
    tracer = Tracer()
    passes: list[Pass] = []
    traced: list[dict] = []
    start = time.perf_counter()
    walls: list[float] = []  # whole passes, checks included
    while True:
        pass_start = time.perf_counter()
        if args.trace and passes:
            if len(passes) == 1:
                tracer.install()
            tracer.reset()
            tracer.active = True
        run = run_pass(jobs, tracer)
        tracer.active = False
        passes.append(run)
        if args.trace and len(passes) > 1:
            traced.append(layer_values(tracer.spans, tracer.counts, run))
        now = time.perf_counter()
        walls.append(now - pass_start)
        enough = not args.trace or len(traced) >= MIN_TRACED_PASSES
        if enough and now - start + statistics.median(walls) > args.seconds:
            break

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    correct = failed == 0
    pass_seconds = [p.seconds for p in passes]
    result = {
        "attempted": attempted,
        "failed": failed,
        "pass_seconds": pass_seconds,
        "job_seconds": {
            job.name: [p.job_seconds[job.name] for p in passes] for job in jobs
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "numpy": numpy.__version__,
    }
    if args.trace:
        tracer.uninstall()
        if args.spans:
            write_spans(Path(args.spans), tracer.spans)
        repeat = all(
            t[name] == traced[0][name] for t in traced for name in EXACT_COUNTS
        )
        if not repeat:
            print("work counters differ between traced passes", file=sys.stderr)
            correct = False
        overhead = statistics.median(pass_seconds[1:]) / pass_seconds[0]
        result["layer"] = {
            metric: {
                "value": overhead if metric == "trace.overhead"
                else middle(unit)(t[metric] for t in traced),
                "unit": unit,
            }
            for metric, unit in LAYER_METRICS
        }
        result["counts"] = {name: traced[0][name] for name in EXACT_COUNTS}
    result["correct"] = correct
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
