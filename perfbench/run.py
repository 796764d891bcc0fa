"""cforacle benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload witness|bounds|simulate|probe \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/`` there, never from an installed copy.  The run

1. measures ``setup_s``: fresh interpreters that import ``cforacle.cli``
   and load a bundled model, timed from launch to ready (median of
   launches before and after step 2, after one untimed launch that
   compiles bytecode);
2. starts ``worker.py`` in a fresh single-threaded interpreter, which
   builds the workload's inputs from ``--seed`` and repeats passes over
   its job list for ``--seconds``, checking every job's output;
3. prints one line of run details, then the result line
   ``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (``setup_s``,
``pass_s``, ``peak_rss_mb``); with ``--trace 1`` they are the per-layer
ones.  The details and the traced run's spans are also written under
``.perfbench-out/`` in the checkout.  Every child process is waited for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# as in workloads.py, which this process does not import: it imports cforacle
WORKLOADS = ("witness", "bounds", "simulate", "probe")
DEFAULT_SEED = 0
SETUP_LAUNCHES = 4  # before the worker, and as many again after it
RUN_LIMIT_S = 170  # a run must end well within 180 s
# Prints the wall-clock time at which the interpreter is ready to work.
READY = (
    "import sys, time\n"
    "import cforacle.cli\n"
    "from cforacle.modelio import load_model\n"
    "load_model(sys.argv[1])\n"
    "print(time.time())\n"
)


def pinned_env() -> dict:
    """Single-threaded BLAS, a fixed hash seed, and the checkout's src/."""
    env = dict(os.environ)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def source_digest() -> str:
    digest = hashlib.sha256()
    package = ROOT / "src" / "cforacle"
    for path in sorted(package.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            digest.update(str(path.relative_to(package)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def time_launches(env: dict, count: int) -> list[float]:
    model = str(ROOT / "src" / "cforacle" / "data" / "modelA.json")
    command = [sys.executable, "-c", READY, model]
    times = []
    for _ in range(count):
        # the child reports when it is ready: waiting for its exit would
        # add interpreter shutdown and the parent's polling interval
        start = time.time()
        done = subprocess.run(command, env=env, check=True, capture_output=True,
                              text=True, timeout=60)
        times.append(float(done.stdout) - start)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "cforacle" / "__init__.py").is_file():
        print(f"no cforacle sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    began = time.perf_counter()
    env = pinned_env()
    out_dir = ROOT / ".perfbench-out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    workdir = tempfile.mkdtemp(prefix="work-", dir=out_dir)
    try:
        # an untimed launch compiles the bytecode; later launches are timed
        # before and after the worker, so one slow spell of the host does
        # not decide the median
        time_launches(env, 1)
        setup_times = time_launches(env, SETUP_LAUNCHES)
        command = [
            sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--workdir", workdir,
        ]
        if args.trace:
            command += ["--spans", str(out_dir / f"spans_{stem}.jsonl")]
        remaining = RUN_LIMIT_S - (time.perf_counter() - began)
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
        setup_times += time_launches(env, SETUP_LAUNCHES)
    except subprocess.TimeoutExpired:
        print(f"run exceeded {RUN_LIMIT_S} s", file=sys.stderr)
        return 1
    except subprocess.CalledProcessError as exc:
        print(f"set-up launch failed with exit code {exc.returncode}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"worker failed with exit code {done.returncode}", file=sys.stderr)
        return 1
    work = json.loads(lines[-1])

    passes = work["pass_seconds"]
    if args.trace:
        metrics = work["layer"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "pass_s": {"value": statistics.median(passes), "unit": "s"},
            "peak_rss_mb": {"value": work["peak_rss_mb"], "unit": "MB"},
        }
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": len(passes),
        "pass_seconds": passes,
        "job_seconds": work["job_seconds"],
        "setup_seconds": setup_times,
        "counts": work.get("counts"),
        "env": {
            "git_sha": git_sha(),
            "source_sha256": source_digest(),
            "python": platform.python_version(),
            "numpy": work["numpy"],
            "nproc": os.cpu_count(),
            "cpu": cpu_model(),
        },
    }
    result = {
        "correct": work["correct"],
        "attempted": work["attempted"],
        "failed": work["failed"],
        "metrics": metrics,
    }
    with open(out_dir / f"BENCH_{stem}.json", "w", encoding="utf-8") as handle:
        json.dump({**details, "result": result}, handle, indent=2)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
