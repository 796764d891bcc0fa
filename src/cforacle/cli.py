"""Command-line interface.

Subcommands map onto the library layers: ``reproduce`` runs the scripted
headline scenarios, ``bounds``/``identify`` solve partial-identification
programs for a model and target, ``simulate`` logs classical oracle
queries, ``tomography`` sweeps the coherent-probe state, and
``toy-check`` emits the bit-pair equivalence report.

Exit codes: 0 all claims pass, 1 a claim failed, 2 usage/parse/validation
problems.  Identical command lines (and seeds) produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from importlib.resources import files
from pathlib import Path

# Each command imports its own layer when it runs, so a launch loads only
# what that command needs: bounds, identify and the exact scenarios never
# import numpy.
from .core import (
    MAX_QUERIES,
    ConfoundedModel,
    CounterfactualQuery,
    FunctionDistribution,
    _exact_str,
    _is_digits,
)
from .errors import CfOracleError, ValidationError
from .modelio import distribution_to_json_dict, load_model

#: ``sorted(reproduce.SCENARIOS)``, kept here so the parser imports no scenario.
_SCENARIO_NAMES = (
    "appendix_b", "appendix_e", "appendix_e_general", "binary", "model_ab", "toy",
)

#: JSON keys of the ``bounds`` and ``identify`` results, in output order.
_RESULT_KEYS = {
    "bounds": ("lo", "hi", "identifiable", "witness_lo", "witness_hi"),
    "identify": ("identifiable", "lo", "hi", "width", "witness_lo", "witness_hi"),
}


def _resolve_model_path(token: str) -> Path:
    path = Path(token)
    if path.exists():
        return path
    bundled = files("cforacle").joinpath("data", token)
    if bundled.is_file():
        return Path(str(bundled))
    bundled = files("cforacle").joinpath("data", token + ".json")
    if bundled.is_file():
        return Path(str(bundled))
    raise FileNotFoundError(
        f"model file {token!r} not found (also tried the bundled data directory)"
    )


def _load_distribution(token: str) -> FunctionDistribution:
    model = load_model(_resolve_model_path(token))
    if isinstance(model, ConfoundedModel):
        # oracle access intervenes on the input, which severs the
        # confounder; only the response marginal is queryable
        return model.response_marginal()
    return model


def _emit_json(payload) -> None:
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")


def cmd_reproduce(args) -> int:
    from .reproduce import run_scenario

    report = run_scenario(args.example)
    _emit_json(report.to_json_dict())
    return 0 if report.passed else 1


def cmd_identification(args) -> int:
    """``bounds`` and ``identify``: one result, each command's own keys."""
    from .identify import ConstraintLevel, LinearTarget, build_constraints, is_identifiable

    model = _load_distribution(args.model)
    level = ConstraintLevel.parse(args.level)
    query = CounterfactualQuery.from_string(args.target)
    system = build_constraints(model, level)
    target = LinearTarget.from_query(query, model.n_x, model.n_y)
    result = is_identifiable(target, system)
    # exact bounds and witness weights of a valid model can be longer than
    # Python's default int-to-str limit; _exact_str prints any length
    fields = {
        "identifiable": result.identifiable,
        "lo": _exact_str(result.bounds.lo),
        "hi": _exact_str(result.bounds.hi),
        "width": _exact_str(result.bounds.width),
        "witness_lo": distribution_to_json_dict(result.witness_lo),
        "witness_hi": distribution_to_json_dict(result.witness_hi),
    }
    _emit_json({key: fields[key] for key in _RESULT_KEYS[args.command]})
    return 0


def _parse_ascii_int(option: str, text: str) -> int:
    """A nonnegative integer written in ASCII digits only: ``int`` alone
    also accepts ``"1_0"``, ``"+1"``, ``" 1"`` and ``"١"``."""
    if not _is_digits(text):
        raise ValidationError(
            f"{option} must be a nonnegative integer in ASCII digits, got {text!r}"
        )
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        raise ValidationError(f"{option} has {len(text)} digits, too many") from None


def cmd_simulate(args) -> int:
    import numpy as np

    from .classical import simulate_log

    queries = _parse_ascii_int("--queries", args.queries)
    seed = _parse_ascii_int("--seed", args.seed)
    if not 1 <= queries <= MAX_QUERIES:
        raise CfOracleError(f"--queries must lie in [1, {MAX_QUERIES}]")
    model = _load_distribution(args.model)
    # round robin 0, 1, ..., n_x - 1, 0, ...: one tile is cheaper than a modulo
    schedule = np.tile(np.arange(model.n_x), -(-queries // model.n_x))[:queries]
    log = simulate_log(model, schedule, seed)
    for chunk in log.csv_chunks():
        sys.stdout.write(chunk)
    return 0


def cmd_tomography(args) -> int:
    from .quantum import Amplitudes, build_rho_xy, tomography_sweep

    model = _load_distribution(args.model)
    alpha = Amplitudes.uniform(model.n_x)
    rho = build_rho_xy(model, alpha)
    # ints and %.12g values need no CSV quoting
    sys.stdout.write("x,x_prime,y,y_prime,value\n")
    for x, x_prime, y, y_prime, value in tomography_sweep(rho, alpha):
        sys.stdout.write(f"{x},{x_prime},{y},{y_prime},{value:.12g}\n")
    return 0


def cmd_toy_check(args) -> int:
    from .toy import verify_binary_equivalence

    report = verify_binary_equivalence()
    _emit_json(report.to_json_list())
    return 0 if report.all_equal else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of every :func:`main` call, built on the first: its
    program name is fixed and parsing does not change it."""
    parser = argparse.ArgumentParser(
        prog="cforacle",
        description="Counterfactual identification via classical and coherent oracle queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rep = sub.add_parser(
        "reproduce", help="run a scripted scenario and report its claims"
    )
    p_rep.add_argument("example", choices=_SCENARIO_NAMES)
    p_rep.set_defaults(func=cmd_reproduce)

    for name, help_text in (
        ("bounds", "partial-identification interval for a target"),
        ("identify", "decide identifiability with witnesses"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--model", required=True, help="model JSON path or bundled name")
        p.add_argument(
            "--level", required=True, help="constraint level: one-way or two-way"
        )
        p.add_argument(
            "--target", required=True, help="joint counterfactual, e.g. '0:1,1:1'"
        )
        p.set_defaults(func=cmd_identification)

    p_sim = sub.add_parser("simulate", help="log classical oracle queries as CSV")
    p_sim.add_argument("--model", required=True)
    p_sim.add_argument("--queries", required=True, help="total query count")
    p_sim.add_argument("--seed", default="0")
    p_sim.set_defaults(func=cmd_simulate)

    p_tomo = sub.add_parser(
        "tomography", help="extract all pairwise marginals from the probe state"
    )
    p_tomo.add_argument("--model", required=True)
    p_tomo.set_defaults(func=cmd_tomography)

    p_toy = sub.add_parser(
        "toy-check", help="bit-pair model versus exact coherent probabilities"
    )
    p_toy.set_defaults(func=cmd_toy_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(
            f"parse error in model JSON at line {exc.lineno} column {exc.colno}: "
            f"{exc.msg}",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except CfOracleError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
