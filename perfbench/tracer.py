"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps cforacle's public functions from the outside: every
module attribute under ``cforacle`` that holds a traced function object
is replaced by a wrapper, so a call is recorded whichever name the caller
resolves it through (``cforacle.cli.build_constraints``,
``cforacle.lp.rref`` inside ``lexmin_optimal_vertex``, ...).  No library
file is changed; ``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, child_s, failed]``.  Spans stay in
memory and are written out once, when the run ends.  Self time is a
span's duration minus the time covered by its direct children; calls are
single-threaded and strictly nested, so the children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import os
import sys
import time
from collections import Counter

NAME, START, END, PARENT, CHILD_S, FAILED = range(6)


# Exact work counters, recorded from each traced call's arguments and result.
def _count_cells(counts, args, kwargs, result):
    counts["identify.build_constraints.cells"] += len(result.rows) * result.dimension


def _count_tables(counts, args, kwargs, result):
    counts["core.enumerate_functions.tables"] += len(result)


def _count_draws(counts, args, kwargs, result):
    counts["classical.draws"] += int(kwargs["size"] if "size" in kwargs else args[2])


def _count_csv_bytes(counts, args, kwargs, result):
    counts["classical.csv_bytes"] += len(result.encode())


def _count_rho_cells(counts, args, kwargs, result):
    model = args[0]
    counts["quantum.rho_cells"] += len(model.support()) * model.n_x * model.n_y


def _count_bytes_read(counts, args, kwargs, result):
    counts["modelio.bytes_read"] += os.path.getsize(args[0])


class Tracer:
    """Records nested spans and counters while ``active`` is true."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._restore: list = []

    def reset(self) -> None:
        self.spans = []
        self.counts = Counter()

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, 0.0, False]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = time.perf_counter()
        return span

    def _exit(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack.pop()
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD_S] += span[END] - span[START]

    @contextlib.contextmanager
    def span(self, name: str):
        """A benchmark-side span, such as one job."""
        if not self.active:
            yield
            return
        span = self._enter(name)
        try:
            yield
        except BaseException:
            span[FAILED] = True
            raise
        finally:
            self._exit(span)

    def wrap(self, name: str, fn, count=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                tracer._exit(span)
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return traced

    def _replace_everywhere(self, original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("cforacle"):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._restore.append((module, attr, original))

    def install(self) -> None:
        """Wrap every traced function of the imported cforacle package."""
        from cforacle import (
            classical, cli, core, identify, lp, modelio, quantum, rational,
            report, reproduce, toy,
        )

        functions = [
            (lp, "simplex_minimize", "lp.simplex_minimize", None),
            (lp, "lexmin_optimal_vertex", "lp.lexmin_optimal_vertex", None),
            (lp, "objective_range", "lp.objective_range", None),
            (rational, "rref", "rational.rref", None),
            (rational, "solve_unique", "rational.solve_unique", None),
            (identify, "build_constraints", "identify.build_constraints", _count_cells),
            (identify, "lp_bounds", "identify.lp_bounds", None),
            (identify, "is_identifiable", "identify.is_identifiable", None),
            (core, "enumerate_functions", "core.enumerate_functions", _count_tables),
            (core, "joint_counterfactual", "core.joint_counterfactual", None),
            (classical, "simulate_log", "classical.simulate_log", None),
            (classical, "estimate_conditionals", "classical.estimate_conditionals", None),
            (quantum, "build_rho_xy", "quantum.build_rho_xy", _count_rho_cells),
            (quantum, "tomography_sweep", "quantum.tomography_sweep", None),
            (quantum, "solve_binary_pF", "quantum.solve_binary_pF", None),
            (toy, "verify_binary_equivalence", "toy.verify_binary_equivalence", None),
            (modelio, "load_model", "modelio.load_model", _count_bytes_read),
            (cli, "main", "cli.main", None),
        ]
        for module, attr, name, count in functions:
            original = getattr(module, attr)
            self._replace_everywhere(original, self.wrap(name, original, count))

        methods = [
            (identify.LinearTarget, "from_query", "identify.from_query", None),
            (classical.TableSampler, "draw_indices", "classical.draw_indices", _count_draws),
            (classical.SampleLog, "to_csv", "classical.to_csv", _count_csv_bytes),
            (report.ReproductionReport, "to_json_dict", "report.to_json_dict", None),
        ]
        for owner, attr, name, count in methods:
            original = owner.__dict__[attr]
            if isinstance(original, classmethod):
                replacement = classmethod(self.wrap(name, original.__func__, count))
            else:
                replacement = self.wrap(name, original, count)
            setattr(owner, attr, replacement)
            self._restore.append((owner, attr, original))

        # run_scenario looks scenarios up in this dict on every call
        for scenario, original in list(reproduce.SCENARIOS.items()):
            reproduce.SCENARIOS[scenario] = self.wrap(f"reproduce.{scenario}", original)
            self._restore.append((reproduce.SCENARIOS, scenario, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore = []
