"""Spans and counts for the traced run, recorded from outside the program.

The tracer replaces each public function named in TARGETS by a wrapper on
every lobfluid module attribute that refers to it (for example both
`lobfluid.experiments.simulate` and `lobfluid.cli.simulate`), so each call
is seen at the binding its caller actually uses. A span is (name, start,
end, parent, op): parent is the index of the enclosing span or None, op the
operation id. Spans stay in memory until the run ends. Counts are read from
what the functions return or raise.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter
from dataclasses import dataclass

from workloads import residual_bound

SHOOTING_CAP = 600  # solve_shooting's bisection step cap


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s.start
        for c in sorted(children.get(i, []), key=lambda c: c.start):
            lo, hi = max(c.start, reach), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


def _count_simulate(counts, args, result, exc):
    from lobfluid.errors import BudgetExceeded

    if isinstance(exc, BudgetExceeded):
        counts["simulate.budget_exceeded"] += 1
    if result is not None:
        counts["simulate.events"] += result.n_events


def _count_integrate(counts, args, result, exc):
    if result is not None:
        counts["ode.integrate.nfev"] += result.n_rhs_evals


def _count_stationary(counts, args, result, exc):
    if result is not None:
        counts["ode.integrate_until_stationary.converged"] += bool(result[1])


def _count_fixed_point(solver):
    def count(counts, args, result, exc):
        from lobfluid.errors import NoConvergence

        if isinstance(exc, NoConvergence):
            counts[f"fixed_point.{solver}.no_convergence"] += 1
        if result is None:
            return
        counts[f"fixed_point.{solver}.iterations"] += result.iterations
        if solver == "solve_shooting" and result.iterations >= SHOOTING_CAP:
            counts["fixed_point.solve_shooting.cap_hits"] += 1
        params = args[0]
        if not result.residual <= residual_bound(params.lambda_b, params.lambda_s):
            counts["fixed_point.residual_fail"] += 1
    return count


def _count_bytes(counts, args, result, exc):
    if exc is None:
        counts["output.bytes"] += os.path.getsize(args[0])


# (module, function, span name, counter)
TARGETS = [
    ("lobfluid.cli", "main", "cli.main", None),
    ("lobfluid.experiments", "fluid_convergence",
     "experiments.fluid_convergence", None),
    ("lobfluid.simulate", "simulate", "simulate.simulate", _count_simulate),
    ("lobfluid.ode", "integrate", "ode.integrate", _count_integrate),
    ("lobfluid.ode", "integrate_until_stationary",
     "ode.integrate_until_stationary", _count_stationary),
    ("lobfluid.ode", "check_comparison", "ode.check_comparison", None),
    ("lobfluid.fixed_point", "solve_recursive", "fixed_point.solve_recursive",
     _count_fixed_point("solve_recursive")),
    ("lobfluid.fixed_point", "solve_shooting", "fixed_point.solve_shooting",
     _count_fixed_point("solve_shooting")),
] + [
    # the writers the CLI calls; write_csv is their shared helper, left
    # unwrapped so each file is one span
    ("lobfluid.output", name, "output.write", _count_bytes)
    for name in ("write_manifest", "write_solution_csv", "write_trajectory_csv",
                 "write_fixed_point_csv", "write_convergence_csv",
                 "write_equilibrium_csv", "write_sweep_csv")
]

TIMED = ["cli.main", "output.write", "experiments.fluid_convergence",
         "simulate.simulate", "ode.integrate", "ode.integrate_until_stationary",
         "ode.check_comparison", "fixed_point.solve_recursive",
         "fixed_point.solve_shooting"]

# every per-layer metric of the traced run, in BENCHMARK.json order
LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.inputs_s": "s",
    "cli.main.self_s": "s",
    "output.write.self_s": "s",
    "output.write.calls": "count",
    "output.bytes": "B",
    "experiments.fluid_convergence.self_s": "s",
    "simulate.simulate.self_s": "s",
    "simulate.simulate.calls": "count",
    "simulate.events": "count",
    "simulate.events_per_s": "1/s",
    "simulate.budget_exceeded": "count",
    "ode.integrate.self_s": "s",
    "ode.integrate.calls": "count",
    "ode.integrate.nfev": "count",
    "ode.integrate_until_stationary.self_s": "s",
    "ode.integrate_until_stationary.calls": "count",
    "ode.stationary_ratio": "ratio",
    "ode.check_comparison.self_s": "s",
    "ode.check_comparison.calls": "count",
    "fixed_point.solve_recursive.self_s": "s",
    "fixed_point.solve_recursive.calls": "count",
    "fixed_point.solve_recursive.iterations": "count",
    "fixed_point.solve_recursive.no_convergence": "count",
    "fixed_point.solve_shooting.self_s": "s",
    "fixed_point.solve_shooting.calls": "count",
    "fixed_point.solve_shooting.iterations": "count",
    "fixed_point.solve_shooting.cap_hits": "count",
    "fixed_point.residual_fail": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op: int | None = None

    def begin(self, op: int) -> None:
        """Open the root span of operation `op`; spans are recorded only
        between begin and end, so checks made after an operation are not."""
        self._op = op
        self._stack.append(len(self.spans))
        self.spans.append(Span("op", time.perf_counter(), 0.0, None, op))

    def end(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()
        self._op = None

    def _wrap(self, fn, name, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            span = Span(name, time.perf_counter(), 0.0,
                        self._stack[-1] if self._stack else None, self._op)
            self.spans.append(span)
            self._stack.append(idx)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as e:
                exc = e
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if count is not None:
                    count(self.counts, args, result, exc)
        return traced

    def install(self) -> None:
        """Wrap every target on every loaded lobfluid module that binds it.
        Modules not loaded yet are skipped, never imported."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "lobfluid" or n.startswith("lobfluid."))]
        for mod_name, attr, name, count in TARGETS:
            home = sys.modules.get(mod_name)
            if home is None:
                continue
            fn = getattr(home, attr)
            traced = self._wrap(fn, name, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, traced)

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics this tracer measures (all of LAYER_UNITS
        but set-up and overhead); a layer never called reads 0."""
        self_s = Counter()
        total_s = Counter()
        calls = Counter()
        for span, own in zip(self.spans, self_times(self.spans)):
            self_s[span.name] += own
            total_s[span.name] += span.end - span.start
            calls[span.name] += 1
        values = dict(self.counts)
        for name in TIMED:
            values[f"{name}.self_s"] = self_s[name]
            values[f"{name}.calls"] = calls[name]
        if total_s["simulate.simulate"]:
            values["simulate.events_per_s"] = (
                self.counts["simulate.events"] / total_s["simulate.simulate"])
        if calls["ode.integrate_until_stationary"]:
            values["ode.stationary_ratio"] = (
                self.counts["ode.integrate_until_stationary.converged"]
                / calls["ode.integrate_until_stationary"])
        return {name: values.get(name, 0) for name in LAYER_UNITS
                if not name.startswith(("setup.", "trace."))}

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s.__dict__) + "\n")
