"""In-process spans around calls into fjlab's layers, from outside the package.

A layer is a module of ``src/fjlab``.  The tracer replaces a public
function at every fjlab module attribute that holds it, which is where
callers look it up at call time (``fjlab.metrics.influence_weights``,
``fjlab.cli.fit_sample``, ...), with a wrapper that records a span:
name, start, end and the index of the enclosing span.  Spans stay in
memory until the repetition ends.  Only the benchmark's own timer
(``time.perf_counter``) is used; no system-wide tracer is involved.
"""

from __future__ import annotations

import importlib
import math
import sys
from time import perf_counter

# (span name, defining module, function, metrics reported).  The span name
# is the layer metric prefix: "<module>.<function>", or "verify.<check>" for
# a check.  Metrics: "calls" (count), "s" (busy time), "self_s" (busy time
# minus the child spans it encloses).
LAYERS = (
    ("estimation.fit_sample", "fjlab.estimation", "fit_sample", ("calls", "s")),
    ("estimation.fit_global", "fjlab.estimation", "fit_global", ("calls", "s")),
    ("dynamics.spectral_radius", "fjlab.dynamics", "spectral_radius", ("calls", "s")),
    ("dynamics.influence_weights", "fjlab.dynamics", "influence_weights", ("calls", "s")),
    ("dynamics.simulate", "fjlab.dynamics", "simulate", ("calls", "s")),
    ("dynamics.equilibrium", "fjlab.dynamics", "equilibrium", ("calls", "s")),
    # compare's fallback: no workload takes it, so only its calls are counted
    ("dynamics.settle", "fjlab.dynamics", "settle", ("calls",)),
    ("model.validate_snapshot", "fjlab.model", "validate_snapshot", ("calls", "s")),
    ("metrics.trajectory_metrics", "fjlab.metrics", "trajectory_metrics", ("calls", "s", "self_s")),
    ("io.save_trajectories", "fjlab.io", "save_trajectories", ("s",)),
    ("io.load_trajectories", "fjlab.io", "load_trajectories", ("calls", "s")),
    ("io.write_csv", "fjlab.io", "write_csv", ("s",)),
    ("io.atomic_write_json", "fjlab.io", "atomic_write_json", ("s",)),
    ("verify.influence_consistency", "fjlab.verify", "check_influence_consistency", ("s",)),
    ("verify.ambiguity_identity", "fjlab.verify", "check_ambiguity_identity", ("s",)),
    ("verify.diversity_forms", "fjlab.verify", "check_diversity_forms", ("s",)),
    ("verify.exclusive_scenario", "fjlab.verify", "check_exclusive_scenario", ("s",)),
    ("verify.routing_threshold", "fjlab.verify", "check_routing_threshold", ("s",)),
    ("verify.imperfect_scenario", "fjlab.verify", "check_imperfect_scenario", ("s",)),
    ("verify.condition_outcome_consistency", "fjlab.verify", "check_condition_outcome", ("s",)),
    ("scenarios.gen_exclusive", "fjlab.scenarios", "gen_exclusive", ("s",)),
    ("scenarios.gen_imperfect", "fjlab.scenarios", "gen_imperfect", ("s",)),
    ("scenarios.empirical_route_crossover", "fjlab.scenarios", "empirical_route_crossover", ("s",)),
)

# Counters the fit observer fills, with their starting values.
FIT_COUNTERS = {
    "estimation.iterations": 0,
    "estimation.iter_cap_hits": 0,
    "estimation.fit_mse_max": 0.0,
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith(".calls") or name in ("estimation.iterations", "estimation.iter_cap_hits"):
        return "count"
    if name == "io.trajectories_bytes":
        return "bytes"
    if name == "estimation.fit_mse_max":
        return "1"
    return "s"


class Tracer:
    """Spans as [name, start, end, parent index], parent -1 for a root."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters = dict(FIT_COUNTERS)
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> list:
        record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def end(self, record: list) -> None:
        record[2] = perf_counter()
        self._open.pop()

    def wrap(self, name: str, fn, observe=None):
        begin, end = self.begin, self.end

        def traced(*args, **kwargs):
            record = begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(record)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def install(self) -> list[str]:
        """Wrap every layer function at each fjlab module attribute holding
        it; returns the layers no attribute held (nothing to trace)."""
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "fjlab" or key.startswith("fjlab."))
        ]
        missing = []
        for name, module_name, attr, _ in LAYERS:
            original = getattr(importlib.import_module(module_name), attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original, OBSERVERS.get(name))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))
        return missing

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def metrics(self, stages) -> dict[str, float]:
        """Per-layer totals from the recorded spans and counters, plus the
        wall and self time of each ``cli.<stage>`` span."""
        covered = [0.0] * len(self.spans)
        for _, start, stop, parent in self.spans:
            if parent >= 0:
                # calls are synchronous, so sibling spans never overlap and
                # their summed durations are the part of the parent they cover
                covered[parent] += stop - start
        count: dict[str, int] = {}
        busy: dict[str, float] = {}
        own: dict[str, float] = {}
        for (name, start, stop, _), child in zip(self.spans, covered):
            count[name] = count.get(name, 0) + 1
            busy[name] = busy.get(name, 0.0) + (stop - start)
            own[name] = own.get(name, 0.0) + (stop - start - child)
        out: dict[str, float] = {}
        for name, _, _, kinds in LAYERS:
            if "calls" in kinds:
                out[f"{name}.calls"] = count.get(name, 0)
            if "s" in kinds:
                out[f"{name}_s"] = busy.get(name, 0.0)
            if "self_s" in kinds:
                out[f"{name}.self_s"] = own.get(name, 0.0)
        for stage in stages:
            out[f"cli.{stage}_s"] = busy.get(f"cli.{stage}", 0.0)
            out[f"cli.{stage}.self_s"] = own.get(f"cli.{stage}", 0.0)
        out.update(self.counters)
        return out


def _observe_fit(tracer: Tracer, args, kwargs, report) -> None:
    """Iterations of the winning restart, iteration-cap hits and worst MSE."""
    config = args[1] if len(args) > 1 else kwargs.get("config")
    if config is None:
        from fjlab.estimation import FitConfig

        config = FitConfig()
    iterations = len(report.objective_curve) - 1
    counters = tracer.counters
    counters["estimation.iterations"] += iterations
    counters["estimation.iter_cap_hits"] += int(iterations >= config.max_iters)
    if math.isfinite(report.mse):
        counters["estimation.fit_mse_max"] = max(counters["estimation.fit_mse_max"], report.mse)


OBSERVERS = {
    "estimation.fit_sample": _observe_fit,
    "estimation.fit_global": _observe_fit,
}
