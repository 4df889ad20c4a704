"""Stage tracer for the benchmark's traced run.

Wrappers are installed on the module attributes that callers look up at call
time: a name imported with `from ... import` lives in the caller's namespace
(`fewmeta.cli.load_csv`, `fewmeta.simulation.t_quantile`), so that is where it
is wrapped. Nothing under `src/` is edited. Spans are kept in memory with the
index of their parent span and written out at the end; a stage's self time is
its span minus the time its child spans cover.

Stage names follow the ROADMAP: analysis is load -> select -> tau^2 ->
intervals -> report, simulation is draw -> tau^2 batch -> CI batch ->
per-scenario aggregation -> write.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

STAGES = (
    "cli.dispatch",
    "data.load",
    "selection.select",
    "selection.histogram",
    "estimators.tau2",
    "intervals.intervals",
    "intervals.t_quantile",
    "report.report",
    "simulation.rng",
    "simulation.draw",
    "simulation.tau2_batch",
    "simulation.ci_batch",
    "simulation.aggregate",
    "simulation.write",
)

# (module, attribute, stage). `workloads` is the benchmark's own module: its
# invoke_cli is the CLI entry and write_grid_outputs the simulate write step.
HOOKS = (
    ("workloads", "invoke_cli", "cli.dispatch"),
    ("fewmeta.cli", "load_csv", "data.load"),
    ("fewmeta.cli", "select_splits", "selection.select"),
    ("fewmeta.cli", "qs_histogram", "selection.histogram"),
    ("fewmeta.cli", "write_histogram_csv", "selection.histogram"),
    ("fewmeta.cli", "build_report", "report.report"),
    ("fewmeta.cli", "report_to_json", "report.report"),
    ("fewmeta.cli", "render_text", "report.report"),
    ("fewmeta.cli", "write_atomic", "report.report"),
    ("fewmeta.report", "all_tau2", "estimators.tau2"),
    ("fewmeta.report", "run_all_methods", "intervals.intervals"),
    ("fewmeta.intervals", "t_quantile", "intervals.t_quantile"),
    ("fewmeta.simulation", "t_quantile", "intervals.t_quantile"),
    ("fewmeta.simulation", "scenario_rng", "simulation.rng"),
    ("fewmeta.simulation", "_draw_replicates", "simulation.draw"),
    ("fewmeta.simulation", "_tau2_batch", "simulation.tau2_batch"),
    ("fewmeta.simulation", "_ci_batch", "simulation.ci_batch"),
    ("fewmeta.simulation", "run_scenario", "simulation.aggregate"),
    ("workloads", "write_grid_outputs", "simulation.write"),
)

# calls counted without a span: the bisection work inside t_quantile
COUNTED = (("fewmeta.intervals", "student_t_cdf", "intervals.student_t_cdf.calls"),)

# counts the workloads' output checks take; the tracer adds its own below
CHECK_COUNTS = (
    "intervals.method_errors",
    "selection.combinations_evaluated",
    "simulation.replicates",
    "simulation.rows_written",
    "simulation.ci_failures",
)

# every per-layer metric: (name, unit, better)
PER_LAYER = tuple(
    entry
    for stage in STAGES
    for entry in (
        (f"{stage}.self_s", "s", "lower"),
        (f"{stage}.calls", "count", "lower"),
        (f"{stage}.share", "fraction", "lower"),
    )
) + (
    ("intervals.t_quantile.total_s", "s", "lower"),
    ("intervals.student_t_cdf.calls", "count", "lower"),
    ("intervals.t_quantile.distinct_pairs", "count", "lower"),
    ("intervals.t_quantile.distinct_ratio", "fraction", "lower"),
    ("intervals.method_errors", "count", "lower"),
    ("selection.combinations_evaluated", "count", "lower"),
    ("simulation.replicates", "count", "higher"),
    ("simulation.draw.bytes_computed", "bytes", "lower"),
    ("simulation.rows_written", "count", "higher"),
    ("simulation.ci_failures", "count", "lower"),
    ("trace.ops", "count", "higher"),
    ("trace.wall_s", "s", "lower"),
    ("trace.unattributed_s", "s", "lower"),
    ("trace.unattributed_share", "fraction", "lower"),
    ("trace.untraced_ops_per_s", "1/s", "higher"),
    ("trace.traced_ops_per_s", "1/s", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
)

# per-layer counts that must repeat exactly for a given seed
EXACT = tuple(
    name for name, unit, _ in PER_LAYER if unit in ("count", "bytes") and not name.startswith("trace.")
)


class Tracer:
    def __init__(self):
        self.spans = []  # [stage, parent index or -1, start, end]
        self.counts = Counter()
        self.pairs = set()  # distinct (df, p) asked of t_quantile
        self.missing = []  # hooks whose attribute no longer exists
        self._open = []
        self._restore = []

    def _span(self, fn, stage, tap=None):
        spans, open_, clock = self.spans, self._open, time.perf_counter

        def traced(*args, **kwargs):
            span = [stage, open_[-1] if open_ else -1, clock(), 0.0]
            open_.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                open_.pop()
            if tap is not None:
                tap(args, result)
            return result

        return traced

    def _counted(self, fn, key):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def _tap(self, stage):
        if stage == "intervals.t_quantile":
            return lambda args, result: self.pairs.add(tuple(args[:2]))
        if stage == "simulation.draw":
            counts = self.counts
            return lambda args, result: counts.update(
                {"simulation.draw.bytes_computed": sum(a.nbytes for a in result)})
        return None

    def _replace(self, module_name, attr, make):
        module = importlib.import_module(module_name)
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module_name}.{attr}")
            return
        setattr(module, attr, make(original))
        self._restore.append((module, attr, original))

    def install(self):
        for module_name, attr, stage in HOOKS:
            self._replace(module_name, attr, lambda fn, s=stage: self._span(fn, s, self._tap(s)))
        for module_name, attr, key in COUNTED:
            self._replace(module_name, attr, lambda fn, k=key: self._counted(fn, k))

    def uninstall(self):
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def stage_times(self):
        """Per stage: (self seconds, calls, total seconds of outermost spans)."""
        child = [0.0] * len(self.spans)
        for stage, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {s: [0.0, 0, 0.0] for s in STAGES}
        for idx, (stage, parent, start, end) in enumerate(self.spans):
            entry = out[stage]
            entry[0] += end - start - child[idx]
            entry[1] += 1
            if parent < 0 or self.spans[parent][0] != stage:
                entry[2] += end - start
        return out

    def metrics(self, wall: float, check_counts: dict) -> dict:
        """Per-layer metrics of a traced phase of `wall` timed seconds."""
        values = {}
        attributed = 0.0
        for stage, (self_s, calls, total) in self.stage_times().items():
            values[f"{stage}.self_s"] = self_s
            values[f"{stage}.calls"] = calls
            values[f"{stage}.share"] = self_s / wall
            attributed += self_s
            if stage == "intervals.t_quantile":
                values["intervals.t_quantile.total_s"] = total
        calls = values["intervals.t_quantile.calls"]
        values["intervals.student_t_cdf.calls"] = self.counts["intervals.student_t_cdf.calls"]
        values["intervals.t_quantile.distinct_pairs"] = len(self.pairs)
        values["intervals.t_quantile.distinct_ratio"] = len(self.pairs) / calls if calls else 0.0
        values["simulation.draw.bytes_computed"] = self.counts["simulation.draw.bytes_computed"]
        for name in CHECK_COUNTS:
            values[name] = check_counts.get(name, 0)
        values["trace.wall_s"] = wall
        values["trace.unattributed_s"] = wall - attributed
        values["trace.unattributed_share"] = (wall - attributed) / wall
        return values

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (stage, parent, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": idx, "parent": parent, "stage": stage,
                                     "start": start, "end": end}) + "\n")
