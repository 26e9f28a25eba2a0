"""Spans around the benchmark's calls into each bufchem layer.

A span records (name, start, end, parent span, item id, attributes).
Spans stay in memory and are written out once, when the run ends.  The
untimed end-to-end runs use NULL, whose span() costs one attribute
lookup and returns a shared no-op context manager.
"""
from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager, nullcontext

COMMANDS = ("kinetics", "classify", "equilibria", "design", "simulate",
            "audit")

# (metric, unit, the workload whose pass gives it): each metric comes from
# one workload, so that it means the same in every traced run (see README)
LAYER_METRICS = [
    ("kinetics.break_even_us", "us", "sweep"),
    ("kinetics.break_even_generic_us", "us", "generic"),
    ("kinetics.rate_evals_per_item", "count", "generic"),
    ("buffered.find_equilibria_ms", "ms", "sweep"),
    ("multiplicity.split_threshold_ms", "ms", "sweep"),
    ("design.buffer_design_ms", "ms", "sweep"),
    ("simulate.basin_probe_ms_per_start", "ms", "basin"),
    ("simulate.invasion_probe_ms", "ms", "generic"),
    ("simulate.integrate_us_per_step", "us", "basin"),
    ("simulate.steps_per_traj", "count", "basin"),
    ("simulate.accepted_ratio", "ratio", "basin"),
    ("config.parse_config_us", "us", "cli"),
    ("io.write_trajectory_csv_ms", "ms", "cli"),
    ("cli.import_ms", "ms", "cli"),
] + [(f"cli.main_ms.{c}", "ms", "cli") for c in COMMANDS]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, item, attrs]
        self.counters: dict[str, int] = {}
        self.item = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **attrs):
        rec = [name, time.perf_counter(), None,
               self._stack[-1] if self._stack else None, self.item, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield attrs
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def add(self, spans: list, item) -> None:
        """Adopt spans recorded by a child process, under item."""
        base = len(self.spans)
        for name, t0, t1, parent, _, attrs in spans:
            self.spans.append([name, t0, t1,
                               None if parent is None else base + parent,
                               item, attrs])

    def durations(self, name: str) -> list[float]:
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


class _Null:
    def span(self, name: str, **attrs):
        return _NULL_CONTEXT


_NULL_CONTEXT = nullcontext({})
NULL = _Null()


def _median(values, scale):
    return statistics.median(values) * scale if values else None


def layer_metrics(tracers: dict, items: dict) -> dict:
    """Per-layer metrics from the tracers of each workload pass.

    tracers maps each workload that ran to its Tracer, and items to the
    number of items that pass completed.
    """
    def value(metric: str, wl: str):
        tr = tracers[wl]
        if metric == "kinetics.rate_evals_per_item":
            return tr.counters["rate_evals"] / items[wl]
        if metric in ("simulate.basin_probe_ms_per_start",
                      "simulate.invasion_probe_ms"):
            return _median([(s[2] - s[1]) / s[5]["starts"] for s in tr.spans
                            if s[0] == "simulate.basin_probe"], 1e3)
        if metric.startswith("simulate."):
            runs = [s[5] for s in tr.spans if s[0] == "simulate.integrate"]
            steps = sum(a["accepted"] + a["rejected"] for a in runs)
            if metric == "simulate.steps_per_traj":
                return steps / len(runs)
            if metric == "simulate.accepted_ratio":
                return sum(a["accepted"] for a in runs) / steps
            return sum(tr.durations("simulate.integrate")) / steps * 1e6
        if metric.startswith("cli.main_ms."):
            cmd = metric.rsplit(".", 1)[1]
            return _median([s[2] - s[1] for s in tr.spans
                            if s[0] == "cli.main"
                            and s[5]["command"] == cmd], 1e3)
        name, unit = metric.rsplit("_", 1)
        if name.endswith("_generic"):
            name = name[:-len("_generic")]
        scale = {"us": 1e6, "ms": 1e3}[unit]
        return _median(tr.durations(name), scale)

    return {metric: (value(metric, wl), unit)
            for metric, unit, wl in LAYER_METRICS}
