"""Per-layer metrics and the self-time table, from one traced run.

A span's layer is its name up to the last dot (``core.cache.get`` is in
``core.cache``).  A span's self time is its duration minus the time of
its direct child spans and of the aggregated hot calls made under it;
summed over the main process, self times attribute each traced second
to exactly one layer.  Worker-side spans run in pool processes, beside
the main process's ``core.executor.execute`` span, so their time is
reported apart and does not count toward coverage.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Tuple

#: Spans that are not a layer: the CLI entry point that encloses a run
#: and the tracer's own hook installation.
NOT_LAYERS = ("cli.main", "trace.hooks")

#: (metric, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("import.repro_cli_s", "s"),
    ("import.scipy_s", "s"),
    ("layout.read_s", "s"),
    ("layout.polygons", "count"),
    ("core.hierarchical.prefracture_s", "s"),
    ("core.executor.plan_s", "s"),
    ("core.executor.execute_s", "s"),
    ("core.executor.busy_s", "s"),
    ("core.executor.utilization", "ratio"),
    ("core.executor.shards", "count"),
    ("core.executor.retries", "count"),
    ("fracture.fracture_s", "s"),
    ("fracture.analyze_s", "s"),
    ("geometry.sweep_s", "s"),
    ("geometry.merge_s", "s"),
    ("geometry.kernel_fallbacks", "count"),
    ("pec.correct_s", "s"),
    ("pec.operator_s", "s"),
    ("pec.iterations", "count"),
    ("core.cache.key_s", "s"),
    ("core.cache.get_s", "s"),
    ("core.cache.put_s", "s"),
    ("core.cache.get_blob_s", "s"),
    ("core.cache.put_blob_s", "s"),
    ("core.cache.hit_ratio", "ratio"),
    ("core.cache.hits", "count"),
    ("core.cache.lookups", "count"),
    ("core.cache.spill_bytes", "bytes"),
    ("core.pipeline.self_s", "s"),
    ("core.jobfile.write_s", "s"),
    ("machine.write_time_s", "s"),
    ("machine.export_s", "s"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
)


def layer_of(name: str) -> str:
    return name.rpartition(".")[0]


class Trace:
    """The spans of one traced run, indexed for the metrics below."""

    def __init__(self, path: Path) -> None:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        self.main_pid = data["otherData"]["main_pid"]
        self.missing_hooks = data["otherData"]["missing_hooks"]
        self.spans = [e for e in data["traceEvents"] if e["ph"] == "X"]
        child_us: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            parent = span["args"]["parent"]
            # A worker's root span names the span open when the pool
            # forked, but runs beside it, not inside it.
            if parent is not None and parent // 1_000_000 == span["pid"]:
                child_us[parent] += span["dur"]
        self.self_s: Dict[int, float] = {}
        for span in self.spans:
            aggregated = sum(
                a["ns"] / 1e3 for a in span["args"].get("aggregates", {}).values()
            )
            own = span["dur"] - child_us[span["args"]["id"]] - aggregated
            self.self_s[span["args"]["id"]] = max(own, 0.0) / 1e6

    def total_s(self, *names: str) -> float:
        """Summed duration of the named spans (any process)."""
        return sum(s["dur"] for s in self.spans if s["name"] in names) / 1e6

    def aggregate_s(self, name: str) -> float:
        """Summed time of an aggregated hot call."""
        return sum(
            s["args"].get("aggregates", {}).get(name, {}).get("ns", 0)
            for s in self.spans
        ) / 1e9

    def counter(self, key: str) -> float:
        """Summed counter recorded on span arguments."""
        return sum(s["args"].get(key, 0) for s in self.spans)

    def self_by_layer(self) -> Dict[str, Dict[str, float]]:
        """``{layer: {"main": s, "workers": s, "calls": n}}`` of self time."""
        table: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"main": 0.0, "workers": 0.0, "calls": 0}
        )
        for span in self.spans:
            if span["name"] in NOT_LAYERS:
                continue
            side = "main" if span["pid"] == self.main_pid else "workers"
            row = table[layer_of(span["name"])]
            row[side] += self.self_s[span["args"]["id"]]
            row["calls"] += 1
        for span in self.spans:
            side = "main" if span["pid"] == self.main_pid else "workers"
            for name, agg in span["args"].get("aggregates", {}).items():
                row = table[layer_of(name)]
                row[side] += agg["ns"] / 1e9
                row["calls"] += agg["calls"]
        return dict(table)

    def attributed_s(self) -> float:
        """Main-process time the layer spans attribute."""
        return sum(row["main"] for row in self.self_by_layer().values())


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative ``scipy`` import time from ``-X importtime`` output.

    The log lists each module after the modules its import pulled in,
    one indentation level deeper; the outermost ``scipy`` entries on
    every branch are summed, so nested ``scipy.*`` imports count once.
    """
    pattern = re.compile(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)")
    pending: List[Tuple[int, str, int, list]] = []
    for line in importtime_log.splitlines():
        match = pattern.match(line)
        if match is None:
            continue
        depth = len(match.group(2))
        node = (depth, match.group(3), int(match.group(1)), [])
        while pending and pending[-1][0] > depth:
            node[3].append(pending.pop())
        pending.append(node)

    def outermost(node) -> int:
        _, name, cumulative_us, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cumulative_us
        return sum(outermost(child) for child in children)

    return sum(outermost(node) for node in pending) / 1e6


def per_layer_metrics(trace: Trace, importtime_log: str, traced_wall_s: float,
                      untraced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric of one traced run.

    ``traced_wall_s`` is that run's process wall time; the overhead
    compares it with ``untraced_wall_s`` of the same command untraced.
    """
    execute_s = trace.total_s("core.executor.execute")
    busy_s = trace.total_s("core.executor.shard")
    workers = max(trace.counter("workers"), 1)
    hits = trace.counter("cache_hits")
    lookups = hits + trace.counter("cache_misses")
    pipeline = ("core.pipeline.run", "core.pipeline.run_streaming")
    return {
        "import.repro_cli_s": trace.total_s("import.repro_cli"),
        "import.scipy_s": scipy_import_s(importtime_log),
        "layout.read_s": trace.total_s("layout.read_gdsii", "layout.open_layout_stream")
        + trace.aggregate_s("layout.iter_flat"),
        "layout.polygons": trace.counter("source_polygons"),
        "core.hierarchical.prefracture_s": trace.total_s(
            "core.hierarchical.fracture_hierarchical"
        ),
        "core.executor.plan_s": trace.total_s("core.executor.plan"),
        "core.executor.execute_s": execute_s,
        "core.executor.busy_s": busy_s,
        "core.executor.utilization": (
            busy_s / (execute_s * workers) if execute_s > 0 else 0.0
        ),
        "core.executor.shards": trace.counter("shards"),
        "core.executor.retries": trace.counter("retries"),
        "fracture.fracture_s": trace.total_s("fracture.fracture_to_shots"),
        "fracture.analyze_s": trace.total_s("fracture.analyze_figures"),
        "geometry.sweep_s": trace.total_s("geometry.sweep_trapezoids_fast"),
        "geometry.merge_s": trace.total_s("geometry.merge_trapezoids"),
        "geometry.kernel_fallbacks": trace.counter("kernel_fallbacks"),
        "pec.correct_s": trace.total_s("pec.correct"),
        "pec.operator_s": trace.total_s("pec.build_exposure_operator"),
        "pec.iterations": trace.counter("iterations"),
        "core.cache.key_s": trace.total_s(
            "core.cache.key_for", "core.cache.program_key_for"
        ),
        "core.cache.get_s": trace.total_s("core.cache.get"),
        "core.cache.put_s": trace.total_s("core.cache.put"),
        "core.cache.get_blob_s": trace.total_s("core.cache.get_blob"),
        "core.cache.put_blob_s": trace.total_s("core.cache.put_blob"),
        "core.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "core.cache.hits": hits,
        "core.cache.lookups": lookups,
        "core.cache.spill_bytes": trace.counter("spill_bytes"),
        "core.pipeline.self_s": sum(
            trace.self_s[s["args"]["id"]] for s in trace.spans if s["name"] in pipeline
        ),
        "core.jobfile.write_s": trace.total_s(
            "core.jobfile.write_job", "core.jobfile.JobFileWriter"
        )
        + trace.aggregate_s("core.jobfile.write_shot"),
        "machine.write_time_s": trace.total_s("machine.write_time"),
        "machine.export_s": trace.total_s("machine.export_program"),
        "trace.coverage": trace.attributed_s() / traced_wall_s,
        "trace.overhead": traced_wall_s / untraced_wall_s - 1.0,
    }


def self_time_table(trace: Trace, traced_wall_s: float) -> str:
    """Per-layer self time of one traced run, largest first."""
    rows = sorted(trace.self_by_layer().items(), key=lambda kv: -kv[1]["main"])
    lines = [
        f"{'layer':<20} {'self s':>9} {'share':>7} {'worker s':>9} {'calls':>8}",
        "-" * 57,
    ]
    for layer, row in rows:
        lines.append(
            f"{layer:<20} {row['main']:>9.4f} {row['main'] / traced_wall_s:>7.1%} "
            f"{row['workers']:>9.4f} {int(row['calls']):>8}"
        )
    # What no layer attributes: the CLI's own argument parsing and
    # printing, the tracer installing its hooks, and interpreter start-up
    # and exit around them.
    cli = sum(trace.self_s[s["args"]["id"]] for s in trace.spans if s["name"] == "cli.main")
    hooks = trace.total_s("trace.hooks")
    rest = traced_wall_s - trace.attributed_s() - cli - hooks
    for label, seconds in (("(cli, unlayered)", cli), ("(tracer hooks)", hooks),
                           ("(start-up, exit)", rest)):
        lines.append(f"{label:<20} {seconds:>9.4f} {seconds / traced_wall_s:>7.1%}")
    return "\n".join(lines)
