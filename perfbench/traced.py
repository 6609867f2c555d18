"""Run one ``repro-ebl`` command in this process, with spans around its layers.

    python3 perfbench/traced.py --trace-out TRACE.json -- prep in.gds [options]

The benchmark's timed runs launch the CLI untouched; this script is their
traced twin.  It imports ``repro.cli`` inside a span, wraps the public
functions each layer exposes (``repro`` itself is not modified; the
wrappers replace module and class attributes in this process only),
calls ``repro.cli.main`` with the arguments after ``--`` and writes
every span to ``TRACE.json`` in the Chrome trace-event format, which
Perfetto (https://ui.perfetto.dev) and ``chrome://tracing`` open as is.

Each span has a name, start, end, parent span id and pid.  Calls made
tens of thousands of times per run (streamed job-file records, layout
cursor steps) are not spans: their time and call count are summed into
the ``aggregates`` argument of the span that was open when they ran.

Pool workers are forked from this process, so they inherit the wrappers.
A worker appends its finished spans to a spool file whenever its
outermost span ends; the spool files are folded into the trace after
``main`` returns.  A worker's root spans name as parent the span that
was open here when the pool forked.

Exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import shutil
import sys
import threading
import time
from pathlib import Path

ORIGIN_NS = time.perf_counter_ns()


class Recorder:
    """Spans of this process (and, after a fork, of the child)."""

    def __init__(self, spool_dir: Path) -> None:
        self.spool_dir = spool_dir
        self.main_pid = os.getpid()
        self._reset(fork_parent=None)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, fork_parent) -> None:
        self.pid = os.getpid()
        self.finished: list = []
        self.stack: list = []
        self.fork_parent = fork_parent
        self.serial = 0

    def _after_fork(self) -> None:
        self._reset(self.stack[-1]["id"] if self.stack else None)

    def traceable(self, name: str) -> bool:
        """Record only the main thread, and only the outermost span of a
        name (a subclass calling ``super()`` or one executor entry point
        calling another is one span)."""
        if threading.current_thread() is not threading.main_thread():
            return False
        return all(span["name"] != name for span in self.stack)

    def open(self, name: str) -> dict:
        span = {
            "name": name,
            "id": self.pid * 1_000_000 + self.serial,
            "parent": self.stack[-1]["id"] if self.stack else self.fork_parent,
            "pid": self.pid,
            "args": {},
            "start": time.perf_counter_ns(),
        }
        self.serial += 1
        self.stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter_ns()
        self.stack.pop()
        self.finished.append(span)
        if not self.stack and self.pid != self.main_pid:
            self.flush()

    def aggregate(self, name: str, elapsed_ns: int) -> None:
        if not self.stack:
            return
        totals = self.stack[-1]["args"].setdefault("aggregates", {})
        entry = totals.setdefault(name, {"calls": 0, "ns": 0})
        entry["calls"] += 1
        entry["ns"] += elapsed_ns

    def flush(self) -> None:
        """Append finished spans to this process's spool file."""
        path = self.spool_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.finished:
                handle.write(json.dumps(span) + "\n")
        self.finished = []


def span_wrapper(recorder: Recorder, name: str, fn, on_result=None):
    """``fn`` inside a span; ``on_result(span_args, call_args, result)``
    may record counters from the result."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not recorder.traceable(name):
            return fn(*args, **kwargs)
        span = recorder.open(name)
        try:
            result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(span["args"], args, result)
            return result
        finally:
            recorder.close(span)

    return wrapper


def aggregate_wrapper(recorder: Recorder, name: str, fn, on_result=None):
    """``fn`` timed into the open span's aggregates."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            if threading.current_thread() is threading.main_thread():
                recorder.aggregate(name, time.perf_counter_ns() - start)

    return wrapper


def generator_wrapper(recorder: Recorder, name: str, fn, on_result=None):
    """A generator function whose every step is timed into aggregates."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)

        def steps():
            while True:
                start = time.perf_counter_ns()
                try:
                    item = next(inner)
                except StopIteration:
                    recorder.aggregate(name, time.perf_counter_ns() - start)
                    return
                recorder.aggregate(name, time.perf_counter_ns() - start)
                yield item

        return steps()

    return wrapper


def _pipeline_counters(span_args: dict, call_args, result) -> None:
    stats = result.execution
    span_args["source_polygons"] = result.source_polygons
    if stats is None:
        return
    span_args.update(
        workers=stats.workers,
        shards=stats.shard_count,
        retries=(
            stats.shard_retries
            + stats.shard_timeouts
            + stats.pool_restarts
            + stats.shards_salvaged
        ),
        kernel_fallbacks=stats.kernel_fallbacks,
        cache_hits=stats.cache_hits,
        cache_misses=stats.cache_misses,
        spill_bytes=stats.spill_bytes,
    )


def _pec_counters(span_args: dict, call_args, result) -> None:
    trace = getattr(call_args[0], "last_trace", None)
    if trace is not None:
        span_args["iterations"] = trace.iterations


#: (span name, module, attribute or Class.method, wrapper, counters).
#: A span name's prefix before its last dot is its layer.
HOOKS = (
    ("layout.read_gdsii", "repro.layout.gdsii", "read_gdsii", span_wrapper, None),
    ("layout.open_layout_stream", "repro.layout.stream", "open_layout_stream",
     span_wrapper, None),
    ("layout.iter_flat", "repro.layout.stream", "LayoutStream.iter_flat",
     generator_wrapper, None),
    ("core.hierarchical.fracture_hierarchical", "repro.core.hierarchical",
     "fracture_hierarchical", span_wrapper, None),
    ("core.executor.plan", "repro.core.executor", "plan_shards", span_wrapper, None),
    ("core.executor.plan", "repro.core.executor", "plan_figure_shards",
     span_wrapper, None),
    ("core.executor.execute", "repro.core.executor", "ShardedExecutor.execute",
     span_wrapper, None),
    ("core.executor.execute", "repro.core.executor",
     "ShardedExecutor.execute_figures", span_wrapper, None),
    ("core.executor.execute", "repro.core.executor",
     "ShardedExecutor.execute_many", span_wrapper, None),
    ("core.executor.execute", "repro.core.executor",
     "ShardedExecutor.execute_stream", span_wrapper, None),
    ("core.executor.shard", "repro.core.executor", "_process_shard",
     span_wrapper, None),
    ("fracture.fracture_to_shots", "repro.fracture.base",
     "Fracturer.fracture_to_shots", span_wrapper, None),
    ("fracture.analyze_figures", "repro.fracture.quality", "analyze_figures",
     span_wrapper, None),
    ("geometry.sweep_trapezoids_fast", "repro.geometry.scanline_fast",
     "sweep_trapezoids_fast", span_wrapper, None),
    ("geometry.merge_trapezoids", "repro.geometry.scanline", "merge_trapezoids",
     span_wrapper, None),
    ("pec.correct", "repro.pec.base", "ProximityCorrector.correct",
     span_wrapper, _pec_counters),
    ("pec.build_exposure_operator", "repro.pec.operator",
     "build_exposure_operator", span_wrapper, None),
    ("core.cache.key_for", "repro.core.cache", "ShardCache.key_for",
     span_wrapper, None),
    ("core.cache.program_key_for", "repro.core.cache",
     "ShardCache.program_key_for", span_wrapper, None),
    ("core.cache.get", "repro.core.cache", "ShardCache.get", span_wrapper, None),
    ("core.cache.put", "repro.core.cache", "ShardCache.put", span_wrapper, None),
    ("core.cache.get_blob", "repro.core.cache", "ShardCache.get_blob",
     span_wrapper, None),
    ("core.cache.put_blob", "repro.core.cache", "ShardCache.put_blob",
     span_wrapper, None),
    ("core.pipeline.run", "repro.core.pipeline", "PreparationPipeline.run",
     span_wrapper, _pipeline_counters),
    ("core.pipeline.run_streaming", "repro.core.pipeline",
     "PreparationPipeline.run_streaming", span_wrapper, _pipeline_counters),
    ("core.jobfile.write_job", "repro.core.jobfile", "write_job", span_wrapper, None),
    ("core.jobfile.JobFileWriter", "repro.core.jobfile", "JobFileWriter.__init__",
     span_wrapper, None),
    ("core.jobfile.JobFileWriter", "repro.core.jobfile", "JobFileWriter.close",
     span_wrapper, None),
    ("core.jobfile.write_shot", "repro.core.jobfile", "JobFileWriter.write_shot",
     aggregate_wrapper, None),
    ("machine.write_time", "repro.machine.base", "Machine.write_time",
     span_wrapper, None),
    ("machine.export_program", "repro.machine.program", "export_program",
     span_wrapper, None),
)


def _subclasses(cls) -> list:
    found = []
    for sub in cls.__subclasses__():
        found.append(sub)
        found.extend(_subclasses(sub))
    return found


def install(recorder: Recorder) -> list:
    """Wrap every hook target; returns the targets that were not found.

    A module-level function is replaced wherever a loaded ``repro``
    module bound it by name; a method is replaced on its class and on
    every loaded subclass that overrides it.
    """
    missing = []
    for name, module_name, target, make, counters in HOOKS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            missing.append(f"{module_name}.{target}")
            continue
        owner_name, _, attr = target.rpartition(".")
        if owner_name:
            cls = getattr(module, owner_name, None)
            if cls is None or attr not in cls.__dict__:
                missing.append(f"{module_name}.{target}")
                continue
            for klass in {cls, *_subclasses(cls)}:
                if attr in klass.__dict__:
                    original = klass.__dict__[attr]
                    setattr(klass, attr, make(recorder, name, original, counters))
            continue
        original = getattr(module, attr, None)
        if original is None:
            missing.append(f"{module_name}.{target}")
            continue
        wrapped = make(recorder, name, original, counters)
        for loaded in list(sys.modules.values()):
            if (
                getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, "__dict__", {}).get(attr) is original
            ):
                setattr(loaded, attr, wrapped)
    return missing


#: Modules defining the subclasses of hooked classes that the CLI uses.
#: They are imported before the hooks go in, so those subclasses are
#: wrapped even if their package stops importing them eagerly.
SUBCLASS_MODULES = (
    "repro.machine.raster",
    "repro.machine.vector",
    "repro.machine.vsb",
    "repro.pec.dose_iter",
)


def chrome_trace(spans: list, argv: list, exit_code: int, missing: list) -> dict:
    """Spans as Chrome trace-event JSON (complete ``X`` events)."""
    events = []
    main_pid = os.getpid()
    for pid in sorted({span["pid"] for span in spans}):
        label = "repro-ebl" if pid == main_pid else "pool worker"
        events.append(
            {"ph": "M", "name": "process_name", "pid": pid, "tid": pid,
             "args": {"name": f"{label} {pid}"}}
        )
    for span in sorted(spans, key=lambda s: (s["pid"], s["start"])):
        args = dict(span["args"])
        args["id"] = span["id"]
        args["parent"] = span["parent"]
        events.append(
            {
                "name": span["name"],
                "cat": span["name"].rpartition(".")[0],
                "ph": "X",
                "ts": (span["start"] - ORIGIN_NS) / 1e3,
                "dur": (span["end"] - span["start"]) / 1e3,
                "pid": span["pid"],
                "tid": span["pid"],
                "args": args,
            }
        )
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "argv": argv,
            "exit_code": exit_code,
            "main_pid": main_pid,
            "missing_hooks": missing,
        },
    }


def main() -> int:
    args = sys.argv[1:]
    if len(args) < 3 or args[0] != "--trace-out" or args[2] != "--":
        print("usage: traced.py --trace-out TRACE.json -- <repro-ebl args>",
              file=sys.stderr)
        return 2
    trace_out = Path(args[1])
    cli_argv = args[3:]
    spool = trace_out.with_name(trace_out.name + ".spool")
    spool.mkdir(parents=True, exist_ok=True)
    recorder = Recorder(spool)

    span = recorder.open("import.repro_cli")
    import repro.cli
    recorder.close(span)

    span = recorder.open("trace.hooks")
    for module_name in SUBCLASS_MODULES:
        importlib.import_module(module_name)
    missing = install(recorder)
    recorder.close(span)

    span = recorder.open("cli.main")
    try:
        exit_code = repro.cli.main(cli_argv)
    finally:
        recorder.close(span)

    spans = list(recorder.finished)
    for path in sorted(spool.glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.loads(line) for line in handle)
    shutil.rmtree(spool, ignore_errors=True)
    trace_out.write_text(
        json.dumps(chrome_trace(spans, cli_argv, exit_code, missing)),
        encoding="utf-8",
    )
    if missing:
        print(f"traced.py: hooks not installed: {', '.join(missing)}",
              file=sys.stderr)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
