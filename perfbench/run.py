"""End-to-end benchmark of ``repro-ebl prep``: process start to checked artifacts.

    python3 perfbench/run.py --workload fzp_pec --seed 0 --seconds 20 --trace 0

Run from the root of a checkout (it needs ``src/repro``).  One closed-loop
client launches the real CLI, ``python3 -m repro.cli prep <input>.gds
...`` (what the ``repro-ebl`` entry point runs), as a subprocess, waits
for it to exit, checks the ``.ebj`` and ``.ebp`` it wrote (see
``check.py``) and starts the next run, until ``--seconds`` have passed;
at least one run always completes.

Set-up, repeated three times and reported as the median ``setup_s``:
generate the seeded input (``workloads.py``) and then either fill the
workload's shard cache with one prep run or, for the workloads without a
warm cache, warm up with ``repro-ebl stats`` on the input, which imports
everything the CLI imports and reads the input once.

``--trace 0`` reports the end-to-end metrics, medians over the runs.
``--trace 1`` alternates untraced runs with traced runs of the same
command (``traced.py``), prints a per-layer self-time table, keeps the
last Chrome trace under ``.perfbench/traces/`` and reports the per-layer
metrics, medians over the traced runs.

Every line but the last is for people; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Everything the benchmark writes stays under ``.perfbench/``
in the checkout; the per-run working directory is removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from check import (
    Artifacts,
    CheckFailed,
    artifact_paths,
    check_artifacts,
    machine_write_seconds,
    sha256,
)
from layers import PER_LAYER, Trace, per_layer_metrics, self_time_table
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPS = 3
#: A prep run that has not exited by then is killed and counts as failed;
#: the slowest workload takes about 15 s on a busy two-core host.
RUN_TIMEOUT_S = 90.0


@dataclass
class Sample:
    """One prep run: its resource use and whether its artifacts passed."""

    wall_s: float
    cpu_s: float
    peak_rss_mib: float
    ok: bool
    reason: str = ""
    artifacts: Optional[Artifacts] = None
    out_dir: Optional[Path] = None
    stdout: str = ""


def child_env(tmpdir: Path) -> Dict[str, str]:
    """The environment of every launched process: this checkout's
    sources, temporary files under ``tmpdir``, no ``REPRO_*`` setting
    (such as injected faults), and single-threaded BLAS.

    numpy's BLAS otherwise starts a thread per core, and whether those
    threads find an idle core decides how fast PEC runs.  With one BLAS
    thread the load is exactly the prep process and its ``--workers``
    pool."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(SRC)
    env["TMPDIR"] = str(tmpdir)
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def launch(argv: List[str], stdout: Path, stderr: Path) -> Tuple[int, float, float, float]:
    """Run ``argv`` to completion, with its temporary files (the streamed
    run's spool) in the directory of ``stdout``.

    Returns ``(exit code, wall s, cpu s, peak rss MiB)``.  CPU time and
    peak RSS come from ``wait4`` on the process, which folds in the pool
    workers it reaped: user + system seconds summed over all of them,
    and the largest resident set of any one.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, stdout=out, stderr=err, env=child_env(stdout.parent), cwd=ROOT,
            start_new_session=True,
        )

        def kill_group() -> None:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(RUN_TIMEOUT_S, kill_group)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
    )


class Bench:
    """One benchmark invocation: a workload, a seed and a work directory."""

    def __init__(self, workload, seed: int, quick: bool, work: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        self.work = work
        self.inputs = None
        self.cache_dir: Optional[Path] = None
        # The sha256 every run's artifacts must have: pinned for the
        # canonical input, else those of the first run that passed.
        self.digests: Optional[Dict[str, str]] = None
        if seed == 0 and not quick:
            self.digests = dict(workload.pinned)
        self.runs = 0
        self.trace_copy = WORK / "traces" / f"{workload.name}-seed{seed}.json"

    def prep_argv(self, out_dir: Path, cache_dir: Optional[Path],
                  trace_out: Optional[Path] = None) -> List[str]:
        if trace_out is None:
            argv = [sys.executable, "-m", "repro.cli"]
        else:
            argv = [sys.executable, "-X", "importtime", str(HERE / "traced.py"),
                    "--trace-out", str(trace_out), "--"]
        argv += ["prep", str(self.inputs.gds), *self.workload.prep_args,
                 *self.inputs.prep_args, "--output", str(out_dir / "job.ebj")]
        if cache_dir is not None:
            argv += ["--cache-dir", str(cache_dir)]
        return argv

    def prep(self, cache_dir: Optional[Path], traced: bool = False,
             keep: bool = False) -> Sample:
        """One prep run into a fresh directory, then its artifact check.

        With ``traced`` the run goes through ``traced.py``, which leaves
        ``trace.json`` and, in ``stderr.txt``, its ``-X importtime`` log in
        the run directory; with ``keep`` that directory is left in place
        (the caller removes it).
        """
        self.runs += 1
        out_dir = self.work / f"run{self.runs}"
        out_dir.mkdir()
        trace_out = out_dir / "trace.json" if traced else None
        code, wall, cpu, rss = launch(
            self.prep_argv(out_dir, cache_dir, trace_out),
            out_dir / "stdout.txt",
            out_dir / "stderr.txt",
        )
        stdout = (out_dir / "stdout.txt").read_text(encoding="utf-8", errors="replace")
        sample = Sample(wall, cpu, rss, ok=False, out_dir=out_dir, stdout=stdout)
        if code != 0:
            sample.reason = f"exit code {code}"
        else:
            try:
                sample.artifacts = check_artifacts(
                    self.workload, self.inputs, out_dir, stdout, self.digests,
                    warm=cache_dir is not None and cache_dir == self.cache_dir,
                )
                sample.ok = True
            except CheckFailed as exc:
                sample.reason = str(exc)
        if sample.ok and self.digests is None:
            ebj, ebp = artifact_paths(out_dir, self.workload.machine)
            self.digests = {"ebj": sha256(ebj), "ebp": sha256(ebp)}
        if not keep:
            shutil.rmtree(out_dir, ignore_errors=True)
        return sample

    def set_up(self) -> List[float]:
        """Generate the input and fill the cache or warm up; returns the
        time of each repetition.  The last repetition's input and cache
        are the ones the runs use."""
        times = []
        for rep in range(1 if self.quick else SETUP_REPS):
            rep_dir = self.work / f"setup{rep}"
            rep_dir.mkdir()
            start = time.perf_counter()
            self.inputs = self.workload.generate(self.seed, rep_dir, self.quick)
            elapsed = time.perf_counter() - start
            if self.workload.cache == "warm":
                cache = rep_dir / "cache"
                fill = self.prep(cache)
                if not fill.ok:
                    raise RuntimeError(f"cache fill failed: {fill.reason}")
                if self.cache_dir is not None:
                    shutil.rmtree(self.cache_dir, ignore_errors=True)
                self.cache_dir = cache
                times.append(elapsed + fill.wall_s)
            else:
                code, wall, _, _ = launch(
                    [sys.executable, "-m", "repro.cli", "stats", str(self.inputs.gds)],
                    rep_dir / "stats.txt",
                    rep_dir / "stats.err",
                )
                if code != 0:
                    raise RuntimeError(f"warm-up exited with code {code}")
                times.append(elapsed + wall)
        return times

    def timed_prep(self, traced: bool = False, keep: bool = False) -> Sample:
        """A prep run with the workload's cache: the shared warm one,
        none, or a fresh empty one removed afterwards."""
        if self.workload.cache == "fresh":
            cache = self.work / f"cache{self.runs + 1}"
            try:
                return self.prep(cache, traced, keep)
            finally:
                shutil.rmtree(cache, ignore_errors=True)
        return self.prep(self.cache_dir, traced, keep)


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)``; a single value is all three."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def end_to_end_metrics(samples: List[Sample], setup_times: List[float],
                       write_s: float) -> Dict[str, Tuple[float, str]]:
    """The end-to-end metrics, medians over the runs that passed (over
    every run when none did), with their units."""
    passed = [s for s in samples if s.ok] or samples
    artifacts = next((s.artifacts for s in samples if s.ok), None)
    return {
        "wall_s": (statistics.median(s.wall_s for s in passed), "s"),
        "cpu_s": (statistics.median(s.cpu_s for s in passed), "s"),
        "peak_rss_mib": (statistics.median(s.peak_rss_mib for s in passed), "MiB"),
        "setup_s": (statistics.median(setup_times), "s"),
        "shots": (artifacts.shots if artifacts else 0, "count"),
        "ebj_bytes": (artifacts.ebj_bytes if artifacts else 0, "bytes"),
        "ebp_bytes": (artifacts.ebp_bytes if artifacts else 0, "bytes"),
        "machine_write_s": (write_s, "s"),
        "ok_ratio": (1.0 - fail_ratio(samples), "ratio"),
    }


def fail_ratio(samples: List[Sample]) -> float:
    """Runs that exited non-zero or failed the artifact check, over runs."""
    return sum(not s.ok for s in samples) / len(samples)


def run_timed(bench: Bench, seconds: float) -> Tuple[List[Sample], float]:
    """Closed loop of untraced runs; also returns the job's write time,
    computed once from the first run that passed."""
    samples: List[Sample] = []
    write_s = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        first = not any(s.ok for s in samples)
        sample = bench.timed_prep(keep=first)
        if first and sample.ok:
            try:
                write_s = machine_write_seconds(
                    bench.workload, sample.out_dir, sample.stdout
                )
            except CheckFailed as exc:
                sample.ok, sample.reason = False, str(exc)
        shutil.rmtree(sample.out_dir, ignore_errors=True)
        samples.append(sample)
        if bench.quick or time.perf_counter() >= deadline:
            return samples, write_s


def run_traced(bench: Bench, seconds: float):
    """Alternate untraced and traced runs until ``seconds`` have passed.

    Returns every sample, the per-layer metrics (medians over the traced
    runs that passed) and the last passing traced run as ``(sample,
    trace)``, whose trace file is also copied to ``bench.trace_copy``.
    """
    samples: List[Sample] = []
    untraced_walls: List[float] = []
    traced: List[Tuple[Sample, Trace, str]] = []
    deadline = time.perf_counter() + seconds
    while True:
        sample = bench.timed_prep()
        samples.append(sample)
        if sample.ok:
            untraced_walls.append(sample.wall_s)
        sample = bench.timed_prep(traced=True, keep=True)
        samples.append(sample)
        if sample.ok:
            log = (sample.out_dir / "stderr.txt").read_text(
                encoding="utf-8", errors="replace"
            )
            traced.append((sample, Trace(sample.out_dir / "trace.json"), log))
            bench.trace_copy.parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(sample.out_dir / "trace.json", bench.trace_copy)
        shutil.rmtree(sample.out_dir, ignore_errors=True)
        if bench.quick or time.perf_counter() >= deadline:
            break
    if not traced or not untraced_walls:
        return samples, {}, None
    untraced_wall = statistics.median(untraced_walls)
    per_run = [
        per_layer_metrics(trace, log, s.wall_s, untraced_wall)
        for s, trace, log in traced
    ]
    metrics = {name: statistics.median(run[name] for run in per_run) for name in per_run[0]}
    traced_wall = statistics.median(s.wall_s for s, _, _ in traced)
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0
    return samples, metrics, traced[-1][:2]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--quick", action="store_true",
        help="self-test size: a reduced input, one set-up, one run (or pair)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = WORK / f"run-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(workload, args.seed, args.quick, work)
        try:
            setup_times = bench.set_up()
        except RuntimeError as exc:
            print(f"error: set-up failed: {exc}", file=sys.stderr)
            return 1
        print(f"workload {workload.name}, seed {args.seed}: "
              f"set-up {statistics.median(setup_times):.3f} s (median of "
              f"{len(setup_times)})")
        if args.trace == 0:
            samples, write_s = run_timed(bench, args.seconds)
            metrics = end_to_end_metrics(samples, setup_times, write_s)
            for name in ("wall_s", "cpu_s", "peak_rss_mib"):
                q1, q2, q3 = quartiles([getattr(s, name) for s in samples])
                print(f"  {name:<14} median {q2:.4f}  quartiles {q1:.4f} .. {q3:.4f}")
        else:
            samples, layer_values, last = run_traced(bench, args.seconds)
            if last is not None:
                sample, trace = last
                print(self_time_table(trace, sample.wall_s))
                if trace.missing_hooks:
                    print(f"  hooks not installed: {', '.join(trace.missing_hooks)}")
                print(f"chrome trace: {bench.trace_copy.relative_to(ROOT)}")
            # No traced run passed: every metric reads 0 beside correct=false.
            metrics = {
                name: (layer_values[name] if layer_values else 0.0, unit)
                for name, unit in PER_LAYER
            }
            print(f"  trace.coverage {metrics['trace.coverage'][0]:.3f}  "
                  f"trace.overhead {metrics['trace.overhead'][0]:+.3f}")
        failed = [s for s in samples if not s.ok]
        print(f"  runs {len(samples)}, failed {len(failed)}, "
              f"fail_ratio {fail_ratio(samples):.3f}")
        for sample in failed:
            print(f"  failed run: {sample.reason}")
        print(json.dumps({
            "correct": not failed,
            "attempted": len(samples),
            "failed": len(failed),
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
