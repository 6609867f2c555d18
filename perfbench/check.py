"""Artifact check of one ``repro-ebl prep`` run, and the job's write time.

A run passes when its ``.ebj`` job file and ``.ebp`` machine program are
on disk and agree with the input and with each other:

* both files hash to the expected sha256: at seed 0 (full size) the
  digests pinned at the commit that defined the benchmark, at any other
  seed those of the run's first passing prep, so every prep of a run must
  be byte-identical;
* the shot area read back from the ``.ebj`` matches the input's pattern
  area, which the workload computed from the generated polygons without
  the fracturer, to within one coordinate grid step along every edge;
* the ``.ebp`` decodes segment by segment, every segment holds the
  record count its header declares, and a shot program holds exactly one
  record per shot;
* the figure count the CLI printed is the shot count on disk, and a run
  on a warm cache reported no misses.
"""

from __future__ import annotations

import hashlib
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

#: Coordinate quantum [um] of the GDSII input (1 nm database unit) and of
#: the ``.ebj`` shot records.
GRID_UM = 1e-3


@dataclass
class Artifacts:
    """What a checked run left on disk."""

    shots: int
    ebj_bytes: int
    ebp_bytes: int


class CheckFailed(Exception):
    """The run's artifacts are missing, corrupt or inconsistent."""


def artifact_paths(out_dir: Path, machine: str):
    """The ``.ebj`` and ``.ebp`` a run writes with ``--output job.ebj``."""
    return out_dir / "job.ebj", out_dir / f"job.{machine}.ebp"


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _printed_int(pattern: str, stdout: str) -> int:
    match = re.search(pattern, stdout)
    if match is None:
        raise CheckFailed(f"CLI output lacks {pattern!r}")
    return int(match.group(1).replace(",", ""))


def _trapezoid_perimeter(t) -> float:
    height = t.y_top - t.y_bottom
    return (
        (t.x_bottom_right - t.x_bottom_left)
        + (t.x_top_right - t.x_top_left)
        + math.hypot(t.x_top_left - t.x_bottom_left, height)
        + math.hypot(t.x_top_right - t.x_bottom_right, height)
    )


def check_artifacts(workload, inputs, out_dir: Path, stdout: str,
                    digests: Optional[Dict[str, str]], warm: bool) -> Artifacts:
    """Check one run's artifacts; raise :class:`CheckFailed` if wrong.

    ``digests`` maps ``"ebj"`` and ``"ebp"`` to the sha256 the files
    must have, or is ``None`` to skip that comparison; ``warm`` says the
    run's shard cache was filled beforehand.
    """
    from repro.core.jobfile import read_job, read_program
    from repro.machine.program import decode_raster_segment, decode_shot_segment

    ebj, ebp = artifact_paths(out_dir, workload.machine)
    for path in (ebj, ebp):
        if not path.is_file():
            raise CheckFailed(f"missing artifact {path.name}")
    if digests is not None:
        for kind, path in (("ebj", ebj), ("ebp", ebp)):
            digest = sha256(path)
            if digest != digests[kind]:
                raise CheckFailed(f"{path.name} sha256 {digest} is not {digests[kind]}")
    try:
        job = read_job(ebj)
        program = read_program(ebp)
        segment_records = []
        for segment in program.segments:
            if program.mode == "raster":
                _, lines = decode_raster_segment(segment.payload)
                segment_records.append(sum(len(runs) for runs in lines))
            else:
                segment_records.append(len(decode_shot_segment(segment.payload)))
    except ValueError as exc:  # JobFileError and its siblings
        raise CheckFailed(f"artifact does not decode: {exc}") from exc

    shots = len(job.shots)
    traps = [shot.trapezoid for shot in job.shots]
    area = sum(t.area() for t in traps)
    tolerance = GRID_UM * (inputs.perimeter + sum(map(_trapezoid_perimeter, traps)))
    if abs(area - inputs.expected_area) > tolerance:
        raise CheckFailed(
            f"shot area {area:.6f} um^2 is not the input's "
            f"{inputs.expected_area:.6f} +- {tolerance:.6f}"
        )

    if program.mode != workload.machine:
        raise CheckFailed(f"program mode {program.mode} is not {workload.machine}")
    declared = [segment.record_count for segment in program.segments]
    if segment_records != declared:
        raise CheckFailed("a program segment holds other than its declared records")
    if program.mode == "raster":
        expected_records = _printed_int(r"([\d,]+) runs /", stdout)
    else:
        expected_records = shots
    if program.record_count() != expected_records:
        raise CheckFailed(
            f"program holds {program.record_count()} records, expected "
            f"{expected_records}"
        )
    printed = _printed_int(r"figures:\s+(\d+)", stdout)
    if printed != shots:
        raise CheckFailed(f"CLI printed {printed} figures, the job holds {shots}")
    if warm:
        misses = _printed_int(r"cache:\s+\d+ hits, (\d+) misses", stdout)
        if misses:
            raise CheckFailed(f"warm cache missed {misses} shards")
    return Artifacts(shots, ebj.stat().st_size, ebp.stat().st_size)


def machine_write_seconds(workload, out_dir: Path, stdout: str) -> float:
    """The job's estimated write time on its target machine [s].

    The CLI prints the breakdown total to three significant digits, too
    coarse to compare runs, so it is recomputed here to full precision
    with the program's machine models, from the job read back and the
    stream size the CLI printed.  The recomputation must round to the
    printed total, or the run fails.
    """
    from repro.core.jobfile import read_job
    from repro.machine.datapath import raster_channel_check, vector_channel_check
    from repro.machine.program import SHOT_RECORD_BYTES, MachineSpec

    ebj, _ = artifact_paths(out_dir, workload.machine)
    job = read_job(ebj)
    spec = MachineSpec(workload.machine)
    machine = spec.machine()
    breakdown = machine.write_time(job)
    channel: Optional[object] = None
    if spec.mode == "raster":
        stream_bytes = _printed_int(r"stream:\s+([\d,]+) bytes exact", stdout)
        if breakdown.exposure > 0 and stream_bytes:
            channel = raster_channel_check(
                machine.effective_pixel_rate(job.base_dose),
                stream_bytes,
                breakdown.exposure,
                channel_rate=spec.channel_rate,
            )
    else:
        busy = breakdown.exposure + breakdown.figure_overhead
        if busy > 0 and job.shots:
            channel = vector_channel_check(
                len(job.shots) / busy,
                channel_rate=spec.channel_rate,
                bytes_per_figure=SHOT_RECORD_BYTES,
            )
    if channel is not None and channel.limited:
        breakdown.data_limited_extra = breakdown.exposure * (channel.slowdown - 1.0)
    total = breakdown.total

    match = re.search(r"write: .*= (\S+) s$", stdout, re.MULTILINE)
    if match is None:
        raise CheckFailed("CLI output lacks the write-time breakdown")
    if f"{total:.3g}" != match.group(1):
        raise CheckFailed(
            f"write time {total!r} s does not round to the printed {match.group(1)} s"
        )
    return total
