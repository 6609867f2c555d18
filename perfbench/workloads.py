"""The benchmark's workloads: seeded inputs, the CLI options, pinned digests.

Each workload generates its GDSII input from a seed with the program's own
layout generators, then runs ``repro-ebl prep`` on it.  Seed 0 is the
canonical input; any other seed perturbs the generated geometry by a few
percent (and, for ``memory_warm``, the base dose).  The ranges keep the
polygon and shard counts of seed 0 and move shot counts by at most a few
per thousand, so a result measured on one seed can be re-checked on
another without resizing the workload.

The expected pattern area of every input is computed here, from the
generated polygons, without calling the fracturer; the artifact check
compares it with the area of the shots read back from the ``.ebj``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Sequence, Tuple


@dataclass(frozen=True)
class Inputs:
    """A generated input layout and what its prepared job must cover.

    ``perimeter`` is the summed polygon perimeter [um], which bounds how
    far quantizing the coordinates can move the area.  ``prep_args`` are
    seeded ``repro-ebl prep`` options that follow the workload's own.
    """

    gds: Path
    expected_area: float
    perimeter: float
    prep_args: Tuple[str, ...] = ()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Attributes:
        name: the ``--workload`` name.
        why: which layers it exercises and which it bypasses.
        prep_args: ``repro-ebl prep`` options after the input path; the
            runner adds ``--output`` and, per ``cache``, ``--cache-dir``.
        machine: the ``--machine`` mode, which names the ``.ebp``.
        cache: ``"none"`` (``--no-cache`` is in ``prep_args``),
            ``"warm"`` (one cache filled during set-up, shared by every
            run, so every run must hit on every shard) or ``"fresh"`` (a
            new empty cache directory per run, so every run writes it).
        generate: ``(seed, directory, quick) -> Inputs``.
        pinned: sha256 of the ``.ebj`` and ``.ebp`` at seed 0, full size.
    """

    name: str
    why: str
    prep_args: Tuple[str, ...]
    machine: str
    cache: str
    generate: Callable[[int, Path, bool], Inputs]
    pinned: Dict[str, str]


def perturbations(seed: int, *ranges: Tuple[float, float]) -> List[float]:
    """The relative change a seed applies to each generator parameter.

    One value per ``(low, high)`` range.  Seed 0 is the canonical input,
    so it returns zeros.
    """
    if seed == 0:
        return [0.0 for _ in ranges]
    rng = random.Random(seed)
    return [rng.uniform(low, high) for low, high in ranges]


def shoelace_area(polygons: Sequence) -> float:
    """Summed absolute shoelace area of ``repro`` polygons."""
    total = 0.0
    for polygon in polygons:
        pts = [(p.x, p.y) for p in polygon]
        twice = 0.0
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            twice += x0 * y1 - x1 * y0
        total += abs(twice) / 2.0
    return total


def perimeter(polygons: Sequence) -> float:
    """Summed perimeter of ``repro`` polygons."""
    total = 0.0
    for polygon in polygons:
        pts = [(p.x, p.y) for p in polygon]
        for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
            total += math.hypot(x1 - x0, y1 - y0)
    return total


def rectangle_union_area(rects: List[Tuple[float, float, float, float]]) -> float:
    """Area of the union of axis-aligned rectangles ``(x0, y0, x1, y1)``.

    Coordinate compression: sum the elementary cells any rectangle covers.
    """
    xs = sorted({x for r in rects for x in (r[0], r[2])})
    ys = sorted({y for r in rects for y in (r[1], r[3])})
    area = 0.0
    for xa, xb in zip(xs, xs[1:]):
        for ya, yb in zip(ys, ys[1:]):
            cx, cy = (xa + xb) / 2.0, (ya + yb) / 2.0
            if any(r[0] < cx < r[2] and r[1] < cy < r[3] for r in rects):
                area += (xb - xa) * (yb - ya)
    return area


def _layer_polygons(cell) -> list:
    return [poly for polys in cell.polygons.values() for poly in polys]


def _generate_fzp(seed: int, directory: Path, quick: bool) -> Inputs:
    from repro.layout.gdsii import write_gdsii
    from repro.layout.generators import fresnel_zone_plate

    (df,) = perturbations(seed, (-0.01, 0.01))
    focal = 150.0 * (1.0 + df)
    library = fresnel_zone_plate(focal_length=focal, zones=6 if quick else 20)
    path = directory / "fzp.gds"
    write_gdsii(library, path)
    # The half-annuli tile the zones without overlapping.
    polygons = _layer_polygons(library.top_cell())
    return Inputs(path, shoelace_area(polygons), perimeter(polygons))


def _generate_memory(seed: int, directory: Path, quick: bool) -> Inputs:
    from repro.layout.gdsii import write_gdsii
    from repro.layout.generators import memory_array

    # Figures go to the field holding their centre.  The outermost
    # centres sit 102.2 bit widths right of and 82.2 bit heights above
    # the first, so up to 5% wider and 4% lower the bits still fill
    # 5 x 5 of the 50 um fields, as at seed 0.  The shaped-beam write
    # time depends on the shot count and the dose, not on the area, so
    # the seed moves the base dose too.
    dw, dh, dd = perturbations(seed, (0.0, 0.05), (-0.04, 0.0), (-0.01, 0.01))
    width = 2.0 * (1.0 + dw)
    height = 3.0 * (1.0 + dh)
    blocks = (2, 2) if quick else (4, 4)
    words = bits = 8 if quick else 16
    library = memory_array(
        bit_width=width, bit_height=height, words=words, bits=bits, blocks=blocks
    )
    path = directory / "memory.gds"
    write_gdsii(library, path)
    # The bit cell's three rectangles overlap each other, so the job
    # covers their union once per placement; the placements do not
    # overlap.
    bit = _layer_polygons(library["BIT"])
    rects = []
    for polygon in bit:
        xs = [p.x for p in polygon]
        ys = [p.y for p in polygon]
        if len(xs) != 4:
            raise ValueError("memory bit cell polygons must be rectangles")
        rects.append((min(xs), min(ys), max(xs), max(ys)))
    placements = words * bits * blocks[0] * blocks[1]
    return Inputs(
        path,
        rectangle_union_area(rects) * placements,
        perimeter(bit) * placements,
        () if seed == 0 else ("--dose", repr(1.0 + dd)),
    )


def _generate_reticle(seed: int, directory: Path, quick: bool) -> Inputs:
    from repro.layout.generators import fresnel_zone_plate, write_full_reticle

    # Growing only, and at most 3.5%: each 80.6 um die then still sits
    # inside one 100 um field, so the 36 shards hold one die each.
    (dp,) = perturbations(seed, (0.0, 0.035))
    pitch = 100.0 * (1.0 + dp)
    tiles = 2 if quick else 6
    path = directory / "reticle.gds"
    write_full_reticle(path, tiles=tiles, pitch=pitch)
    die = _layer_polygons(fresnel_zone_plate().top_cell())
    dies = tiles * tiles
    return Inputs(path, shoelace_area(die) * dies, perimeter(die) * dies)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="fzp_pec",
            why=(
                "zone-plate case-study die, hybrid PEC, raster program, 1 "
                "worker, no cache: import, PEC and write-time models dominate"
            ),
            prep_args=(
                "--pec", "--pec-matrix", "hybrid", "--machine", "raster",
                "--no-cache", "--workers", "1",
            ),
            machine="raster",
            cache="none",
            generate=_generate_fzp,
            pinned={
                "ebj": "5ff66f41d08b9898bb85944cbe2609ee1b93f457fe2485be626806ba9822f62d",
                "ebp": "c7f64c2fa2e8165b8a1023e773d7b6bbdfb401f671afc5c0981a0c5aba3f5976",
            },
        ),
        Workload(
            name="memory_warm",
            why=(
                "hierarchical memory array in cells mode, 2 workers, "
                "every shard a cache hit: cache reads, planning, jobfile"
            ),
            prep_args=(
                "--hierarchy", "cells", "--field-size", "50", "--workers", "2",
                "--machine", "vsb",
            ),
            machine="vsb",
            cache="warm",
            generate=_generate_memory,
            pinned={
                "ebj": "439ddc3c723777ea53506c45dd95b58d7a3a13d5b17f758cad76d49259144c36",
                "ebp": "13ab457655bddc770e8be72657fcc1dbc8cbc2f30fcc8cfa2324961b3422c88d",
            },
        ),
        Workload(
            name="reticle_stream",
            why=(
                "flat 6x6 reticle streamed out of core, 2 workers, fresh "
                "cache: fracture kernel, spill and cache writes"
            ),
            prep_args=(
                "--stream", "--field-size", "100", "--workers", "2",
                "--machine", "vsb",
            ),
            machine="vsb",
            cache="fresh",
            generate=_generate_reticle,
            pinned={
                "ebj": "461b390d3cfd31801e874bea74b49e8137cbfaddd1d1265e741bf42f95dca453",
                "ebp": "5621b34028651126d54a18e72fc2c56cff0f9d00cf5a349f8febcdf340ad9f98",
            },
        ),
    )
}
