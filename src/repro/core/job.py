"""Machine job: the fractured, dose-assigned pattern ready to write."""

from __future__ import annotations

import hashlib
import struct
from typing import List, Optional, Sequence, Tuple

from repro.fracture.base import Shot

_SHOT_PACK = struct.Struct("!7d")


class MachineJob:
    """A writable job: shots plus exposure bookkeeping.

    Attributes:
        name: job identifier.
        shots: fractured, dose-assigned figures.
        base_dose: physical dose [µC/cm²] that relative dose 1.0 means.
        bounding_box: chip extent ``(x0, y0, x1, y1)`` [µm]; defaults to
            the shot bounding box.
    """

    __slots__ = (
        "name",
        "shots",
        "base_dose",
        "bounding_box",
        "_aggregate",
        "_digest",
        "_dose_range",
    )

    def __init__(
        self,
        shots: Sequence[Shot],
        base_dose: float = 1.0,
        name: str = "job",
        bounding_box: Optional[Tuple[float, float, float, float]] = None,
    ) -> None:
        if base_dose <= 0:
            raise ValueError("base dose must be positive")
        self.shots: List[Shot] = list(shots)
        self.base_dose = float(base_dose)
        self.name = name
        self._aggregate: Optional[Tuple[int, float, float, float]] = None
        self._digest: Optional[str] = None
        self._dose_range: Optional[Tuple[float, float]] = None
        if bounding_box is not None:
            self.bounding_box = bounding_box
        elif self.shots:
            boxes = [s.trapezoid.bounding_box() for s in self.shots]
            self.bounding_box = (
                min(b[0] for b in boxes),
                min(b[1] for b in boxes),
                max(b[2] for b in boxes),
                max(b[3] for b in boxes),
            )
        else:
            self.bounding_box = (0.0, 0.0, 0.0, 0.0)

    @classmethod
    def synthetic(
        cls,
        figure_count: int,
        pattern_area: float,
        bounding_box: Tuple[float, float, float, float],
        base_dose: float = 1.0,
        mean_dose: float = 1.0,
        name: str = "synthetic",
        dose_weighted_area: Optional[float] = None,
        dose_weighted_count: Optional[float] = None,
    ) -> "MachineJob":
        """A job described only by its aggregates (no explicit shot list).

        Machine timing models need only figure count, areas and doses, so
        throughput studies can model multi-million-figure chips without
        materializing the shots.  ``dose_weighted_area`` /
        ``dose_weighted_count`` override the ``mean_dose``
        approximation with exact sums — what the out-of-core pipeline
        folds while streaming, so a streamed job's timing model matches
        the materialized one bit for bit.
        """
        if figure_count < 0 or pattern_area < 0:
            raise ValueError("figure count and area must be non-negative")
        job = cls([], base_dose=base_dose, name=name, bounding_box=bounding_box)
        job._aggregate = (
            int(figure_count),
            float(pattern_area),
            float(pattern_area) * mean_dose
            if dose_weighted_area is None
            else float(dose_weighted_area),
            float(figure_count) * mean_dose
            if dose_weighted_count is None
            else float(dose_weighted_count),
        )
        return job

    # -- accounting -------------------------------------------------------

    def figure_count(self) -> int:
        """Number of machine figures."""
        if self._aggregate is not None:
            return self._aggregate[0]
        return len(self.shots)

    def pattern_area(self) -> float:
        """Exposed pattern area [µm²] (shots are disjoint by contract)."""
        if self._aggregate is not None:
            return self._aggregate[1]
        return sum(s.area() for s in self.shots)

    def dose_weighted_area(self) -> float:
        """Σ dose_i · area_i — proportional to beam-on time on a vector
        machine."""
        if self._aggregate is not None:
            return self._aggregate[2]
        return sum(s.dose * s.area() for s in self.shots)

    def dose_weighted_count(self) -> float:
        """Σ dose_i — proportional to total flash time on a VSB machine."""
        if self._aggregate is not None:
            return self._aggregate[3]
        return sum(s.dose for s in self.shots)

    def chip_area(self) -> float:
        """Bounding-box area [µm²]."""
        x0, y0, x1, y1 = self.bounding_box
        return max(0.0, (x1 - x0)) * max(0.0, (y1 - y0))

    def pattern_density(self) -> float:
        """Exposed fraction of the chip bounding box."""
        chip = self.chip_area()
        return self.pattern_area() / chip if chip > 0 else 0.0

    # -- digests ----------------------------------------------------------

    def digest(self) -> str:
        """Exact SHA-256 over the shot list and base dose.

        Every coordinate and dose enters as its IEEE-754 double, so two
        jobs share a digest iff they are shot-for-shot bit-identical —
        the determinism oracle for the sharded/cached execution paths.

        Jobs assembled by the out-of-core pipeline carry the digest
        folded over the same packing while the shots streamed past
        (``_digest``) — identical bytes hashed in identical order, never
        an approximation.
        """
        if self._digest is not None:
            return self._digest
        h = hashlib.sha256()
        h.update(_SHOT_PACK.pack(self.base_dose, 0, 0, 0, 0, 0, 0))
        for s in self.shots:
            t = s.trapezoid
            h.update(
                _SHOT_PACK.pack(
                    t.y_bottom,
                    t.y_top,
                    t.x_bottom_left,
                    t.x_bottom_right,
                    t.x_top_left,
                    t.x_top_right,
                    s.dose,
                )
            )
        return h.hexdigest()

    def portable_digest(self, sig_digits: int = 9) -> str:
        """Digest with values canonicalized to ``sig_digits`` significant
        digits.

        Library-version drift in transcendental routines (the PEC erf
        kernels) can nudge doses in the last few ulps; rounding before
        hashing makes the digest stable enough to commit as a golden
        reference while still pinning geometry and dose maps tightly.
        """
        h = hashlib.sha256()
        fmt = f"%.{sig_digits}e"

        def feed(value: float) -> None:
            h.update((fmt % value).encode())
            h.update(b",")

        feed(self.base_dose)
        for s in self.shots:
            t = s.trapezoid
            for value in (
                t.y_bottom,
                t.y_top,
                t.x_bottom_left,
                t.x_bottom_right,
                t.x_top_left,
                t.x_top_right,
                s.dose,
            ):
                feed(value)
        return h.hexdigest()

    def dose_digest(self, sig_digits: int = 9) -> str:
        """Portable digest over the dose map alone (shot-order doses)."""
        h = hashlib.sha256()
        fmt = f"%.{sig_digits}e"
        for s in self.shots:
            h.update((fmt % s.dose).encode())
            h.update(b",")
        return h.hexdigest()

    def dose_range(self) -> Tuple[float, float]:
        """(min, max) relative dose over all shots."""
        if self._dose_range is not None:
            return self._dose_range
        if not self.shots:
            return (0.0, 0.0)
        doses = [s.dose for s in self.shots]
        return (min(doses), max(doses))

    def __len__(self) -> int:
        return len(self.shots)

    def __repr__(self) -> str:
        return (
            f"MachineJob({self.name!r}, figures={self.figure_count()}, "
            f"density={self.pattern_density():.1%}, "
            f"dose={self.base_dose:g} µC/cm²)"
        )
