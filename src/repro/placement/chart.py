"""Demand charts (paper Fig. 1).

A demand chart for a job set is the region under the demand profile
``s(J, t)``: at every time ``t`` the chart has height equal to the total size
of the active jobs.  The offline algorithms place each job as a rectangle
(band) spanning its active interval in time and its size in the demand
dimension, then slice the chart into horizontal strips.

:class:`Band` records one placed rectangle; :class:`Placement` is the result
of a placement algorithm over a chart and knows how to verify the invariants
the paper relies on (≤ 2-fold overlap, containment in the chart).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.intervals import Interval
from ..core.stepfun import StepFunction
from ..core.tolerance import TOLERANCE
from ..jobs.job import Job
from ..jobs.jobset import JobSet

__all__ = ["Band", "DemandChart", "Placement"]


@dataclass(frozen=True, slots=True)
class Band:
    """A placed job: horizontal rectangle ``I(J) x [altitude, altitude + s)``."""

    job: Job
    altitude: float

    @property
    def top(self) -> float:
        return self.altitude + self.job.size

    @property
    def interval(self) -> Interval:
        return self.job.interval

    def altitude_overlap(self, other: "Band") -> bool:
        """Whether the two altitude ranges intersect."""
        return self.altitude < other.top and other.altitude < self.top

    def conflicts_in_time(self, other: "Band") -> bool:
        """Whether the two jobs are ever active simultaneously."""
        return self.interval.overlaps(other.interval)

    def crosses(self, level: float) -> bool:
        """Whether ``level`` is strictly inside the band's altitude range."""
        return self.altitude < level < self.top


class DemandChart:
    """The demand profile of a job set, viewed as the placement region.

    The height profile comes from :meth:`JobSet.demand_profile`, which runs
    the columnar :mod:`repro.core.vectorized` kernel at every size.
    """

    __slots__ = ("jobs", "height")

    def __init__(self, jobs: JobSet) -> None:
        self.jobs = jobs
        self.height: StepFunction = jobs.demand_profile()

    def height_at(self, t: float) -> float:
        """Chart height ``s(J, t)`` at one instant."""
        return float(self.height(t))

    def min_height_on(self, iv: Interval) -> float:
        """Minimum chart height over an interval (containment limit)."""
        return self.height.min_on(iv)

    def peak(self) -> float:
        """Maximum chart height (peak demand)."""
        return self.height.max()


class Placement:
    """A full placement of a chart's jobs into bands."""

    __slots__ = ("chart", "bands", "overflowed")

    def __init__(self, chart: DemandChart, bands: list[Band], overflowed: list[Job]):
        placed = {b.job.uid for b in bands}
        want = {j.uid for j in chart.jobs}
        if placed != want:
            raise ValueError("placement must cover exactly the chart's jobs")
        self.chart = chart
        self.bands = sorted(bands, key=lambda b: (b.job.arrival, b.job.uid))
        #: jobs whose band could not be kept inside the chart (soft invariant);
        #: empty on the workloads we generate, tracked for honesty.
        self.overflowed = overflowed

    def band_of(self, job: Job) -> Band:
        """The band of one placed job (KeyError if absent)."""
        for band in self.bands:
            if band.job.uid == job.uid:
                return band
        raise KeyError(job)

    def max_top(self) -> float:
        """Highest band top across the placement."""
        return max((b.top for b in self.bands), default=0.0)

    # -- invariants -------------------------------------------------------
    def max_overlap(self) -> int:
        """Maximum number of bands sharing a point ``(t, y)``.

        The paper's placement contract requires this to be <= 2.  Event
        sweep over arrivals/departures; at each arrival only the *arriving*
        band's altitude range is examined — the 2-D cover can only set a new
        record at an arrival, inside the range of the band that arrived, so
        this is exhaustive (differentially tested against
        :meth:`max_overlap_reference`).
        """
        events: list[tuple[float, int, Band]] = []
        for band in self.bands:
            events.append((band.job.arrival, 1, band))
            events.append((band.job.departure, 0, band))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, Band] = {}
        worst = 0
        for time, kind, band in events:
            if kind == 0:
                active.pop(band.job.uid, None)
            else:
                active[band.job.uid] = band
                worst = max(worst, _cover_within(list(active.values()), band))
        return worst

    def max_overlap_reference(self) -> int:
        """The pre-sweep check — full altitude sweep of ALL active bands at
        every arrival — kept as the differential-test oracle."""
        events: list[tuple[float, int, Band]] = []
        for band in self.bands:
            events.append((band.job.arrival, 1, band))
            events.append((band.job.departure, 0, band))
        events.sort(key=lambda e: (e[0], e[1]))
        active: dict[int, Band] = {}
        worst = 0
        for time, kind, band in events:
            if kind == 0:
                active.pop(band.job.uid, None)
            else:
                active[band.job.uid] = band
                worst = max(worst, _max_altitude_cover(list(active.values())))
        return worst

    def containment_violations(self) -> list[tuple[Band, float]]:
        """Bands whose top exceeds the chart height somewhere in their span.

        Returns ``(band, excess)`` pairs; empty means the Fig.-1 picture is
        exact (every rectangle inside the chart).
        """
        out = []
        for band in self.bands:
            limit = self.chart.min_height_on(band.interval)
            if band.top > limit + TOLERANCE:
                out.append((band, band.top - limit))
        return out


def _max_altitude_cover(bands: list[Band]) -> int:
    """Peak cover of the altitude line by the given bands."""
    if not bands:
        return 0
    points: list[tuple[float, int]] = []
    for band in bands:
        points.append((band.altitude, 1))
        points.append((band.top, -1))
    points.sort()
    cover = worst = 0
    for _, delta in points:
        cover += delta
        worst = max(worst, cover)
    return worst


def _cover_within(bands: list[Band], target: Band) -> int:
    """Peak altitude cover restricted to ``target``'s altitude range.

    Endpoints are clipped to ``[target.altitude, target.top)`` and swept with
    numpy; bands outside the range contribute nothing after clipping.
    """
    lo, hi = target.altitude, target.top
    alts = np.fromiter((b.altitude for b in bands), dtype=float, count=len(bands))
    tops = np.fromiter((b.top for b in bands), dtype=float, count=len(bands))
    starts = np.clip(alts, lo, hi)
    ends = np.clip(tops, lo, hi)
    keep = ends > starts
    if not np.any(keep):
        return 0
    k = int(keep.sum())
    points = np.concatenate([starts[keep], ends[keep]])
    deltas = np.concatenate([np.ones(k, dtype=np.int64), -np.ones(k, dtype=np.int64)])
    # at equal coordinates the -1s apply before the +1s (half-open ranges)
    order = np.lexsort((deltas, points))
    running = np.cumsum(deltas[order])
    return int(running.max(initial=0))
