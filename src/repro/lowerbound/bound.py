"""The integral lower bound of Eq. (1) and the analysis machine profiles.

``lower_bound(jobs, ladder)`` integrates the optimal configuration cost rate
over the busy span of the instance:

    OPT_BSHM(J)  >=  ∫ (sum_i w*(i, t) r_i) dt.

Because every quantity is constant on elementary segments, the integral is a
finite exact sum.  The module also exposes the per-type machine-count step
functions ``w*(i, ·)`` and the interval families ``I_{i,j}`` (times when at
least ``j`` type-``i`` machines appear in the configuration), which power the
Theorem-2 analysis benches.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import cached_property

import numpy as np

from ..analysis.profiling import Profiler
from ..core.intervals import Interval, IntervalSet
from ..core.stepfun import StepFunction
from ..core.vectorized import vec_nested_demand
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from .config import solve_configs

__all__ = ["LowerBoundResult", "lower_bound", "configuration_profile"]


class LowerBoundResult:
    """Lower bound value plus the per-segment optimal configurations.

    Stored as columns — segment ends, one rate and one count row per segment
    where a job is active — and turned into the tuples ``segments``,
    ``rates`` and ``counts`` only when those are first read.
    """

    def __init__(
        self,
        value: float,
        ladder: Ladder,
        lefts: np.ndarray,
        rights: np.ndarray,
        rate_column: np.ndarray,
        count_matrix: np.ndarray,
    ) -> None:
        self.value = value
        self.ladder = ladder
        self.lefts = lefts  # segment k is [lefts[k], rights[k])
        self.rights = rights
        self.rate_column = rate_column  # optimal cost rate per segment
        self.count_matrix = count_matrix  # (segments, m): w*(i, t) in column i-1

    @cached_property
    def segments(self) -> tuple[Interval, ...]:
        """The segments where at least one job is active, in time order."""
        return tuple(
            Interval(left, right)
            for left, right in zip(self.lefts.tolist(), self.rights.tolist())
        )

    @cached_property
    def rates(self) -> tuple[float, ...]:
        """Optimal cost rate per segment."""
        return tuple(self.rate_column.tolist())

    @cached_property
    def counts(self) -> tuple[tuple[int, ...], ...]:
        """``w*(i, t)`` per segment, ``counts[k][i-1]`` for type ``i``."""
        return tuple(map(tuple, self.count_matrix.tolist()))

    def rate_profile(self) -> StepFunction:
        """Optimal configuration cost rate as a step function of time."""
        return StepFunction.from_segments(
            zip(self.lefts.tolist(), self.rights.tolist(), self.rate_column.tolist())
        )

    def count_profile(self, i: int) -> StepFunction:
        """``w*(i, ·)`` for one machine type (1-based)."""
        column = self.count_matrix[:, i - 1].astype(np.float64)
        return StepFunction.from_segments(
            zip(self.lefts.tolist(), self.rights.tolist(), column.tolist())
        )

    def interval_family(self, i: int, j: int) -> IntervalSet:
        """``I_{i,j}``: times when the configuration holds >= j type-i
        machines (Theorem 2 proof machinery)."""
        return self.count_profile(i).superlevel(float(j))

    def max_count(self, i: int) -> int:
        """Peak ``w*(i, .)`` over all segments."""
        column = self.count_matrix[:, i - 1]
        return int(column.max()) if column.size else 0


def lower_bound(
    jobs: JobSet, ladder: Ladder, *, profiler: Profiler | None = None
) -> LowerBoundResult:
    """Exact evaluation of the Eq.-(1) lower bound for an instance.

    The nested per-type demands ``s(J_{>=i}, t)`` come from one sort of the
    columnar event queue (:func:`~repro.core.vectorized.vec_nested_demand`);
    segments where no job is active are skipped.  Every remaining segment's
    optimal configuration comes from one batched search
    (:func:`~repro.lowerbound.config.solve_configs`), and the integral is
    one dot product of the rates with the segment lengths.
    """
    a = jobs.to_arrays()
    times, active, demand_matrix = vec_nested_demand(
        a.starts, a.ends, a.sizes, ladder.capacities
    )
    live = np.flatnonzero(active > 0)
    if profiler is not None:
        profiler.count("lb.segments", int(live.size))
        profiler.count("lb.jobs", len(jobs))

    ctx = profiler.timer("lb.config-solve") if profiler is not None else nullcontext()
    with ctx:
        rates, counts = solve_configs(demand_matrix[:, live].T, ladder)
        lefts, rights = times[live], times[live + 1]
        value = float(np.dot(rates, np.diff(times)[live]))
    return LowerBoundResult(value, ladder, lefts, rights, rates, counts)


def configuration_profile(jobs: JobSet, ladder: Ladder) -> StepFunction:
    """Convenience: the optimal cost-rate step function for an instance."""
    return lower_bound(jobs, ladder).rate_profile()
