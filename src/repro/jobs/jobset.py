"""Collections of interval jobs with the aggregate queries the paper uses.

:class:`JobSet` wraps an immutable sequence of :class:`~repro.jobs.job.Job`
and provides:

- ``s(J, t)`` — total active size at a time point (``demand_at``),
- the full demand profile as a step function (``demand_profile``),
- the active-job set ``J(t)`` and the size-filtered ``J_{>=i}(t)``,
- the max/min duration ratio ``mu`` that parametrizes the online bounds,
- partitions by size class for the INC algorithms,
- the busy span ``U_{J} I(J)`` used in the lower-bound integral.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from ..core.intervals import Interval, IntervalSet
from ..core.stepfun import StepFunction
from ..core.events import elementary_segments
from ..core.vectorized import vec_busy_union, vec_demand_profile, vec_peak_load
from .job import Job

__all__ = ["JobArrays", "JobSet"]


class JobArrays:
    """Columnar view of a :class:`JobSet`: contiguous, read-only float64/int64
    columns in the set's canonical ``(arrival, uid)`` order.

    This is the input format of the :mod:`repro.core.vectorized` bulk
    kernels: one attribute access per *column* instead of one per job.  The
    arrays are marked non-writeable — the view shares the JobSet's
    immutability contract, so it can be cached and handed out freely.
    """

    __slots__ = ("starts", "ends", "sizes", "uids")

    def __init__(self, jobs: Sequence[Job]) -> None:
        n = len(jobs)
        starts = np.fromiter((j.arrival for j in jobs), dtype=np.float64, count=n)
        ends = np.fromiter((j.departure for j in jobs), dtype=np.float64, count=n)
        sizes = np.fromiter((j.size for j in jobs), dtype=np.float64, count=n)
        uids = np.fromiter((j.uid for j in jobs), dtype=np.int64, count=n)
        for arr in (starts, ends, sizes, uids):
            arr.setflags(write=False)
        self.starts: np.ndarray = starts
        self.ends: np.ndarray = ends
        self.sizes: np.ndarray = sizes
        self.uids: np.ndarray = uids

    def __len__(self) -> int:
        return int(self.starts.size)


class JobSet:
    """An immutable set of interval jobs."""

    __slots__ = ("_jobs", "_by_uid", "_arrays")

    def __init__(self, jobs: Iterable[Job] = (), *, _presorted: bool = False) -> None:
        if _presorted:
            # internal fast path: the caller guarantees (arrival, uid) order
            # with unique uids (subsets of an existing JobSet keep both)
            ordered = tuple(jobs)
        else:
            ordered = tuple(sorted(jobs, key=lambda j: (j.arrival, j.uid)))
        by_uid = {job.uid: job for job in ordered}
        if len(by_uid) != len(ordered):
            raise ValueError("duplicate job uids in JobSet")
        object.__setattr__(self, "_jobs", ordered)
        object.__setattr__(self, "_by_uid", by_uid)
        object.__setattr__(self, "_arrays", None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("JobSet is immutable")

    # -- basic access -----------------------------------------------------
    @property
    def jobs(self) -> tuple[Job, ...]:
        """Jobs sorted by (arrival, uid)."""
        return self._jobs

    def __iter__(self) -> Iterator[Job]:
        return iter(self._jobs)

    def __len__(self) -> int:
        return len(self._jobs)

    def __contains__(self, job: Job) -> bool:
        return job.uid in self._by_uid

    def __getitem__(self, uid: int) -> Job:
        return self._by_uid[uid]

    @property
    def empty(self) -> bool:
        return not self._jobs

    def to_arrays(self) -> JobArrays:
        """Columnar ``(starts, ends, sizes, uids)`` view of the set.

        Built lazily on first use and cached for the set's lifetime: JobSet
        is immutable, so the view can never go stale — every "mutation"
        (filter / minus / union / transform) constructs a *new* JobSet whose
        cache starts empty, which is what invalidation means here.  The
        arrays themselves are read-only.
        """
        cached = self._arrays
        if cached is None:
            cached = JobArrays(self._jobs)
            # memo on an immutable structure: the blessed lazy-cache backdoor,
            # same pattern as Schedule._memo.  # bshm: ignore[BSHM005]
            object.__setattr__(self, "_arrays", cached)
        return cached

    # -- aggregate queries ---------------------------------------------------
    def active_at(self, t: float) -> "JobSet":
        """``J(t)`` — the jobs active at time ``t``."""
        return JobSet(j for j in self._jobs if j.active_at(t))

    def demand_at(self, t: float) -> float:
        """``s(J, t)`` — total size of the jobs active at ``t``."""
        return sum(j.size for j in self._jobs if j.active_at(t))

    def demand_profile(self) -> StepFunction:
        """``s(J, ·)`` as a step function (the paper's *demand chart* height),
        from the columnar kernel over :meth:`to_arrays`."""
        if not self._jobs:
            return StepFunction.zero()
        a = self.to_arrays()
        return vec_demand_profile(a.starts, a.ends, a.sizes)

    def at_least_class(self, i: int, capacities: Sequence[float]) -> "JobSet":
        """``J_{>= i}`` — jobs that must run on type ``>= i``: ``s(J) > g_{i-1}``.

        ``i`` is 1-based; ``i == 1`` returns every job (``g_0 = 0``).
        """
        if i <= 1:
            return self
        g_prev = capacities[i - 2]
        return JobSet(j for j in self._jobs if j.size > g_prev)

    def size_partition(self, capacities: Sequence[float]) -> list["JobSet"]:
        """Partition into classes ``J_i = {J : s(J) ∈ (g_{i-1}, g_i]}``.

        Returns a list of ``m`` JobSets (possibly empty), 0-indexed so that
        element ``i-1`` is the paper's ``J_i``.
        """
        buckets: list[list[Job]] = [[] for _ in capacities]
        for job in self._jobs:
            buckets[job.size_class(tuple(capacities)) - 1].append(job)
        return [JobSet(b) for b in buckets]

    def busy_span(self) -> IntervalSet:
        """``U_{J in set} I(J)`` — the union of all active intervals."""
        if not self._jobs:
            return IntervalSet()
        a = self.to_arrays()
        return vec_busy_union(a.starts, a.ends)

    def segments(self) -> list[Interval]:
        """Elementary segments on which every aggregate is constant."""
        return elementary_segments(self._jobs)

    # -- scalar statistics ----------------------------------------------------
    @property
    def max_size(self) -> float:
        return max((j.size for j in self._jobs), default=0.0)

    @property
    def min_duration(self) -> float:
        return min((j.duration for j in self._jobs), default=0.0)

    @property
    def max_duration(self) -> float:
        return max((j.duration for j in self._jobs), default=0.0)

    @property
    def mu(self) -> float:
        """Max/min job-duration ratio ``μ`` (1.0 for an empty set)."""
        if not self._jobs:
            return 1.0
        return self.max_duration / self.min_duration

    def total_volume(self) -> float:
        """``Σ_J s(J) · len(I(J))`` — the size-time volume of the workload."""
        return sum(j.size * j.duration for j in self._jobs)

    def peak_demand(self) -> float:
        """``max_t s(J, t)`` (event sweep; no profile object built)."""
        if not self._jobs:
            return 0.0
        a = self.to_arrays()
        return vec_peak_load(a.starts, a.ends, a.sizes)

    # -- transformations -------------------------------------------------------
    def filter(self, predicate: Callable[[Job], bool]) -> "JobSet":
        """Subset of jobs satisfying the predicate."""
        return JobSet(j for j in self._jobs if predicate(j))

    def minus(self, other: "JobSet") -> "JobSet":
        """Set difference by uid (the paper's ``J̈_i = ... - U J̌_k``)."""
        gone = other._by_uid.keys()
        # a subset keeps the canonical order, so the re-sort is skipped
        return JobSet(
            tuple(j for j in self._jobs if j.uid not in gone), _presorted=True
        )

    def union(self, other: "JobSet") -> "JobSet":
        """Union by uid; raises on conflicting jobs sharing a uid."""
        merged = dict(self._by_uid)
        for job in other:
            existing = merged.get(job.uid)
            if existing is not None and existing is not job:
                raise ValueError(f"uid clash on union: {job.uid}")
            merged[job.uid] = job
        return JobSet(merged.values())

    def sizes_array(self) -> np.ndarray:
        """Job sizes as a numpy array (arrival order)."""
        return np.array([j.size for j in self._jobs], dtype=float)

    # -- dunder -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, JobSet) and self._by_uid.keys() == other._by_uid.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self._by_uid))

    def __repr__(self) -> str:
        return f"JobSet({len(self._jobs)} jobs, mu={self.mu:.3g})"
