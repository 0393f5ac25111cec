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

    def __init__(
        self, starts: np.ndarray, ends: np.ndarray, sizes: np.ndarray, uids: np.ndarray
    ) -> None:
        for arr in (starts, ends, sizes, uids):
            arr.setflags(write=False)
        self.starts: np.ndarray = starts
        self.ends: np.ndarray = ends
        self.sizes: np.ndarray = sizes
        self.uids: np.ndarray = uids

    @classmethod
    def of_jobs(cls, jobs: Sequence[Job]) -> "JobArrays":
        """The columns of ``jobs``, which are already in canonical order."""
        n = len(jobs)
        return cls(
            np.fromiter((j.arrival for j in jobs), dtype=np.float64, count=n),
            np.fromiter((j.departure for j in jobs), dtype=np.float64, count=n),
            np.fromiter((j.size for j in jobs), dtype=np.float64, count=n),
            np.fromiter((j.uid for j in jobs), dtype=np.int64, count=n),
        )

    def __len__(self) -> int:
        return int(self.starts.size)


class JobSet:
    """An immutable set of interval jobs.

    A set is held as ``Job`` objects or, when it was built from a trace's
    columns (:meth:`from_columns`), as :class:`JobArrays` plus a name
    column.  Either form is derived from the other on first use and cached
    in ``_cache``; the set never changes, so the cache never goes stale.
    """

    __slots__ = ("_cache",)

    def __init__(self, jobs: Iterable[Job] = (), *, _presorted: bool = False) -> None:
        if _presorted:
            # internal fast path: the caller guarantees (arrival, uid) order
            # with unique uids (subsets of an existing JobSet keep both)
            cache: dict = {"jobs": tuple(jobs)}
        else:
            ordered = tuple(sorted(jobs, key=lambda j: (j.arrival, j.uid)))
            by_uid = {job.uid: job for job in ordered}
            if len(by_uid) != len(ordered):
                raise ValueError("duplicate job uids in JobSet")
            cache = {"jobs": ordered, "by_uid": by_uid}
        object.__setattr__(self, "_cache", cache)

    @classmethod
    def from_columns(
        cls,
        starts: np.ndarray,
        ends: np.ndarray,
        sizes: np.ndarray,
        uids: np.ndarray,
        names: Sequence[str],
    ) -> "JobSet":
        """A set held as columns, whose ``Job`` objects are built on first use.

        Row ``k`` is ``Job(sizes[k], starts[k], ends[k], names[k], uids[k])``.
        ``uids`` must increase with the row, so that a stable sort by arrival
        is the canonical ``(arrival, uid)`` order.  A row that is not a valid
        job raises ``Job``'s own ``ValueError``.
        """
        starts = np.array(starts, dtype=np.float64)
        ends = np.array(ends, dtype=np.float64)
        sizes = np.array(sizes, dtype=np.float64)
        uids = np.array(uids, dtype=np.int64)
        n = starts.size
        if not (starts.ndim == 1 and ends.size == sizes.size == uids.size == len(names) == n):
            raise ValueError("job columns must be 1-D and of equal length")
        valid = (
            (sizes > 0) & np.isfinite(sizes)
            & (starts < ends) & np.isfinite(starts) & np.isfinite(ends)
        )
        if not valid.all():
            bad = int(np.argmin(valid))
            # the mask is Job's own checks, so this raises Job's message
            Job(sizes[bad], starts[bad], ends[bad], uid=int(uids[bad]))
        if not bool((uids[1:] > uids[:-1]).all()):
            raise ValueError("job uids must increase with the row")
        if not bool((starts[1:] >= starts[:-1]).all()):
            order = np.argsort(starts, kind="stable")
            starts, ends, sizes, uids = starts[order], ends[order], sizes[order], uids[order]
            names = [names[k] for k in order.tolist()]
        self = cls.__new__(cls)
        # the one non-constructor initializer of a frozen set: it builds a
        # new object.  # bshm: ignore[BSHM005]
        object.__setattr__(
            self,
            "_cache",
            {"arrays": JobArrays(starts, ends, sizes, uids), "names": tuple(names)},
        )
        return self

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("JobSet is immutable")

    # -- basic access -----------------------------------------------------
    @property
    def jobs(self) -> tuple[Job, ...]:
        """Jobs sorted by (arrival, uid)."""
        cache = self._cache
        seq = cache.get("jobs")
        if seq is None:
            a = cache["arrays"]
            seq = cache["jobs"] = tuple(
                map(
                    Job,
                    a.sizes.tolist(),
                    a.starts.tolist(),
                    a.ends.tolist(),
                    cache["names"],
                    a.uids.tolist(),
                )
            )
        return seq

    @property
    def _by_uid(self) -> dict[int, Job]:
        cache = self._cache
        by_uid = cache.get("by_uid")
        if by_uid is None:
            by_uid = cache["by_uid"] = {job.uid: job for job in self.jobs}
        return by_uid

    @property
    def names(self) -> tuple[str, ...]:
        """Job names in the canonical order."""
        cache = self._cache
        names = cache.get("names")
        if names is None:
            names = cache["names"] = tuple(job.name for job in cache["jobs"])
        return names

    def __iter__(self) -> Iterator[Job]:
        return iter(self.jobs)

    def __len__(self) -> int:
        seq = self._cache.get("jobs")
        return len(seq) if seq is not None else len(self._cache["arrays"])

    def __contains__(self, job: Job) -> bool:
        return job.uid in self._by_uid

    def __getitem__(self, uid: int) -> Job:
        return self._by_uid[uid]

    @property
    def empty(self) -> bool:
        return len(self) == 0

    def to_arrays(self) -> JobArrays:
        """Columnar ``(starts, ends, sizes, uids)`` view of the set.

        Built lazily on first use and cached for the set's lifetime: JobSet
        is immutable, so the view can never go stale — every "mutation"
        (filter / minus / union / transform) constructs a *new* JobSet whose
        cache starts empty, which is what invalidation means here.  The
        arrays themselves are read-only.
        """
        cache = self._cache
        arrays = cache.get("arrays")
        if arrays is None:
            arrays = cache["arrays"] = JobArrays.of_jobs(cache["jobs"])
        return arrays

    # -- aggregate queries ---------------------------------------------------
    def active_at(self, t: float) -> "JobSet":
        """``J(t)`` — the jobs active at time ``t``."""
        return JobSet(j for j in self.jobs if j.active_at(t))

    def demand_at(self, t: float) -> float:
        """``s(J, t)`` — total size of the jobs active at ``t``."""
        return sum(j.size for j in self.jobs if j.active_at(t))

    def demand_profile(self) -> StepFunction:
        """``s(J, ·)`` as a step function (the paper's *demand chart* height),
        from the columnar kernel over :meth:`to_arrays`."""
        if self.empty:
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
        return JobSet(j for j in self.jobs if j.size > g_prev)

    def size_partition(self, capacities: Sequence[float]) -> list["JobSet"]:
        """Partition into classes ``J_i = {J : s(J) ∈ (g_{i-1}, g_i]}``.

        Returns a list of ``m`` JobSets (possibly empty), 0-indexed so that
        element ``i-1`` is the paper's ``J_i``.
        """
        buckets: list[list[Job]] = [[] for _ in capacities]
        for job in self.jobs:
            buckets[job.size_class(tuple(capacities)) - 1].append(job)
        return [JobSet(b) for b in buckets]

    def busy_span(self) -> IntervalSet:
        """``U_{J in set} I(J)`` — the union of all active intervals."""
        if self.empty:
            return IntervalSet()
        a = self.to_arrays()
        return vec_busy_union(a.starts, a.ends)

    def segments(self) -> list[Interval]:
        """Elementary segments on which every aggregate is constant."""
        return elementary_segments(self.jobs)

    # -- scalar statistics (from the columns) ---------------------------------
    def _durations(self) -> np.ndarray:
        a = self.to_arrays()
        return a.ends - a.starts

    @property
    def max_size(self) -> float:
        sizes = self.to_arrays().sizes
        return float(sizes.max()) if sizes.size else 0.0

    @property
    def min_duration(self) -> float:
        durations = self._durations()
        return float(durations.min()) if durations.size else 0.0

    @property
    def max_duration(self) -> float:
        durations = self._durations()
        return float(durations.max()) if durations.size else 0.0

    @property
    def mu(self) -> float:
        """Max/min job-duration ratio ``μ`` (1.0 for an empty set)."""
        if self.empty:
            return 1.0
        return self.max_duration / self.min_duration

    def total_volume(self) -> float:
        """``Σ_J s(J) · len(I(J))`` — the size-time volume of the workload."""
        return sum((self.to_arrays().sizes * self._durations()).tolist())

    def peak_demand(self) -> float:
        """``max_t s(J, t)`` (event sweep; no profile object built)."""
        if self.empty:
            return 0.0
        a = self.to_arrays()
        return vec_peak_load(a.starts, a.ends, a.sizes)

    # -- transformations -------------------------------------------------------
    def filter(self, predicate: Callable[[Job], bool]) -> "JobSet":
        """Subset of jobs satisfying the predicate."""
        return JobSet(j for j in self.jobs if predicate(j))

    def minus(self, other: "JobSet") -> "JobSet":
        """Set difference by uid (the paper's ``J̈_i = ... - U J̌_k``)."""
        gone = other._by_uid.keys()
        # a subset keeps the canonical order, so the re-sort is skipped
        return JobSet(
            tuple(j for j in self.jobs if j.uid not in gone), _presorted=True
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
        return np.array(self.to_arrays().sizes)

    # -- dunder -----------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, JobSet) and self._by_uid.keys() == other._by_uid.keys()

    def __hash__(self) -> int:
        return hash(frozenset(self._by_uid))

    def __repr__(self) -> str:
        return f"JobSet({len(self)} jobs, mu={self.mu:.3g})"
