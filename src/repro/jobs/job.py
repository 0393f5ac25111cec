"""The interval-job model of BSHM (paper Section II).

A job ``J`` is specified by a size ``s(J)``, an arrival time ``I(J)^-`` and a
departure time ``I(J)^+``.  Its *active interval* ``I(J)`` is half-open; its
*duration* is ``len(I(J))``.  Jobs are immutable and carry an integer ``uid``
used for deterministic tie-breaking and schedule bookkeeping.
"""

from __future__ import annotations

import itertools
import math
from collections import deque

from ..core.intervals import Interval

__all__ = ["Job", "reserve_uids"]

_uid_counter = itertools.count()


def reserve_uids(n: int) -> range:
    """Take ``n`` consecutive uids from the counter that numbers new jobs.

    Item ``k`` of the block is the uid the ``k``-th of ``n`` back-to-back
    ``Job()`` calls would have received; the counter is advanced in one
    C-level step, so the block is contiguous.
    """
    if n <= 0:
        return range(0)
    (last,) = deque(itertools.islice(_uid_counter, n), maxlen=1)
    return range(last - n + 1, last + 1)


class Job:
    """An immutable interval job.

    Parameters
    ----------
    size:
        Resource demand ``s(J) > 0`` (same unit as machine capacities).
    arrival, departure:
        Endpoints of the half-open active interval ``[arrival, departure)``;
        ``arrival < departure`` is required.
    name:
        Optional human-readable label (defaults to ``J<uid>``).
    uid:
        Optional explicit unique id; auto-assigned when omitted.
    """

    __slots__ = ("size", "arrival", "departure", "name", "uid")

    def __init__(
        self,
        size: float,
        arrival: float,
        departure: float,
        name: str | None = None,
        uid: int | None = None,
    ) -> None:
        size = float(size)
        arrival = float(arrival)
        departure = float(departure)
        if not (size > 0 and math.isfinite(size)):
            raise ValueError(f"job size must be positive and finite, got {size}")
        if not (arrival < departure):
            raise ValueError(
                f"job must have arrival < departure, got [{arrival}, {departure})"
            )
        if not (math.isfinite(arrival) and math.isfinite(departure)):
            raise ValueError("job endpoints must be finite")
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "arrival", arrival)
        object.__setattr__(self, "departure", departure)
        object.__setattr__(self, "uid", next(_uid_counter) if uid is None else int(uid))
        object.__setattr__(self, "name", name if name is not None else f"J{self.uid}")

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Job is immutable")

    # -- paper notation ---------------------------------------------------
    @property
    def interval(self) -> Interval:
        """The active interval ``I(J)``."""
        return Interval(self.arrival, self.departure)

    @property
    def duration(self) -> float:
        """``len(I(J))``."""
        return self.departure - self.arrival

    def active_at(self, t: float) -> bool:
        """Whether ``t ∈ I(J) = [arrival, departure)``."""
        return self.arrival <= t < self.departure

    def size_class(self, capacities: "list[float] | tuple[float, ...]") -> int:
        """The 1-based machine-type index ``i`` with ``s(J) ∈ (g_{i-1}, g_i]``.

        ``capacities`` must be strictly increasing; raises if the job does not
        fit the largest type.
        """
        for i, g in enumerate(capacities, start=1):
            if self.size <= g:
                return i
        raise ValueError(
            f"job size {self.size} exceeds the largest capacity {capacities[-1]}"
        )

    # -- dunder -------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return isinstance(other, Job) and self.uid == other.uid

    def __hash__(self) -> int:
        return hash(self.uid)

    def __repr__(self) -> str:
        return (
            f"Job({self.name}: s={self.size:g}, "
            f"I=[{self.arrival:g},{self.departure:g}))"
        )
