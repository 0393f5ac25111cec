"""The incremental online runtime: one event at a time, no batch in sight.

:class:`SchedulerRuntime` wraps any :class:`~repro.online.engine.OnlineScheduler`
and accepts a live, unbounded stream of calls:

- :meth:`~SchedulerRuntime.submit` — a job arrives *without* a departure
  time (non-clairvoyance is structural: the scheduler only ever sees a
  :class:`~repro.online.engine.JobView`),
- :meth:`~SchedulerRuntime.depart` — the job's departure is revealed, its
  capacity is released and its busy interval lands in the running
  :class:`~repro.core.sweep.BusyIntervalCache` cost accumulator,
- :meth:`~SchedulerRuntime.advance` — the clock moves with no event
  (metrics sampling, heartbeats).

Time must be non-decreasing across calls, and the half-open boundary
convention of the batch engine applies: a departure at ``t`` delivered
before an arrival at ``t`` is the canonical order (what
:func:`~repro.core.events.event_stream` produces), so a job leaving at
``t`` never overlaps one arriving at ``t``.

A finished :class:`~repro.schedule.schedule.Schedule` can be emitted at any
point; still-open jobs are provisionally closed at the requested horizon.
Every accepted call is appended to an in-memory event log, which is what
:mod:`repro.service.checkpoint` records, snapshots and replays.

Admission control: ``submit`` consults a list of policies before the
scheduler sees the job; a policy returning a string rejects the job with
that reason (counted in metrics, absent from the schedule).  Policies are
given declaratively (``"fits-ladder"``, ``("max-active", 200)``) so that a
checkpoint can reconstruct them, or as arbitrary callables for in-process
use (such a runtime cannot be snapshotted).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterable, Mapping, Sequence

from ..core.sweep import BusyIntervalCache
from ..core.tolerance import FINE_TOL
from ..jobs.job import Job
from ..machines.ladder import Ladder
from ..online.engine import JobView, OnlineScheduler
from ..online.dec_online import DecOnlineScheduler
from ..online.first_fit import FirstFitScheduler
from ..online.general_online import GeneralOnlineScheduler
from ..online.inc_online import IncOnlineScheduler
from ..schedule.schedule import MachineKey, Schedule

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry

__all__ = [
    "Admission",
    "AdmissionError",
    "SCHEDULER_REGISTRY",
    "SchedulerRuntime",
    "make_scheduler",
    "max_active_policy",
    "size_fits_policy",
]


class AdmissionError(ValueError):
    """The event stream violated the runtime's ordering/identity contract
    (time running backwards, duplicate uid, departure of an unknown job)."""


@dataclass(frozen=True, slots=True)
class Admission:
    """Outcome of one ``submit`` call."""

    uid: int
    accepted: bool
    machine: MachineKey | None  # None iff rejected
    reason: str | None  # rejection reason iff rejected
    latency_s: float  # wall-clock time spent in the scheduler's decision


# ---------------------------------------------------------------------------
# scheduler + admission-policy registries (names are the wire/trace format)
# ---------------------------------------------------------------------------

SCHEDULER_REGISTRY: dict[str, Callable[[Ladder], object]] = {
    "dec": DecOnlineScheduler,
    "inc": IncOnlineScheduler,
    "general": GeneralOnlineScheduler,
    # First-Fit on the largest type: every admissible job fits it
    "first-fit": lambda ladder: FirstFitScheduler(ladder, ladder.m),
}


#: a policy inspects the arriving JobView and returns a rejection reason
#: (or ``None`` to admit)
AdmissionPolicy = Callable[[JobView, "SchedulerRuntime"], "str | None"]


def make_scheduler(name: str, ladder: Ladder) -> OnlineScheduler:
    """Instantiate a registered online scheduler by wire name."""
    try:
        factory = SCHEDULER_REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; choose from {sorted(SCHEDULER_REGISTRY)}"
        ) from None
    return factory(ladder)


def size_fits_policy(view: JobView, runtime: "SchedulerRuntime") -> str | None:
    """Reject jobs larger than the biggest machine type."""
    g_max = runtime.ladder.capacity(runtime.ladder.m)
    if view.size > g_max * (1 + FINE_TOL):
        return f"size {view.size:g} exceeds largest capacity {g_max:g}"
    return None


def max_active_policy(limit: int) -> AdmissionPolicy:
    """Reject arrivals while ``limit`` jobs are already active."""

    def policy(view: JobView, runtime: "SchedulerRuntime") -> str | None:
        if runtime.n_active >= limit:
            return f"active-job limit {limit} reached"
        return None

    return policy


def _resolve_policy(spec: AdmissionPolicy | str | Sequence[object]) -> AdmissionPolicy:
    """Turn a declarative policy spec (or callable) into a callable."""
    if callable(spec):
        return spec
    if spec == "fits-ladder":
        return size_fits_policy
    if isinstance(spec, (list, tuple)) and len(spec) == 2 and spec[0] == "max-active":
        return max_active_policy(int(spec[1]))
    raise ValueError(f"unknown admission policy spec {spec!r}")


# ---------------------------------------------------------------------------
# the runtime
# ---------------------------------------------------------------------------

class SchedulerRuntime:
    """Incremental online scheduling over a live event stream."""

    __slots__ = (
        "scheduler",
        "metrics",
        "config",
        "clock",
        "_policies",
        "_open",
        "_closed",
        "_rejected",
        "_used_uids",
        "_next_uid",
        "_cache",
        "_machine_open",
        "_busy_by_type",
        "_log",
        "_log_base",
        "_placement_stats",
    )

    def __init__(
        self,
        scheduler: OnlineScheduler,
        *,
        metrics: "MetricsRegistry | None" = None,
        admission: Iterable[AdmissionPolicy | str | Sequence[object]] = (),
        config: Mapping[str, object] | None = None,
    ) -> None:
        from .metrics import MetricsRegistry  # local: keep import graph acyclic

        self.scheduler = scheduler
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: serializable description (scheduler name, ladder, admission) or
        #: None when constructed around a bare scheduler object
        self.config = dict(config) if config is not None else None
        self.clock = -math.inf
        self._policies = [_resolve_policy(p) for p in admission]
        # uid -> (size, arrival, name, MachineKey)
        self._open: dict[int, tuple[float, float, str, MachineKey]] = {}
        # uid -> (Job, MachineKey)
        self._closed: dict[int, tuple[Job, MachineKey]] = {}
        self._rejected: dict[int, str] = {}
        self._used_uids: set[int] = set()
        self._next_uid = 0
        self._cache = BusyIntervalCache()
        self._machine_open: dict[MachineKey, int] = {}
        self._busy_by_type: dict[int, int] = {}
        self._log: list[dict] = []
        # events dropped from memory by a state-snapshot restore: the runtime
        # then holds only the tail of its own history (the WAL holds the rest)
        self._log_base = 0
        # schedulers built on IndexedPool expose fleet-wide probe counters
        # through their FleetState; others (custom/test doubles) opt out
        self._placement_stats = getattr(
            getattr(scheduler, "state", None), "stats", None
        )

    @classmethod
    def create(
        cls,
        scheduler_name: str,
        ladder: Ladder,
        *,
        admission: Iterable[str | Sequence[object]] = (),
        metrics: "MetricsRegistry | None" = None,
    ) -> "SchedulerRuntime":
        """Build a runtime from wire names — the checkpointable constructor.

        ``admission`` must use declarative specs here (``"fits-ladder"`` or
        ``("max-active", n)``) so the resulting config round-trips through
        :func:`repro.service.checkpoint.snapshot`.
        """
        specs = list(admission)
        for spec in specs:
            if callable(spec):
                raise ValueError(
                    "SchedulerRuntime.create needs declarative admission specs; "
                    "pass callables to SchedulerRuntime() directly (not checkpointable)"
                )
        config = {
            "scheduler": scheduler_name,
            "ladder": [[t.capacity, t.rate] for t in ladder.types],
            "admission": [list(s) if isinstance(s, tuple) else s for s in specs],
        }
        return cls(
            make_scheduler(scheduler_name, ladder),
            metrics=metrics,
            admission=specs,
            config=config,
        )

    # -- introspection ------------------------------------------------------
    @property
    def ladder(self) -> Ladder:
        return self.scheduler.ladder

    @property
    def n_active(self) -> int:
        """Jobs submitted and not yet departed."""
        return len(self._open)

    @property
    def n_events(self) -> int:
        """Accepted stream calls so far (including any truncated history)."""
        return self._log_base + len(self._log)

    @property
    def events(self) -> tuple[dict, ...]:
        """The in-memory event log (inputs only; decisions are derived).

        After a state-snapshot restore this holds only events *since* the
        snapshot — check :attr:`history_truncated` before treating it as the
        full history (``record_trace``/``snapshot`` refuse in that case).
        """
        return tuple(self._log)

    @property
    def history_truncated(self) -> bool:
        """True when earlier events were dropped by a state-snapshot restore."""
        return self._log_base > 0

    def events_since(self, start: int) -> list[dict]:
        """Events with stream index ``>= start`` (no full-log copy).

        The WAL appender calls this per request, so it must be O(delta);
        ``start`` below :attr:`history_truncated`'s base is unrecoverable.
        """
        if start < self._log_base:
            raise ValueError(
                f"events before index {self._log_base} were truncated by a "
                f"state-snapshot restore (requested {start})"
            )
        return self._log[start - self._log_base:]

    def active_uids(self) -> list[int]:
        return sorted(self._open)

    def uid_inventory(self) -> dict:
        """The uid bookkeeping a routing front-end must mirror.

        A recovered runtime knows every uid it ever saw, but a freshly
        started router does not — it adopts this at attach time so
        duplicate refusal and depart routing survive a restart.
        """
        return {
            "clock": self.clock,
            "open": {uid: entry[1] for uid, entry in self._open.items()},
            "used": sorted(self._used_uids),
            "rejected": sorted(self._rejected),
        }

    def knows_uid(self, uid: int) -> bool:
        """True if a job with this uid was ever submitted (open, closed or
        rejected) — the server's duplicate-submit guard."""
        return int(uid) in self._used_uids

    def machine_of(self, uid: int) -> MachineKey:
        """Where a submitted (open or departed) job was placed."""
        if uid in self._open:
            return self._open[uid][3]
        if uid in self._closed:
            return self._closed[uid][1]
        raise AdmissionError(f"unknown or rejected job uid {uid}")

    def busy_machines_by_type(self) -> dict[int, int]:
        """Machines currently hosting at least one open job, per type."""
        return {i: n for i, n in sorted(self._busy_by_type.items()) if n > 0}

    # -- the streaming API --------------------------------------------------
    def submit(
        self,
        size: float,
        arrival: float,
        *,
        name: str | None = None,
        uid: int | None = None,
    ) -> Admission:
        """One job arrives.  Returns the admission decision.

        A submit that raises leaves the runtime exactly as it was: the
        arrival is logged, its uid used and the clock moved only once the
        job is rejected by a policy or placed by the scheduler.
        """
        arrival = float(arrival)
        if not math.isfinite(arrival):
            raise AdmissionError("arrival time must be finite")
        if arrival < self.clock:
            raise AdmissionError(
                f"time ran backwards: arrival {arrival:g} < clock {self.clock:g}"
            )
        auto_uid = uid is None
        if uid is None:
            uid = self._next_uid
            while uid in self._used_uids:
                uid += 1
        uid = int(uid)
        if uid in self._used_uids:
            raise AdmissionError(f"duplicate job uid {uid}")
        view = JobView(uid=uid, size=float(size), arrival=arrival,
                       name=name if name is not None else f"J{uid}")
        if view.size <= 0 or not math.isfinite(view.size):
            raise AdmissionError(f"job size must be positive and finite, got {size}")

        for policy in self._policies:
            reason = policy(view, self)
            if reason is not None:
                self._record_arrival(view, auto_uid)
                self._rejected[uid] = reason
                self.metrics.counter("rejections").inc()
                return Admission(uid=uid, accepted=False, machine=None,
                                 reason=reason, latency_s=0.0)

        # observability only: the latency histogram and probe counters never
        # feed scheduler decisions or checkpoint state, so replay stays
        # byte-identical.
        stats = self._placement_stats
        probes_before = stats.probes if stats is not None else 0
        t0 = time.perf_counter()  # bshm: ignore[BSHM004]
        key = self.scheduler.on_arrival(view)
        latency = time.perf_counter() - t0  # bshm: ignore[BSHM004]
        if not isinstance(key, MachineKey):
            raise TypeError("scheduler must return a MachineKey")
        self._record_arrival(view, auto_uid)
        if stats is not None:
            depth = stats.probes - probes_before
            self.metrics.counter("placement_probes").inc(depth)
            self.metrics.histogram("probe_depth").observe(depth)

        self._open[uid] = (view.size, arrival, view.name, key)
        n_on_machine = self._machine_open.get(key, 0) + 1
        self._machine_open[key] = n_on_machine
        if n_on_machine == 1:
            self._busy_by_type[key.type_index] = (
                self._busy_by_type.get(key.type_index, 0) + 1
            )
        self._sample_gauges()
        self.metrics.histogram("decision_latency_ms").observe(latency * 1e3)
        return Admission(uid=uid, accepted=True, machine=key, reason=None,
                        latency_s=latency)

    def depart(self, uid: int, at: float) -> None:
        """A job's departure is revealed; release capacity and book its cost."""
        at = float(at)
        uid = int(uid)
        if not math.isfinite(at):
            raise AdmissionError("departure time must be finite")
        if at < self.clock:
            raise AdmissionError(
                f"time ran backwards: departure {at:g} < clock {self.clock:g}"
            )
        if uid in self._rejected:
            # a rejected job never occupied capacity; its departure is a no-op
            self.clock = at
            self._log.append({"op": "depart", "t": at, "uid": uid})
            return
        try:
            size, arrival, name, key = self._open.pop(uid)
        except KeyError:
            raise AdmissionError(f"departure of unknown job uid {uid}") from None
        if not at > arrival:
            self._open[uid] = (size, arrival, name, key)
            raise AdmissionError(
                f"job {uid} cannot depart at {at:g} <= its arrival {arrival:g}"
            )
        self.clock = at
        self._log.append({"op": "depart", "t": at, "uid": uid})

        self.scheduler.on_departure(uid)
        job = Job(size, arrival, at, name=name, uid=uid)
        self._closed[uid] = (job, key)
        self._cache.add(key, arrival, at)
        n_on_machine = self._machine_open[key] - 1
        self._machine_open[key] = n_on_machine
        if n_on_machine == 0:
            self._busy_by_type[key.type_index] -= 1
        self.metrics.counter("departures").inc()
        self._sample_gauges()

    def advance(self, t: float) -> None:
        """Move the clock with no job event (heartbeat / sampling point)."""
        t = float(t)
        if not math.isfinite(t):
            raise AdmissionError("time must be finite")
        if t < self.clock:
            raise AdmissionError(
                f"time ran backwards: advance {t:g} < clock {self.clock:g}"
            )
        self.clock = t
        self._log.append({"op": "advance", "t": t})
        self._sample_gauges()

    # -- derived state ------------------------------------------------------
    def schedule(self, *, at: float | None = None) -> Schedule:
        """The schedule so far, as the batch world understands it.

        Departed jobs carry their true intervals.  Still-open jobs are
        provisionally closed at ``at`` (default: the current clock); open
        jobs that arrived exactly at ``at`` would have an empty interval
        and are omitted.
        """
        horizon = self.clock if at is None else float(at)
        assignment: dict[Job, MachineKey] = {
            job: key for job, key in self._closed.values()
        }
        for uid, (size, arrival, name, key) in self._open.items():
            if arrival < horizon:
                assignment[Job(size, arrival, horizon, name=name, uid=uid)] = key
        return Schedule(self.ladder, assignment)

    def cost(self, *, at: float | None = None) -> float:
        """Running busy cost: closed intervals from the accumulator cache,
        open jobs counted up to ``at`` (default: the current clock)."""
        horizon = self.clock if at is None else float(at)
        open_by_machine: dict[MachineKey, list[tuple[float, float]]] = {}
        for size, arrival, name, key in self._open.values():
            if arrival < horizon:
                open_by_machine.setdefault(key, []).append((arrival, horizon))
        total = 0.0
        # sorted: summation order (hence the exact float result) must not
        # depend on set/hash iteration order — checkpoints verify cost
        # across processes with PYTHONHASHSEED randomization
        keys = sorted(set(self._cache.machines()) | set(open_by_machine))
        for key in keys:
            busy = self._cache.busy_time_with(key, open_by_machine.get(key, ()))
            total += self.ladder.rate(key.type_index) * busy
        return total

    # -- internals ----------------------------------------------------------
    def _record_arrival(self, view: JobView, auto_uid: bool) -> None:
        """Commit an arrival that can no longer fail: uid, clock, log."""
        self._used_uids.add(view.uid)
        if auto_uid:
            self._next_uid = view.uid
        self.clock = view.arrival
        self._log.append(
            {"op": "submit", "t": view.arrival, "uid": view.uid, "size": view.size,
             "name": view.name}
        )
        self.metrics.counter("arrivals").inc()

    def _sample_gauges(self) -> None:
        self.metrics.gauge("active_jobs").set(len(self._open))
        self.metrics.gauge("busy_machines").set(
            sum(1 for n in self._machine_open.values() if n > 0)
        )
        for i, n in self._busy_by_type.items():
            self.metrics.gauge(f"busy_machines_type_{i}").set(n)

    def __repr__(self) -> str:
        return (
            f"SchedulerRuntime({type(self.scheduler).__name__}, "
            f"clock={self.clock:g}, active={len(self._open)}, "
            f"closed={len(self._closed)}, rejected={len(self._rejected)})"
        )
