"""Deterministic, seed-driven fault injection for the durable service layer.

Chaos testing an event-sourced scheduler is tractable because the runtime
is a deterministic function of its event stream: kill a run at *any* point,
recover from the WAL, re-feed the lost suffix, and the result must be
bit-identical to an uninterrupted run.  This module provides the kill
switch — with no wall-clock or entropy anywhere, so every chaos case is
exactly reproducible from its seed.

A :class:`FaultPlan` is a list of :class:`FaultPoint` triggers.  Each point
names a *site* (an instrumented hook in the WAL or server), a 1-based
*step* (the n-th time that site fires) and a *kind*:

``crash-before-append``
    raise :class:`InjectedFault` before the record is framed or written —
    the event is lost entirely.
``crash-after-append``
    raise after the frame is written (and policy-fsynced) — the event
    survives iff the fsync policy made it durable.
``partial-write``
    persist only the first half of one write, then crash — the torn tail
    the recovery path must detect and truncate.  A write carries every
    frame of one batch, so the tear can fall between, or inside, any of
    its frames.
``fsync-error``
    make ``fsync`` raise ``OSError`` — the WAL wraps it into a
    ``WALError`` and the service fail-stops (durability can no longer be
    promised).
``slow-io``
    sleep briefly inside a write (latency, no crash): injected runs must
    still finish state-identical to clean ones.
``crash-before-ack``
    (server site) crash after a batch's WAL append, before any of its
    replies is sent — its events are logged (durable as the fsync policy
    made them) but none is acknowledged.
``conn-drop``
    (server site) sever the connection mid-request.
``stall``
    (server site) block request processing on an event the test controls —
    how the overload-shedding tests build deterministic backlog.

Durability simulation: the injector wraps the WAL's writes and fsyncs and
tracks, per file, how many bytes are *written* vs *durable* (fsynced;
partial writes count as durable to model a persisted torn sector).  After
a simulated crash, :meth:`FaultInjector.apply_crash_effects` truncates
every file to its durable length — the on-disk state a power loss would
have left behind.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import time
from dataclasses import dataclass
from typing import IO, Any, Iterable, Sequence

__all__ = [
    "CRASH_KINDS",
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultPoint",
    "InjectedFault",
]

#: kinds that abort the run (simulated process death)
CRASH_KINDS = ("crash-before-append", "crash-after-append", "partial-write",
               "fsync-error")
#: every recognised kind; the server-site crash is not in CRASH_KINDS, so
#: seeded WAL plans keep the kill points they had before it existed
FAULT_KINDS = CRASH_KINDS + ("crash-before-ack", "slow-io", "conn-drop", "stall")

#: which instrumented site each kind triggers at
_KIND_SITE = {
    "crash-before-append": "wal.append.before",
    "crash-after-append": "wal.append.after",
    "partial-write": "wal.io.write",
    "fsync-error": "wal.io.fsync",
    "slow-io": "wal.io.write",
    "crash-before-ack": "server.ack",
    "conn-drop": "server.request",
    "stall": "server.request",
}


class InjectedFault(RuntimeError):
    """A planned fault fired (simulated crash / drop / error)."""

    def __init__(self, point: "FaultPoint") -> None:
        super().__init__(
            f"injected {point.kind} at {point.site} step {point.step}"
        )
        self.point = point


@dataclass(frozen=True)
class FaultPoint:
    """One planned fault: fire ``kind`` the ``step``-th time ``site`` runs."""

    kind: str
    step: int
    arg: Any = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.step < 1:
            raise ValueError("fault steps are 1-based")

    @property
    def site(self) -> str:
        return _KIND_SITE[self.kind]


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic set of fault points (usually one kill point)."""

    points: tuple[FaultPoint, ...]

    @classmethod
    def of(cls, *points: FaultPoint) -> "FaultPlan":
        return cls(points=tuple(points))

    @classmethod
    def seeded(
        cls,
        seed: int,
        *,
        kinds: Sequence[str] = CRASH_KINDS,
        max_step: int = 64,
    ) -> "FaultPlan":
        """One kill point derived purely from ``seed`` (sha256, no RNG state).

        The kind cycles through ``kinds`` and the step lands in
        ``[1, max_step]`` — spreading 200 seeds over 200 distinct
        (kind, step) kill points without any global randomness.
        """
        digest = hashlib.sha256(f"bshm-faults:{seed}".encode()).digest()
        kind = kinds[digest[0] % len(kinds)]
        step = 1 + int.from_bytes(digest[1:5], "big") % max_step
        return cls(points=(FaultPoint(kind=kind, step=step),))

    def describe(self) -> str:
        return ", ".join(f"{p.kind}@{p.step}" for p in self.points) or "(none)"


class FaultInjector:
    """Threads a :class:`FaultPlan` through the WAL and server hooks."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.fired: list[FaultPoint] = []
        self._counts: dict[str, int] = {}
        self._written: dict[str, int] = {}
        self._durable: dict[str, int] = {}

    # -- trigger matching ---------------------------------------------------
    def _fire(self, site: str) -> FaultPoint | None:
        """Count one execution of ``site``; return the matching point if any."""
        step = self._counts.get(site, 0) + 1
        self._counts[site] = step
        for point in self.plan.points:
            if point.site == site and point.step == step:
                self.fired.append(point)
                return point
        return None

    def point(self, site: str) -> None:
        """Generic (synchronous) hook: crash kinds raise, others no-op here."""
        point = self._fire(site)
        if point is not None and point.kind in CRASH_KINDS:
            raise InjectedFault(point)

    async def apoint(self, site: str) -> None:
        """Async server hook: stalls await, slow-io sleeps, the rest raise."""
        point = self._fire(site)
        if point is None:
            return
        if point.kind == "stall":
            await point.arg.wait()
        elif point.kind == "slow-io":
            await asyncio.sleep(float(point.arg or 1e-3))
        else:
            raise InjectedFault(point)

    # -- instrumented file I/O (durability bookkeeping) ---------------------
    def _path(self, fh: IO[bytes]) -> str:
        return os.path.abspath(fh.name)

    def io_write(self, fh: IO[bytes], data: bytes) -> None:
        """Write ``data`` through the fault filter; flushed so the on-disk
        file always reflects completed writes (crash effects then truncate
        precisely)."""
        path = self._path(fh)
        point = self._fire("wal.io.write")
        if point is not None and point.kind == "partial-write":
            half = data[: max(1, len(data) // 2)]
            fh.write(half)
            fh.flush()
            written = self._written.get(path, 0) + len(half)
            self._written[path] = written
            # torn sector: the partial frame is what a power loss persisted
            self._durable[path] = written
            raise InjectedFault(point)
        if point is not None and point.kind == "slow-io":
            time.sleep(float(point.arg or 1e-4))
        fh.write(data)
        fh.flush()
        self._written[path] = self._written.get(path, 0) + len(data)

    def io_fsync(self, fh: IO[bytes]) -> None:
        """fsync through the fault filter; marks the file's bytes durable."""
        path = self._path(fh)
        point = self._fire("wal.io.fsync")
        if point is not None and point.kind == "fsync-error":
            raise OSError(f"injected fsync failure (step {point.step})")
        fh.flush()
        os.fsync(fh.fileno())
        self._durable[path] = self._written.get(path, 0)

    def note_removed(self, path: str | os.PathLike[str]) -> None:
        """Forget bookkeeping for a file the WAL deleted or renamed away."""
        key = os.path.abspath(os.fspath(path))
        self._written.pop(key, None)
        self._durable.pop(key, None)

    def apply_crash_effects(self) -> dict[str, int]:
        """Truncate every tracked file to its durable length — the disk
        state after the simulated crash.  Returns ``{path: bytes_lost}``."""
        lost: dict[str, int] = {}
        for path, written in self._written.items():
            durable = self._durable.get(path, 0)
            if durable < written and os.path.exists(path):
                os.truncate(path, durable)
                lost[path] = written - durable
                self._written[path] = durable
        return lost


def chaos_seeds(n: int, *, start: int = 0) -> Iterable[int]:
    """The canonical seed range for a chaos matrix of ``n`` kill points."""
    return range(start, start + n)
