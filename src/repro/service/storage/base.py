"""The pluggable event-log persistence contract: :class:`StateStore`.

A store holds exactly what the write-ahead layer needs and nothing else:

- an **append-only event log** — the runtime's accepted input stream,
  indexed by a contiguous sequence number starting at 0,
- a **latest state snapshot** — the canonical JSON text of the runtime's
  state (:class:`repro.service.state.SnapshotEncoder`) taken at some
  event count ``n``,
- the runtime **config** (scheduler wire name, ladder, admission specs),
  persisted once so an empty-but-initialized store can still rebuild.

Restore cost is the contract's whole point: :func:`restore_from_store`
loads the latest snapshot and replays only the **delta** — events with
sequence number at or above the snapshot — so a restart replays at most
the events since the last compaction instead of every event ever served.
The snapshot itself holds every closed job, busy interval and uid, so
loading it still grows with history.

Two backends ship: :class:`~repro.service.storage.memory.MemoryStore`
(tests, ephemeral serving) and
:class:`~repro.service.storage.sqlite.SQLiteStore` (append-only table +
periodic compaction).  Both obey the same durability model, pinned by the
conformance suite in ``tests/service/test_storage.py``:

- ``append_events`` hands records to the store; :meth:`StateStore.sync`
  moves them onto the **durable prefix** (SQLite: transaction commit;
  memory: the simulated watermark).
- A crash loses at most the un-synced suffix — the *torn tail*.  What
  survives is always a clean prefix of the event history, never a gap and
  never a reordering.
- Snapshots are durable the moment ``write_snapshot`` returns, and
  ``compact`` prunes events and snapshots only after the covering
  snapshot is durable.

Fault injection reuses :class:`repro.service.faults.FaultInjector`
verbatim: every append fires the ``wal.append.before`` /
``wal.append.after`` sites, so the existing seeded crash kinds
(``crash-before-append`` / ``crash-after-append``) kill a store-backed
service at exactly the same granularity as the file WAL.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

from ..checkpoint import CheckpointError, _apply_event
from ..faults import FaultInjector
from ..runtime import SchedulerRuntime
from ..state import restore_state

if TYPE_CHECKING:  # pragma: no cover
    from ..metrics import MetricsRegistry

__all__ = [
    "STORE_VERSION",
    "StorageError",
    "StateStore",
    "RecoveredStore",
    "restore_from_store",
]

#: bumped on any incompatible change to what a backend persists
STORE_VERSION = 1


class StorageError(CheckpointError):
    """The event-log store is corrupt, inconsistent, or cannot persist."""


class StateStore(abc.ABC):
    """Append-only event log + latest-snapshot persistence for one runtime.

    Sequence numbers are the runtime's event indices: the ``k``-th accepted
    stream call has sequence number ``k`` (0-based), and the store refuses
    gaps — ``append_events(events, base)`` must have ``base`` equal to the
    current :meth:`n_events`.
    """

    #: optional fault-injection harness; appends fire the WAL sites
    faults: FaultInjector | None = None

    # -- the event log -------------------------------------------------------
    @abc.abstractmethod
    def n_events(self) -> int:
        """Events handed to the store so far (durable or not)."""

    @abc.abstractmethod
    def append_events(self, events: Sequence[dict], base: int) -> None:
        """Append ``events`` at sequence numbers ``[base, base+len)``.

        Raises :class:`StorageError` if ``base`` does not equal the store's
        current event count (a gap or an overlap — both mean the caller and
        the store disagree about history).
        """

    @abc.abstractmethod
    def events_since(self, seq: int) -> list[dict]:
        """The retained events with sequence number ``>= seq``, in order.

        Raises :class:`StorageError` when ``seq`` predates the earliest
        retained event (compaction pruned it) — replaying from there would
        fabricate a gap.
        """

    # -- snapshots -----------------------------------------------------------
    @abc.abstractmethod
    def write_snapshot(self, n_events: int, payload: str) -> None:
        """Durably record a state snapshot taken at event count ``n_events``.

        ``payload`` is the snapshot document already encoded as canonical
        JSON (:meth:`repro.service.state.SnapshotEncoder.encode`); the
        store keeps the text as given.  Raises :class:`StorageError` when
        ``n_events`` lies outside ``[0, n_events()]``.
        """

    @abc.abstractmethod
    def latest_snapshot(self) -> dict | None:
        """The most recent snapshot document, or None."""

    @abc.abstractmethod
    def compact(self) -> int:
        """Prune events and snapshots the latest snapshot covers.

        Returns the number of event records pruned.  A store with no
        snapshot compacts to nothing (returns 0).
        """

    # -- config --------------------------------------------------------------
    @abc.abstractmethod
    def set_config(self, config: dict) -> None:
        """Persist the runtime config (idempotent; first writer wins)."""

    @property
    @abc.abstractmethod
    def config(self) -> dict | None:
        """The persisted runtime config, or None if never set."""

    # -- durability ----------------------------------------------------------
    @abc.abstractmethod
    def sync(self) -> None:
        """Move every appended event onto the durable prefix."""

    @abc.abstractmethod
    def close(self) -> None:
        """Durably close the store (graceful shutdown)."""

    @abc.abstractmethod
    def abandon(self) -> None:
        """Drop the store without syncing (simulated crash path): appended
        but un-synced events are lost, mirroring a power cut."""

    @property
    @abc.abstractmethod
    def description(self) -> str:
        """Human-readable identity, e.g. ``sqlite:/path/shard-0.db``."""

    # -- shared helpers ------------------------------------------------------
    def fire_append_sites(self, before: bool) -> None:
        """Route one append through the WAL fault sites (crash kinds raise)."""
        if self.faults is not None:
            self.faults.point("wal.append.before" if before else "wal.append.after")


@dataclass
class RecoveredStore:
    """What :func:`restore_from_store` rebuilt, and how."""

    runtime: SchedulerRuntime
    n_events: int
    snapshot_n: int | None  # event count of the snapshot used, if any
    replayed: int  # delta events replayed past the snapshot
    source: str  # the store's description

    def describe(self) -> str:
        base = (
            f"snapshot@{self.snapshot_n}" if self.snapshot_n is not None
            else "event log only"
        )
        return (
            f"{self.n_events} events ({base} + {self.replayed} replayed) "
            f"from {self.source}"
        )


def restore_from_store(
    store: StateStore,
    *,
    metrics: "MetricsRegistry | None" = None,
    config: dict | None = None,
    progress: Callable[[str], None] | None = None,
) -> RecoveredStore:
    """Rebuild a runtime from a store: latest snapshot + O(delta) replay.

    ``config`` is only consulted when the store holds no snapshot and no
    persisted config (a service that crashed before persisting anything) —
    without it, an empty store is a :class:`StorageError`.  ``progress``
    receives one human-readable line per recovery stage.
    """
    def report(line: str) -> None:
        if progress is not None:
            progress(line)

    runtime: SchedulerRuntime | None = None
    snapshot_n: int | None = None
    snap = store.latest_snapshot()
    if snap is not None:
        runtime = restore_state(snap, metrics=metrics)
        snapshot_n = runtime.n_events
        report(f"snapshot@{snapshot_n}: state restored, no replay needed for it")

    base = runtime.n_events if runtime is not None else 0
    delta = store.events_since(base)
    if runtime is None:
        stored = store.config if store.config is not None else config
        if stored is None:
            raise StorageError(
                f"store {store.description} holds no recoverable data "
                "(and no fallback config was provided)"
            )
        from ..checkpoint import _runtime_from_config

        runtime = _runtime_from_config(stored, metrics=metrics)
    for event in delta:
        _apply_event(runtime, event)
    if delta:
        report(f"event log: replayed {len(delta)} delta event(s) past {base}")
    registry = metrics if metrics is not None else runtime.metrics
    registry.counter("store_recovered_records").inc(len(delta))
    return RecoveredStore(
        runtime=runtime,
        n_events=runtime.n_events,
        snapshot_n=snapshot_n,
        replayed=len(delta),
        source=store.description,
    )
