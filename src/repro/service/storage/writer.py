"""Server-side persistence adapter over any :class:`StateStore`.

:class:`StoreWriter` speaks the exact surface
:class:`~repro.service.server.SchedulerServer` already drives for the file
WAL — ``append_new`` / ``sync`` / ``compact`` / ``close`` / ``abandon`` —
so a server (or a shard worker) persists through a pluggable backend with
no protocol change:

- **ack ordering** — the server applies a request to the runtime, calls
  :meth:`append_new`, and only then acknowledges; an acked event is in
  the store (durable up to the sync policy's window);
- **sync policy** — ``always`` syncs after every request, ``batch`` every
  ``batch_every`` appended events, ``never`` only at compaction and
  shutdown (the same three policies, and the same loss windows, as the
  file WAL's fsync flag);
- **compaction** — every ``compact_every`` appends the runtime's full
  state is written as a snapshot and the covered prefix pruned, so
  restore replays at most the delta.  The writer's
  :class:`~repro.service.state.SnapshotEncoder` keeps the history (closed
  jobs, busy intervals, assignment-digest fragments) encoded between
  compactions, so a compaction's Python work grows with the events since
  the last snapshot plus the live state, while the snapshot's bytes grow
  with history.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..runtime import SchedulerRuntime
from ..state import SnapshotEncoder
from .base import StateStore, StorageError

if TYPE_CHECKING:  # pragma: no cover
    from ..faults import FaultInjector
    from ..metrics import MetricsRegistry

__all__ = ["SYNC_POLICIES", "StoreWriter"]

SYNC_POLICIES = ("always", "batch", "never")


class StoreWriter:
    """Appends a runtime's event stream to a :class:`StateStore`."""

    def __init__(
        self,
        store: StateStore,
        runtime: SchedulerRuntime,
        *,
        sync: str = "batch",
        batch_every: int = 32,
        compact_every: int = 0,
        faults: "FaultInjector | None" = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if sync not in SYNC_POLICIES:
            raise ValueError(
                f"sync policy must be one of {SYNC_POLICIES}, got {sync!r}"
            )
        if batch_every < 1:
            raise ValueError("batch_every must be >= 1")
        if runtime.config is None:
            raise StorageError(
                "runtime has no serializable config; build it with "
                "SchedulerRuntime.create(...) to enable store persistence"
            )
        stored = store.config
        if stored is not None and stored != runtime.config:
            raise StorageError(
                f"store {store.description} was written by a different runtime "
                "config; refusing to interleave histories"
            )
        store.set_config(runtime.config)
        store.faults = faults
        self.store = store
        self._runtime = runtime
        self._sync_policy = sync
        self._batch_every = batch_every
        self._compact_every = compact_every
        self._encoder = SnapshotEncoder(runtime)
        self._pending = 0  # appends since the last sync
        self._since_snapshot = 0
        self._metrics = metrics if metrics is not None else runtime.metrics
        # pre-create so operators see the store metrics at zero
        self._metrics.counter("store_appends")
        self._metrics.counter("store_syncs")
        self._metrics.counter("store_compactions")
        n_store = store.n_events()
        if n_store > runtime.n_events:
            raise StorageError(
                f"store {store.description} holds {n_store} events but the "
                f"runtime only {runtime.n_events}; recover from the store first"
            )
        self._n = runtime.n_events  # next event index to append
        if n_store < runtime.n_events:
            # a runtime ahead of its store (fresh store under a recovered or
            # pre-warmed runtime): backfill is impossible when history was
            # truncated, so the store starts at the runtime's head only if
            # the in-memory log still covers the gap
            self.store.append_events(
                runtime.events_since(n_store), n_store
            )
            self.store.sync()

    @property
    def n_appended(self) -> int:
        """Event indices [0, n_appended) have been handed to the store."""
        return self._n

    def append_new(self) -> int:
        """Append every runtime event not yet stored; returns the count.

        Call after applying a request to the runtime and before
        acknowledging it.  Raises :class:`StorageError` if the store can no
        longer persist (the server fail-stops on that).
        """
        events = self._runtime.events_since(self._n)
        if not events:
            return 0
        self.store.append_events(events, self._n)
        self._n += len(events)
        self._pending += len(events)
        self._since_snapshot += len(events)
        self._metrics.counter("store_appends").inc(len(events))
        if self._sync_policy == "always" or (
            self._sync_policy == "batch" and self._pending >= self._batch_every
        ):
            self.sync()
        if self._compact_every > 0 and self._since_snapshot >= self._compact_every:
            self.compact()
        return len(events)

    def sync(self) -> None:
        """Force everything appended so far onto the durable prefix."""
        self.store.sync()
        self._pending = 0
        self._metrics.counter("store_syncs").inc()

    def compact(self) -> int:
        """Snapshot the runtime state and prune the covered event prefix."""
        self.store.write_snapshot(self._runtime.n_events, self._encoder.encode())
        pruned = self.store.compact()
        self._pending = 0  # the snapshot commit made everything durable
        self._since_snapshot = 0
        self._metrics.counter("store_compactions").inc()
        return pruned

    def close(self) -> None:
        """Durably close the store (graceful shutdown)."""
        self.store.close()

    def abandon(self) -> None:
        """Drop the store without syncing (simulated crash / fail-stop)."""
        self.store.abandon()
