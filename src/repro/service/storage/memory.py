"""In-memory :class:`StateStore` backend.

Used for tests and for serving without durability (``--storage memory``).
It still models the durability contract faithfully so the backend
conformance suite can run unchanged against it: :meth:`sync` advances a
*durable watermark*, :meth:`abandon` simulates a power cut by discarding
everything past that watermark, and a later :meth:`reopen` hands back a
store holding exactly the surviving clean prefix — the same torn-tail
semantics the SQLite backend gets from transaction commits.
"""

from __future__ import annotations

import json
from typing import Sequence

from .base import StateStore, StorageError

__all__ = ["MemoryStore"]


def _copy(doc: dict) -> dict:
    """Deep, JSON-faithful copy: the store must not alias caller state."""
    out = json.loads(json.dumps(doc))
    if not isinstance(out, dict):  # pragma: no cover - events are objects
        raise StorageError("store records must be JSON objects")
    return out


class MemoryStore(StateStore):
    """Event log + snapshot in process memory, with a simulated durable
    watermark so crash semantics stay testable."""

    def __init__(self) -> None:
        self.faults = None
        self._base = 0  # sequence number of self._events[0]
        self._events: list[dict] = []
        self._durable_n = 0  # events [0, durable_n) survive a crash
        # (n_events, canonical JSON) of the latest snapshot
        self._snapshot: tuple[int, str] | None = None
        self._config: dict | None = None
        self._closed = False

    # -- the event log -------------------------------------------------------
    def n_events(self) -> int:
        return self._base + len(self._events)

    def append_events(self, events: Sequence[dict], base: int) -> None:
        if self._closed:
            raise StorageError("memory store is closed")
        if base != self.n_events():
            raise StorageError(
                f"append at base {base} but the store holds {self.n_events()} "
                "events (gap or overlap)"
            )
        for event in events:
            self.fire_append_sites(before=True)
            self._events.append(_copy(event))
            self.fire_append_sites(before=False)

    def events_since(self, seq: int) -> list[dict]:
        if seq < self._base:
            raise StorageError(
                f"events before {self._base} were compacted away "
                f"(requested {seq})"
            )
        return [dict(e) for e in self._events[seq - self._base:]]

    # -- snapshots -----------------------------------------------------------
    def write_snapshot(self, n_events: int, payload: str) -> None:
        if self._closed:
            raise StorageError("memory store is closed")
        if n_events < 0 or n_events > self.n_events():
            raise StorageError(
                f"snapshot n_events {n_events} outside the store's "
                f"[0, {self.n_events()}]"
            )
        # snapshots are durable on return (parity with the SQLite commit);
        # so is everything they cover
        self._snapshot = (n_events, payload)
        self._durable_n = max(self._durable_n, n_events)

    def latest_snapshot(self) -> dict | None:
        if self._snapshot is None:
            return None
        doc = json.loads(self._snapshot[1])
        if not isinstance(doc, dict):
            raise StorageError("snapshot must be a JSON object")
        return doc

    def compact(self) -> int:
        if self._snapshot is None:
            return 0
        n = self._snapshot[0]
        pruned = max(0, n - self._base)
        self._events = self._events[pruned:]
        self._base = n
        return pruned

    # -- config --------------------------------------------------------------
    def set_config(self, config: dict) -> None:
        if self._config is None:
            self._config = _copy(config)

    @property
    def config(self) -> dict | None:
        return _copy(self._config) if self._config is not None else None

    # -- durability ----------------------------------------------------------
    def sync(self) -> None:
        self._durable_n = self.n_events()

    def close(self) -> None:
        self.sync()
        self._closed = True

    def abandon(self) -> None:
        """Simulated crash: drop the torn tail past the durable watermark."""
        keep = max(0, self._durable_n - self._base)
        self._events = self._events[:keep]
        self._closed = True

    def reopen(self) -> "MemoryStore":
        """What a restart sees: the durable prefix, snapshot and config."""
        survivor = MemoryStore()
        survivor._base = self._base
        survivor._events = [dict(e) for e in self._events[: max(0, self._durable_n - self._base)]]
        survivor._durable_n = survivor.n_events()
        survivor._snapshot = self._snapshot
        survivor._config = self._config
        return survivor

    @property
    def description(self) -> str:
        return "memory"
