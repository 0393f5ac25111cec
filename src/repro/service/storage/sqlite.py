"""SQLite :class:`StateStore` backend: append-only event table + compaction.

Schema (one database per runtime — per shard, in the sharded service)::

    meta(key TEXT PRIMARY KEY, value TEXT)    -- version, config
    events(seq INTEGER PRIMARY KEY, payload TEXT)   -- canonical JSON
    snapshots(n INTEGER PRIMARY KEY, payload TEXT)  -- state snapshots (canonical JSON)

Durability model: appends execute inside one open transaction;
:meth:`sync` commits it, which is the durable-prefix boundary (the
``batch`` fsync policy's analogue — the :class:`StoreWriter` decides how
often to call it).  A crash rolls the open transaction back, so at most
the un-synced suffix is lost and what survives is always a clean prefix.
Snapshot writes and compaction always commit immediately, mirroring the
file WAL's unconditional fsync on rotation and compaction.

The connection runs with ``journal_mode=WAL`` and
``synchronous=NORMAL`` — commit ordering is preserved and a torn OS-level
write is SQLite's problem, not ours (it either replays or rolls back its
own journal; the store never sees mid-stream corruption, only a shorter
clean prefix).  Anything else — unreadable file, foreign schema, a
future ``STORE_VERSION`` — raises :class:`StorageError` loudly.
"""

from __future__ import annotations

import json
import sqlite3
from pathlib import Path
from typing import Sequence

from ..checkpoint import _dumps
from .base import STORE_VERSION, StateStore, StorageError

__all__ = ["SQLiteStore"]

_SCHEMA = (
    "CREATE TABLE IF NOT EXISTS meta (key TEXT PRIMARY KEY, value TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS events (seq INTEGER PRIMARY KEY, payload TEXT NOT NULL)",
    "CREATE TABLE IF NOT EXISTS snapshots (n INTEGER PRIMARY KEY, payload TEXT NOT NULL)",
)


def _loads(payload: str, what: str) -> dict:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise StorageError(f"garbled {what} in SQLite store: {exc}") from exc
    if not isinstance(doc, dict):
        raise StorageError(f"{what} must be a JSON object")
    return doc


class SQLiteStore(StateStore):
    """One SQLite database holding one runtime's event log and snapshots."""

    def __init__(self, path: str | Path) -> None:
        self.faults = None
        self.path = Path(path)
        try:
            self._conn: sqlite3.Connection | None = sqlite3.connect(
                self.path, isolation_level=None  # manual BEGIN/COMMIT
            )
            self._conn.execute("PRAGMA journal_mode=WAL")
            self._conn.execute("PRAGMA synchronous=NORMAL")
            existing = {
                row[0]
                for row in self._conn.execute(
                    "SELECT name FROM sqlite_master WHERE type='table'"
                )
            }
            if existing and not {"meta", "events", "snapshots"} <= existing:
                raise StorageError(
                    f"{self.path} is a SQLite database but not a bshm event "
                    f"store (tables: {sorted(existing)})"
                )
            for statement in _SCHEMA:
                self._conn.execute(statement)
        except sqlite3.DatabaseError as exc:
            raise StorageError(
                f"cannot open SQLite store {self.path}: {exc}"
            ) from exc
        version = self._meta("version")
        if version is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('version', ?)",
                (str(STORE_VERSION),),
            )
        elif version != str(STORE_VERSION):
            self._conn.close()
            self._conn = None
            raise StorageError(
                f"unsupported store version {version!r} in {self.path} "
                f"(this build reads {STORE_VERSION})"
            )
        row = self._sql("SELECT MAX(seq) FROM events").fetchone()
        self._n = (int(row[0]) + 1) if row and row[0] is not None else 0
        # a fully-compacted store has no event rows: the latest snapshot
        # carries the high-water mark
        row = self._sql("SELECT MAX(n) FROM snapshots").fetchone()
        if row and row[0] is not None:
            self._n = max(self._n, int(row[0]))
        self._in_txn = False

    # -- low-level -----------------------------------------------------------
    def _sql(self, query: str, params: tuple = ()) -> sqlite3.Cursor:
        if self._conn is None:
            raise StorageError(f"SQLite store {self.path} is closed")
        try:
            return self._conn.execute(query, params)
        except sqlite3.DatabaseError as exc:
            raise StorageError(f"SQLite store {self.path} failed: {exc}") from exc

    def _meta(self, key: str) -> str | None:
        row = self._sql("SELECT value FROM meta WHERE key = ?", (key,)).fetchone()
        return None if row is None else str(row[0])

    def _begin(self) -> None:
        if not self._in_txn:
            self._sql("BEGIN")
            self._in_txn = True

    def _commit(self) -> None:
        if self._in_txn:
            self._sql("COMMIT")
            self._in_txn = False

    # -- the event log -------------------------------------------------------
    def n_events(self) -> int:
        return self._n

    def append_events(self, events: Sequence[dict], base: int) -> None:
        if base != self._n:
            raise StorageError(
                f"append at base {base} but the store holds {self._n} events "
                "(gap or overlap)"
            )
        self._begin()
        for event in events:
            self.fire_append_sites(before=True)
            self._sql(
                "INSERT INTO events (seq, payload) VALUES (?, ?)",
                (self._n, _dumps(event)),
            )
            self._n += 1
            self.fire_append_sites(before=False)

    def events_since(self, seq: int) -> list[dict]:
        row = self._sql("SELECT MIN(seq) FROM events").fetchone()
        earliest = int(row[0]) if row and row[0] is not None else self._n
        if seq < earliest:
            raise StorageError(
                f"events before {earliest} were compacted away (requested {seq})"
            )
        rows = self._sql(
            "SELECT seq, payload FROM events WHERE seq >= ? ORDER BY seq", (seq,)
        ).fetchall()
        out: list[dict] = []
        expected = seq
        for got, payload in rows:
            if int(got) != expected:
                raise StorageError(
                    f"gap in {self.path}: expected event {expected}, found {got}"
                )
            out.append(_loads(str(payload), f"event {got}"))
            expected += 1
        return out

    # -- snapshots -----------------------------------------------------------
    def write_snapshot(self, n_events: int, payload: str) -> None:
        if n_events < 0 or n_events > self._n:
            raise StorageError(
                f"snapshot n_events {n_events} outside the store's [0, {self._n}]"
            )
        # committing the snapshot also commits every event it covers —
        # snapshots are unconditionally durable, like WAL compaction fsyncs
        self._begin()
        self._sql(
            "INSERT OR REPLACE INTO snapshots (n, payload) VALUES (?, ?)",
            (n_events, payload),
        )
        self._commit()

    def latest_snapshot(self) -> dict | None:
        row = self._sql(
            "SELECT n, payload FROM snapshots ORDER BY n DESC LIMIT 1"
        ).fetchone()
        if row is None:
            return None
        return _loads(str(row[1]), f"snapshot@{row[0]}")

    def compact(self) -> int:
        row = self._sql("SELECT MAX(n) FROM snapshots").fetchone()
        if row is None or row[0] is None:
            return 0
        n = int(row[0])
        self._begin()
        pruned = self._sql("DELETE FROM events WHERE seq < ?", (n,)).rowcount
        self._sql("DELETE FROM snapshots WHERE n < ?", (n,))
        self._commit()
        return int(pruned)

    # -- config --------------------------------------------------------------
    def set_config(self, config: dict) -> None:
        # outside a transaction this autocommits, so the config survives
        # even if no event is ever appended
        if self._meta("config") is None:
            self._sql(
                "INSERT INTO meta (key, value) VALUES ('config', ?)",
                (_dumps(config),),
            )

    @property
    def config(self) -> dict | None:
        raw = self._meta("config")
        return None if raw is None else _loads(raw, "config")

    # -- durability ----------------------------------------------------------
    def sync(self) -> None:
        self._commit()

    def close(self) -> None:
        if self._conn is not None:
            self._commit()
            self._conn.close()
            self._conn = None

    def abandon(self) -> None:
        """Simulated crash: roll back the open transaction (the torn tail)."""
        if self._conn is not None:
            if self._in_txn:
                try:
                    self._conn.execute("ROLLBACK")
                except sqlite3.DatabaseError:  # pragma: no cover - already gone
                    pass
                self._in_txn = False
            self._conn.close()
            self._conn = None

    @property
    def description(self) -> str:
        return f"sqlite:{self.path}"
