"""Durable write-ahead log: length+CRC framing, torn-tail recovery, compaction.

The streaming service applies each accepted event to the in-memory runtime
and then appends it here *before* acknowledging the request, so the disk
always holds a prefix of the logical event stream.  Because every
registered scheduler is a deterministic function of that stream, restart
recovery is exact: recover the durable prefix, re-feed whatever suffix the
client retries, and the runtime is bit-identical to a run that never
crashed.

On-disk layout of a WAL directory::

    wal-0000000000000000.log      segment: frames of events [base, next base)
    wal-0000000000000512.log      ...
    snapshot-0000000000001024.json  latest full-state snapshot (compaction)

**Framing.**  Every segment entry is one frame::

    <u32 little-endian payload length> <u32 CRC32(payload)> <payload>

The first frame of a segment is a header (``kind="wal-segment"``) carrying
the schema version, the segment's base event index and the runtime config;
each further frame is ``{"i": <event index>, "e": <event>}`` in canonical
JSON.  CRC32 catches bit rot and — together with the length prefix —
makes a torn final write self-evident.

**Torn-tail rule.**  A crash can leave at most one partial frame, at the
very end of the very last segment.  :func:`recover` therefore *truncates*
an incomplete frame or a CRC-mismatching frame that ends exactly at EOF of
the final segment (data loss the fsync policy already allowed), but fails
loudly with :class:`WALError` on corruption anywhere else — mid-stream
damage means the disk lied, and replaying past it would fabricate state.

**Fsync policy.**  ``always`` fsyncs before every acknowledgement (no
acked event is ever lost), ``batch`` fsyncs every ``batch_every`` appends
(bounded loss window, much cheaper), ``never`` leaves durability to the
OS.  Segment rotation and snapshot compaction fsync unconditionally, so
segment *bases* always sit on the durable prefix regardless of policy.

**Compaction.**  Every ``compact_every`` appends the writer writes the
runtime's full state to ``snapshot-<n>.json`` via write-temp / fsync /
``os.replace``, rotates to a fresh segment based at ``n`` and prunes every
older segment and snapshot.  Restore then loads the snapshot and replays
only the events since it — the delta — instead of every event ever.  The
snapshot holds every closed job, busy interval and uid, so its bytes and
its load time grow with history; the writer's
:class:`~repro.service.state.SnapshotEncoder` keeps that history encoded
between compactions, so a compaction's Python work grows with the events
since the last snapshot plus the live state.

Fault injection: a :class:`repro.service.faults.FaultInjector` threaded
through the writer intercepts every write and fsync, so chaos tests can
kill the service at arbitrary byte offsets and assert recovery.
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import IO, TYPE_CHECKING, Callable

from .checkpoint import CheckpointError, _apply_event, _dumps, _runtime_from_config
from .faults import FaultInjector
from .runtime import SchedulerRuntime
from .state import SnapshotEncoder, restore_state

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry

__all__ = [
    "WAL_VERSION",
    "FSYNC_POLICIES",
    "WALError",
    "WALWriter",
    "RecoveredState",
    "recover",
]

WAL_VERSION = 1
FSYNC_POLICIES = ("always", "batch", "never")

_FRAME_HEADER = struct.Struct("<II")  # payload length, CRC32(payload)

_SEGMENT_PREFIX = "wal-"
_SEGMENT_SUFFIX = ".log"
_SNAPSHOT_PREFIX = "snapshot-"
_SNAPSHOT_SUFFIX = ".json"


class WALError(CheckpointError):
    """The write-ahead log is corrupt, inconsistent, or cannot persist."""


def _frame(payload: bytes) -> bytes:
    return _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def _segment_path(wal_dir: Path, base: int) -> Path:
    return wal_dir / f"{_SEGMENT_PREFIX}{base:016d}{_SEGMENT_SUFFIX}"


def _snapshot_path(wal_dir: Path, n: int) -> Path:
    return wal_dir / f"{_SNAPSHOT_PREFIX}{n:016d}{_SNAPSHOT_SUFFIX}"


def _index_of(path: Path, prefix: str, suffix: str) -> int:
    stem = path.name[len(prefix):-len(suffix)]
    try:
        return int(stem)
    except ValueError as exc:
        raise WALError(f"unrecognized WAL file name {path.name!r}") from exc


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (persists renames/unlinks on POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform without dir open
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(fd)


def _parse_frames(data: bytes) -> tuple[list[bytes], int, str | None]:
    """Split ``data`` into frame payloads.

    Returns ``(payloads, clean_offset, problem)`` where ``problem`` is
    ``None`` (every byte consumed), ``"torn"`` (an incomplete frame, or a
    CRC mismatch ending exactly at EOF — a crash artefact), or
    ``"corrupt"`` (a CRC mismatch with more data after it — mid-stream
    damage).  ``clean_offset`` is the end of the last good frame.
    """
    payloads: list[bytes] = []
    offset = 0
    size = len(data)
    while offset < size:
        if offset + _FRAME_HEADER.size > size:
            return payloads, offset, "torn"
        length, crc = _FRAME_HEADER.unpack_from(data, offset)
        end = offset + _FRAME_HEADER.size + length
        if end > size:
            return payloads, offset, "torn"
        payload = data[offset + _FRAME_HEADER.size:end]
        if zlib.crc32(payload) != crc:
            return payloads, offset, "torn" if end == size else "corrupt"
        payloads.append(payload)
        offset = end
    return payloads, offset, None


# ---------------------------------------------------------------------------
# writer
# ---------------------------------------------------------------------------

class WALWriter:
    """Appends a runtime's event stream to a WAL directory.

    The writer owns the *tail* of the log: it opens a fresh segment based
    at the runtime's current event count (recovery owns everything before
    that), appends new events via :meth:`append_new`, rotates segments,
    and periodically compacts into a state snapshot.
    """

    def __init__(
        self,
        wal_dir: str | Path,
        runtime: SchedulerRuntime,
        *,
        fsync: str = "batch",
        batch_every: int = 32,
        segment_records: int = 4096,
        compact_every: int = 0,
        faults: FaultInjector | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if runtime.config is None:
            raise WALError(
                "runtime has no serializable config; build it with "
                "SchedulerRuntime.create(...) to enable WAL persistence"
            )
        if batch_every < 1:
            raise ValueError("batch_every must be >= 1")
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.wal_dir = Path(wal_dir)
        self.wal_dir.mkdir(parents=True, exist_ok=True)
        self._runtime = runtime
        self._fsync_policy = fsync
        self._batch_every = batch_every
        self._segment_records = segment_records
        self._compact_every = compact_every
        self._faults = faults
        self._metrics = metrics if metrics is not None else runtime.metrics
        self._n = runtime.n_events  # next event index to append
        self._records = 0  # event frames in the active segment
        self._pending = 0  # appends since the last fsync
        self._since_snapshot = 0
        self._closed_segments: list[Path] = []
        self._fh: IO[bytes] | None = None
        self._encoder = SnapshotEncoder(runtime)
        # pre-create the WAL metrics so operators see them at zero
        self._metrics.counter("wal_appends")
        self._metrics.counter("wal_fsyncs")
        self._metrics.counter("wal_recovered_records")
        self._metrics.histogram("fsync_latency")
        self._open_segment()

    # -- low-level I/O, routed through the fault injector -------------------
    def _write(self, fh: IO[bytes], data: bytes) -> None:
        if self._faults is not None:
            self._faults.io_write(fh, data)
        else:
            fh.write(data)
            fh.flush()

    def _fsync_file(self, fh: IO[bytes]) -> None:
        start = time.perf_counter()  # bshm: ignore[BSHM004] - latency metric only
        try:
            if self._faults is not None:
                self._faults.io_fsync(fh)
            else:
                fh.flush()
                os.fsync(fh.fileno())
        except OSError as exc:
            raise WALError(f"fsync failed on {getattr(fh, 'name', '?')}: {exc}") from exc
        elapsed_ms = (time.perf_counter() - start) * 1e3  # bshm: ignore[BSHM004]
        self._metrics.counter("wal_fsyncs").inc()
        self._metrics.histogram("fsync_latency").observe(elapsed_ms)
        self._pending = 0

    def _unlink(self, path: Path) -> None:
        path.unlink(missing_ok=True)
        if self._faults is not None:
            self._faults.note_removed(path)

    # -- segments ------------------------------------------------------------
    def _open_segment(self) -> None:
        path = _segment_path(self.wal_dir, self._n)
        self._fh = open(path, "wb")
        self._records = 0
        header = {
            "kind": "wal-segment",
            "version": WAL_VERSION,
            "base": self._n,
            "config": self._runtime.config,
        }
        self._write(self._fh, _frame(_dumps(header).encode()))
        if self._fsync_policy != "never":
            self._fsync_file(self._fh)

    def _rotate(self) -> None:
        """Close the active segment (fsynced: bases stay on the durable
        prefix for every policy) and open the next one."""
        assert self._fh is not None
        self._fsync_file(self._fh)
        self._fh.close()
        self._closed_segments.append(Path(self._fh.name))
        self._open_segment()

    # -- appends -------------------------------------------------------------
    @property
    def n_appended(self) -> int:
        """Event indices [0, n_appended) have been handed to the log."""
        return self._n

    def append_new(self) -> int:
        """Append every runtime event not yet logged; returns the count.

        Call after applying a request to the runtime and before
        acknowledging it.  Fsyncs per policy, rotates full segments, and
        compacts when the snapshot interval is reached.  Raises
        :class:`WALError` if the log can no longer persist (the server
        fail-stops on that).
        """
        if self._fh is None:
            raise WALError("write-ahead log is closed")
        events = self._runtime.events_since(self._n)
        for event in events:
            if self._faults is not None:
                self._faults.point("wal.append.before")
            payload = _dumps({"i": self._n, "e": event}).encode()
            self._write(self._fh, _frame(payload))
            self._n += 1
            self._records += 1
            self._pending += 1
            self._since_snapshot += 1
            self._metrics.counter("wal_appends").inc()
            if self._fsync_policy == "always" or (
                self._fsync_policy == "batch" and self._pending >= self._batch_every
            ):
                self._fsync_file(self._fh)
            if self._faults is not None:
                self._faults.point("wal.append.after")
            if self._records >= self._segment_records:
                self._rotate()
        if self._compact_every > 0 and self._since_snapshot >= self._compact_every:
            self.compact()
        return len(events)

    # -- compaction ----------------------------------------------------------
    def compact(self) -> Path:
        """Snapshot the runtime state and prune fully covered segments.

        The snapshot is written to a temp file, fsynced, then atomically
        renamed — a crash mid-compaction leaves only an ignored ``*.tmp``.
        Older segments and snapshots are removed only after the new
        snapshot is durable.
        """
        if self._fh is None:
            raise WALError("write-ahead log is closed")
        payload = self._encoder.encode().encode()
        final = _snapshot_path(self.wal_dir, self._n)
        tmp = final.with_name(final.name + ".tmp")
        with open(tmp, "wb") as fh:
            self._write(fh, payload)
            self._fsync_file(fh)
        os.replace(tmp, final)
        if self._faults is not None:
            self._faults.note_removed(tmp)
        _fsync_dir(self.wal_dir)
        if self._records > 0:
            self._rotate()
        for path in self._closed_segments:
            self._unlink(path)
        self._closed_segments.clear()
        for snap in sorted(self.wal_dir.glob(f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}")):
            if _index_of(snap, _SNAPSHOT_PREFIX, _SNAPSHOT_SUFFIX) < self._n:
                self._unlink(snap)
        _fsync_dir(self.wal_dir)
        self._since_snapshot = 0
        return final

    # -- lifecycle -----------------------------------------------------------
    def sync(self) -> None:
        """Force everything appended so far onto disk."""
        if self._fh is not None:
            self._fsync_file(self._fh)

    def close(self) -> None:
        """Durably close the log (graceful shutdown)."""
        if self._fh is not None:
            self._fsync_file(self._fh)
            self._fh.close()
            self._fh = None

    def abandon(self) -> None:
        """Drop the file handle without syncing (simulated crash path)."""
        if self._fh is not None:
            self._fh.close()
            self._fh = None


# ---------------------------------------------------------------------------
# recovery
# ---------------------------------------------------------------------------

@dataclass
class RecoveredState:
    """What :func:`recover` rebuilt, and how."""

    runtime: SchedulerRuntime
    n_events: int
    snapshot_n: int | None  # event count of the snapshot used, if any
    replayed: int  # delta events replayed from segments
    truncated_bytes: int  # torn tail removed from the final segment
    segments: int  # segment files scanned

    def describe(self) -> str:
        source = (
            f"snapshot@{self.snapshot_n}" if self.snapshot_n is not None
            else "segments only"
        )
        return (
            f"{self.n_events} events ({source} + {self.replayed} replayed, "
            f"{self.segments} segment(s), {self.truncated_bytes} torn byte(s) "
            "truncated)"
        )


def _load_json(payload: bytes, what: str) -> dict:
    try:
        doc = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise WALError(f"garbled {what} (CRC valid, JSON broken): {exc}") from exc
    if not isinstance(doc, dict):
        raise WALError(f"{what} must be a JSON object")
    return doc


def recover(
    wal_dir: str | Path,
    *,
    metrics: "MetricsRegistry | None" = None,
    config: dict | None = None,
    progress: "Callable[[str], None] | None" = None,
) -> RecoveredState:
    """Rebuild a runtime from a WAL directory.

    Restores the latest snapshot (if any), then replays the delta from the
    segment files in order.  A torn final record is truncated; corruption
    anywhere else raises :class:`WALError`.  ``config`` is only used when
    the directory holds no snapshot and no segment header (a service that
    crashed before persisting anything) — without it, an empty log is an
    error.  ``progress``, when given, receives one human-readable line per
    recovery stage (snapshot restore, then each segment scanned).
    """
    note = progress if progress is not None else (lambda _line: None)
    wal_path = Path(wal_dir)
    if not wal_path.is_dir():
        raise WALError(f"no WAL directory at {wal_path}")
    for tmp in sorted(wal_path.glob("*.tmp")):
        tmp.unlink(missing_ok=True)  # interrupted compaction, never durable

    runtime: SchedulerRuntime | None = None
    snapshot_n: int | None = None
    snaps = sorted(wal_path.glob(f"{_SNAPSHOT_PREFIX}*{_SNAPSHOT_SUFFIX}"))
    if snaps:
        latest = snaps[-1]
        try:
            doc = json.loads(latest.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise WALError(f"unreadable WAL snapshot {latest.name}: {exc}") from exc
        runtime = restore_state(doc, metrics=metrics)
        snapshot_n = runtime.n_events
        note(f"snapshot {latest.name}: state restored at event {snapshot_n}")

    expected = runtime.n_events if runtime is not None else 0
    replayed = 0
    truncated = 0
    segments = sorted(wal_path.glob(f"{_SEGMENT_PREFIX}*{_SEGMENT_SUFFIX}"))
    for position, segment in enumerate(segments):
        is_final = position == len(segments) - 1
        base = _index_of(segment, _SEGMENT_PREFIX, _SEGMENT_SUFFIX)
        try:
            data = segment.read_bytes()
        except OSError as exc:
            raise WALError(f"cannot read WAL segment {segment.name}: {exc}") from exc
        payloads, clean_offset, problem = _parse_frames(data)
        if problem == "corrupt" or (problem == "torn" and not is_final):
            raise WALError(
                f"WAL segment {segment.name} is corrupt at byte {clean_offset} "
                "(mid-stream damage, refusing to replay past it)"
            )
        if problem == "torn":
            os.truncate(segment, clean_offset)
            truncated += len(data) - clean_offset
            note(
                f"segment {segment.name}: torn tail, truncated "
                f"{len(data) - clean_offset} bytes"
            )
        if not payloads:
            if is_final:
                note(f"segment {segment.name}: empty (crash before header), skipped")
                continue  # crash before the header reached disk
            raise WALError(f"WAL segment {segment.name} has no header frame")
        header = _load_json(payloads[0], f"segment header {segment.name}")
        if header.get("kind") != "wal-segment":
            raise WALError(f"{segment.name} is not a WAL segment")
        if header.get("version") != WAL_VERSION:
            raise WALError(
                f"unsupported WAL version {header.get('version')!r} in "
                f"{segment.name} (this build reads {WAL_VERSION})"
            )
        if header.get("base") != base:
            raise WALError(
                f"{segment.name} header base {header.get('base')!r} does not "
                f"match its file name"
            )
        if runtime is None:
            runtime = _runtime_from_config(header["config"], metrics=metrics)
        index = base
        seg_start = replayed
        for payload in payloads[1:]:
            record = _load_json(payload, f"record in {segment.name}")
            if record.get("i") != index:
                raise WALError(
                    f"WAL record index {record.get('i')!r} in {segment.name}, "
                    f"expected {index}"
                )
            if index >= expected:
                if index > expected:
                    raise WALError(
                        f"gap in WAL: expected event {expected}, "
                        f"found {index} in {segment.name}"
                    )
                event = record.get("e")
                if not isinstance(event, dict):
                    raise WALError(f"WAL record {index} has no event body")
                _apply_event(runtime, event)
                expected += 1
                replayed += 1
            index += 1
        note(
            f"segment {segment.name}: {len(payloads) - 1} records, "
            f"{replayed - seg_start} replayed"
        )

    if runtime is None:
        if config is None:
            raise WALError(
                f"WAL directory {wal_path} holds no recoverable data "
                "(and no fallback config was provided)"
            )
        runtime = _runtime_from_config(config, metrics=metrics)
    registry = metrics if metrics is not None else runtime.metrics
    registry.counter("wal_recovered_records").inc(replayed)
    return RecoveredState(
        runtime=runtime,
        n_events=runtime.n_events,
        snapshot_n=snapshot_n,
        replayed=replayed,
        truncated_bytes=truncated,
        segments=len(segments),
    )
