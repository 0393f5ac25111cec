"""Deterministic record / replay / snapshot of streaming scheduler runs.

Two closely related on-disk artifacts, both newline-friendly JSON:

**Trace** (``*.jsonl``) — the full input stream of a run.  Line 1 is a
versioned header carrying the runtime's serializable config (scheduler
wire name, ladder, admission specs); every further line is one event
exactly as the runtime logged it (``submit`` / ``depart`` / ``advance``).
Replaying a trace reconstructs the run bit-for-bit: the schedulers are
deterministic functions of the event stream, so
``replay(record(run))`` yields the identical assignment and cost, and
re-recording the replayed runtime yields byte-identical trace lines
(canonical JSON: sorted keys, compact separators, round-tripping floats).

**Checkpoint** (``*.json``) — one document holding the header config, the
event log so far *and* a derived-state block (clock, cost, active uids,
an SHA-256 digest of the assignment).  :func:`restore` rebuilds the
runtime by replay and then *verifies* the derived state against the
recorded block, so a checkpoint that no longer reproduces itself (code
drift, corruption) fails loudly instead of silently diverging.

Schema versioning policy: ``TRACE_VERSION`` / ``CHECKPOINT_VERSION`` are
integers bumped on any incompatible change; readers reject versions they
do not know (no silent best-effort parsing).  See ``docs/algorithms.md``.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

from ..machines.ladder import Ladder
from ..machines.types import MachineType
from ..schedule.schedule import MachineKey
from .runtime import SchedulerRuntime

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry

__all__ = [
    "CheckpointError",
    "TRACE_VERSION",
    "CHECKPOINT_VERSION",
    "assignment_digest",
    "record_trace",
    "write_trace",
    "read_trace",
    "replay_trace",
    "snapshot",
    "restore",
    "write_checkpoint",
    "load_checkpoint",
]

TRACE_VERSION = 1
CHECKPOINT_VERSION = 1


class CheckpointError(ValueError):
    """A trace/checkpoint is malformed, from an unknown schema version, or
    failed its self-verification on restore."""


#: Canonical JSON — sorted keys, no whitespace, the byte-stable form of
#: every trace line, WAL frame, store row and state snapshot.  One encoder
#: instance serves them all (``json.dumps`` would build a new one per call).
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _require_config(runtime: SchedulerRuntime) -> dict:
    if runtime.config is None:
        raise CheckpointError(
            "runtime has no serializable config; build it with "
            "SchedulerRuntime.create(...) to enable record/snapshot"
        )
    return runtime.config


def _ladder_from_config(pairs: Iterable[Sequence[float]]) -> Ladder:
    return Ladder(MachineType(float(c), float(r)) for c, r in pairs)


def _apply_event(runtime: SchedulerRuntime, event: dict) -> None:
    """Replay one logged event; any refusal is a :class:`CheckpointError`."""
    if not isinstance(event, dict):
        raise CheckpointError(f"event must be a JSON object, got {type(event).__name__}")
    op = event.get("op")
    if op not in ("submit", "depart", "advance"):
        raise CheckpointError(f"unknown trace op {op!r}")
    try:
        if op == "submit":
            runtime.submit(
                event["size"], event["t"], name=event.get("name"), uid=event["uid"]
            )
        elif op == "depart":
            runtime.depart(event["uid"], event["t"])
        else:
            runtime.advance(event["t"])
    except (KeyError, TypeError) as exc:
        raise CheckpointError(f"malformed {op!r} event: {exc!r}") from exc
    except ValueError as exc:
        # the live runtime accepted this record, so a replay that refuses
        # it means the log and the code disagree: name the record
        raise CheckpointError(
            f"replay refused logged event {_dumps(event)}: {exc}"
        ) from exc


def _key_to_wire(key: MachineKey) -> list:
    """A machine key's wire form ``[type, [tag...]]``."""
    return [key.type_index, list(key.tag)]


def _key_json(key: MachineKey, cache: dict[MachineKey, str]) -> str:
    """Canonical JSON of :func:`_key_to_wire`, memoized in ``cache``."""
    text = cache.get(key)
    if text is None:
        text = cache[key] = _dumps(_key_to_wire(key))
    return text


def _digest_fragments(
    placed: Iterable[tuple[int, MachineKey]], key_json: dict[MachineKey, str]
) -> list[str]:
    """The ``"uid":[type,[tag]]`` members of the assignment mapping.

    Sorting the fragments as strings sorts them by ``str(uid)``, the order
    canonical JSON gives the mapping's keys: the quote closing a uid sorts
    below every character another uid could continue with.
    """
    return [f'"{uid}":{_key_json(key, key_json)}' for uid, key in placed]


def _digest_of(fragments: list[str]) -> str:
    """SHA-256 of the canonical mapping whose sorted members are given."""
    return hashlib.sha256(("{" + ",".join(fragments) + "}").encode()).hexdigest()


def assignment_digest(runtime: SchedulerRuntime) -> str:
    """SHA-256 over the canonical uid -> machine mapping (open + closed)."""
    key_json: dict[MachineKey, str] = {}
    fragments = _digest_fragments(
        ((uid, entry[3]) for uid, entry in runtime._open.items()), key_json
    )
    fragments += _digest_fragments(
        ((job.uid, key) for job, key in runtime._closed.values()), key_json
    )
    fragments.sort()
    return _digest_of(fragments)


# ---------------------------------------------------------------------------
# traces
# ---------------------------------------------------------------------------

def _require_history(runtime: SchedulerRuntime) -> None:
    if runtime.history_truncated:
        raise CheckpointError(
            "runtime was restored from a state snapshot; its full event "
            "history lives in the WAL directory, not in memory (use "
            "repro.service.wal for durable snapshots of such runtimes)"
        )


def record_trace(runtime: SchedulerRuntime) -> list[str]:
    """The run so far as canonical JSON lines (header first)."""
    _require_history(runtime)
    header = {
        "kind": "header",
        "version": TRACE_VERSION,
        "config": _require_config(runtime),
    }
    return [_dumps(header)] + [_dumps(e) for e in runtime.events]


def write_trace(runtime: SchedulerRuntime, path: str | Path) -> None:
    """Write the run's trace to ``path`` (one JSON document per line)."""
    Path(path).write_text("\n".join(record_trace(runtime)) + "\n")


def read_trace(source: str | Path | Iterable[str]) -> tuple[dict, list[dict]]:
    """Parse a trace into ``(header, events)``; validates the version."""
    if isinstance(source, (str, Path)):
        try:
            lines = Path(source).read_text().splitlines()
        except OSError as exc:
            raise CheckpointError(f"cannot read trace {source}: {exc}") from exc
    else:
        lines = [ln for ln in source]
    lines = [ln for ln in lines if ln.strip()]
    if not lines:
        raise CheckpointError("empty trace")
    try:
        header = json.loads(lines[0])
        events = [json.loads(ln) for ln in lines[1:]]
    except json.JSONDecodeError as exc:
        raise CheckpointError(f"malformed trace line: {exc}") from exc
    if not isinstance(header, dict):
        raise CheckpointError("trace header must be a JSON object")
    for event in events:
        if not isinstance(event, dict):
            raise CheckpointError("trace events must be JSON objects")
    if header.get("kind") != "header":
        raise CheckpointError("trace must start with a header line")
    version = header.get("version")
    if version != TRACE_VERSION:
        raise CheckpointError(
            f"unsupported trace version {version!r} (this build reads {TRACE_VERSION})"
        )
    if "config" not in header:
        raise CheckpointError("trace header lacks a config block")
    return header, events


def replay_trace(
    source: str | Path | Iterable[str], *, metrics: "MetricsRegistry | None" = None
) -> SchedulerRuntime:
    """Reconstruct a runtime by replaying a recorded trace."""
    header, events = read_trace(source)
    runtime = _runtime_from_config(header["config"], metrics=metrics)
    for event in events:
        _apply_event(runtime, event)
    return runtime


def _runtime_from_config(
    config: dict, *, metrics: "MetricsRegistry | None" = None
) -> SchedulerRuntime:
    try:
        ladder = _ladder_from_config(config["ladder"])
        return SchedulerRuntime.create(
            config["scheduler"],
            ladder,
            admission=[
                tuple(s) if isinstance(s, list) else s
                for s in config.get("admission", [])
            ],
            metrics=metrics,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"bad runtime config: {exc}") from exc


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def snapshot(runtime: SchedulerRuntime) -> dict:
    """Self-verifying snapshot of the runtime (JSON-safe dict)."""
    _require_history(runtime)
    clock = runtime.clock
    state = {
        "clock": None if not math.isfinite(clock) else clock,
        "n_events": runtime.n_events,
        "cost": runtime.cost(),
        "active": runtime.active_uids(),
        "assignment_sha256": assignment_digest(runtime),
    }
    return {
        "version": CHECKPOINT_VERSION,
        "config": _require_config(runtime),
        "events": list(runtime.events),
        "state": state,
    }


def restore(
    snap: dict, *, metrics: "MetricsRegistry | None" = None
) -> SchedulerRuntime:
    """Rebuild a runtime from a snapshot and verify it reproduces the
    recorded derived state exactly (raises :class:`CheckpointError` if not)."""
    if not isinstance(snap, dict):
        raise CheckpointError("checkpoint must be a JSON object")
    version = snap.get("version")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version {version!r} "
            f"(this build reads {CHECKPOINT_VERSION})"
        )
    if "config" not in snap or "events" not in snap or "state" not in snap:
        raise CheckpointError("checkpoint lacks config/events/state")
    runtime = _runtime_from_config(snap["config"], metrics=metrics)
    for event in snap["events"]:
        _apply_event(runtime, event)
    state = snap["state"]
    expected_clock = state.get("clock")
    clock = None if not math.isfinite(runtime.clock) else runtime.clock
    mismatches = []
    if clock != expected_clock:
        mismatches.append(f"clock {clock!r} != {expected_clock!r}")
    if runtime.n_events != state.get("n_events"):
        mismatches.append(f"n_events {runtime.n_events} != {state.get('n_events')}")
    if runtime.active_uids() != state.get("active"):
        mismatches.append("active job set differs")
    if runtime.cost() != state.get("cost"):
        mismatches.append(f"cost {runtime.cost()!r} != {state.get('cost')!r}")
    if assignment_digest(runtime) != state.get("assignment_sha256"):
        mismatches.append("assignment digest differs")
    if mismatches:
        raise CheckpointError(
            "checkpoint failed self-verification: " + "; ".join(mismatches)
        )
    return runtime


def write_checkpoint(runtime: SchedulerRuntime, path: str | Path) -> None:
    """Snapshot the runtime to a JSON file."""
    Path(path).write_text(json.dumps(snapshot(runtime), sort_keys=True, indent=1))


def load_checkpoint(
    path: str | Path, *, metrics: "MetricsRegistry | None" = None
) -> SchedulerRuntime:
    """Restore a runtime from a checkpoint file (with self-verification).

    Raises :class:`CheckpointError` on unreadable, truncated or garbled
    files and on unknown schema versions — never a bare traceback.
    """
    try:
        snap = json.loads(Path(path).read_text())
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CheckpointError(
            f"malformed or truncated checkpoint {path}: {exc}"
        ) from exc
    return restore(snap, metrics=metrics)
