"""Full-state snapshots of a :class:`SchedulerRuntime` — restore without replay.

The event-sourced checkpoints in :mod:`repro.service.checkpoint` rebuild a
runtime by replaying its entire event log: exact, self-verifying, and O(n)
in the life of the service.  This module serializes the runtime's *state*
instead, so the write-ahead log can restore as latest-snapshot + O(delta)
replay.  The state includes the history that only grows — every closed
job, busy interval and uid — so a snapshot's bytes and its restore time
grow with history, not only with the live state; :class:`SnapshotEncoder`
keeps the encoded history between snapshots, so the Python work of each
further snapshot grows only with the events since the previous one plus
the live state.

What is captured is precisely the mutable state future behavior depends on:

- the runtime's open/closed/rejected job tables, uid bookkeeping, clock and
  the raw per-machine busy intervals of the cost accumulator;
- per scheduler pool (via the ``iter_pools()`` contract on every registered
  online scheduler), each materialized machine's resident-job map and its
  **exact float load** — loads carry add/remove float history that a
  recomputation from resident sizes would not reproduce bit-identically,
  and ``OnlineMachine.fits`` compares against that exact value;
- the deterministic metric counters (arrivals/departures/rejections) and
  the fleet's probe accounting.

Derived structures (min-load segment tree, free-slot heap, busy counters,
gauges, memoized busy unions) are rebuilt, not stored.  A restored runtime
is *placement-equivalent*: it makes bit-identical decisions on any future
event stream — pinned by ``tests/service/test_state.py``.

Like checkpoints, a state snapshot is self-verifying: it records the
assignment digest, cost and clock at capture time and :func:`restore_state`
re-derives and compares them, failing loudly on any drift.

A state-restored runtime does **not** carry its full event history
(:attr:`SchedulerRuntime.history_truncated` is then true) — the WAL owns
history; ``record_trace``/``snapshot`` refuse rather than emit a lie.
"""

from __future__ import annotations

import itertools
import json
import math
from typing import Any

from ..jobs.job import Job
from ..schedule.schedule import MachineKey
from .checkpoint import (
    CheckpointError,
    _digest_fragments,
    _digest_of,
    _dumps,
    _key_json,
    _key_to_wire,
    _runtime_from_config,
    assignment_digest,
)
from .metrics import MetricsRegistry
from .runtime import SchedulerRuntime

__all__ = ["STATE_VERSION", "SnapshotEncoder", "capture_state", "restore_state"]

STATE_VERSION = 1

#: metric counters that are deterministic functions of the event stream
#: (latency histograms and probe counts are observability-only and are
#: deliberately NOT part of the state contract)
_DETERMINISTIC_COUNTERS = ("arrivals", "departures", "rejections")


def _key_from_wire(obj: Any) -> MachineKey:
    try:
        type_index, tag = obj
        return MachineKey(int(type_index), tuple(tag))
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad machine key in state snapshot: {obj!r}") from exc


def _scheduler_pools(runtime: SchedulerRuntime) -> list[tuple[str, Any]]:
    iter_pools = getattr(runtime.scheduler, "iter_pools", None)
    if iter_pools is None:
        raise CheckpointError(
            f"scheduler {type(runtime.scheduler).__name__} does not implement "
            "iter_pools(); state snapshots need it"
        )
    return list(iter_pools())


class SnapshotEncoder:
    """Canonical state-snapshot text of one runtime, history encoded once.

    A runtime's closed jobs and busy intervals only ever grow, and every
    placed uid keeps its machine for good, so the encoder keeps their
    canonical JSON between calls: the closed-job rows in ``_closed`` order,
    each machine's busy intervals, and the assignment digest's
    ``"uid":[type,[tag]]`` fragments in ``str(uid)`` order.  Each
    :meth:`encode` adds what arrived since the previous call and encodes
    the live parts afresh (open jobs, pools, rejections, uids, clock,
    counters, ``cost()``).  The text is the canonical JSON of the
    :func:`capture_state` document, byte for byte.

    Python-level work per call is O(events since the last call + live
    state); joining, hashing and writing the history stays O(history) but
    runs in C.  :attr:`rows_encoded` counts the history rows (closed jobs
    plus busy intervals) encoded so far — each exactly once.
    """

    __slots__ = (
        "_runtime", "_n_closed", "_closed", "_busy", "_placed", "_key_json",
        "rows_encoded",
    )

    def __init__(self, runtime: SchedulerRuntime) -> None:
        if runtime.config is None:
            raise CheckpointError(
                "runtime has no serializable config; build it with "
                "SchedulerRuntime.create(...) to enable state snapshots"
            )
        self._runtime = runtime
        self._n_closed = 0
        # encoded closed-job rows, one comma-joined chunk per encode()
        self._closed: list[str] = []
        # machine -> [intervals encoded, their comma-joined JSON]
        self._busy: dict[MachineKey, list] = {}
        # digest fragments of every closed job, sorted
        self._placed: list[str] = []
        self._key_json: dict[MachineKey, str] = {}
        self.rows_encoded = 0

    def _add_history(self) -> None:
        runtime = self._runtime
        new = list(itertools.islice(runtime._closed.values(), self._n_closed, None))
        if new:
            self._n_closed += len(new)
            self.rows_encoded += len(new)
            self._closed.append(_dumps([
                [job.uid, job.size, job.arrival, job.departure, job.name,
                 _key_to_wire(key)]
                for job, key in new
            ])[1:-1])
            self._placed += _digest_fragments(
                ((job.uid, key) for job, key in new), self._key_json
            )
            self._placed.sort()
        busy = self._busy
        for key, pairs in runtime._cache._raw.items():
            entry = busy.get(key)
            if entry is None:
                entry = busy[key] = [0, ""]
            done = entry[0]
            if len(pairs) > done:
                chunk = _dumps(pairs[done:])[1:-1]
                entry[1] = f"{entry[1]},{chunk}" if done else chunk
                entry[0] = len(pairs)
                self.rows_encoded += len(pairs) - done

    def encode(self) -> str:
        """The runtime's state snapshot as canonical JSON text."""
        self._add_history()
        runtime = self._runtime
        pools = _scheduler_pools(runtime)
        clock = runtime.clock
        stats = runtime.scheduler.state.stats  # type: ignore[attr-defined]
        busy = self._busy
        placed = self._placed + _digest_fragments(
            ((uid, entry[3]) for uid, entry in runtime._open.items()),
            self._key_json,
        )
        placed.sort()
        # the document's keys in canonical (sorted) order: the two history
        # members come first, then everything after "closed" encoded at once
        head = (
            '{"busy_intervals":['
            + ",".join(
                f"[{_key_json(key, self._key_json)},[{busy[key][1]}]]"
                for key in runtime._cache._raw
            )
            + '],"clock":'
            + _dumps(None if not math.isfinite(clock) else clock)
            + ',"closed":['
            + ",".join(self._closed)
            + "],"
        )
        tail = _dumps({
            "config": runtime.config,
            "counters": {
                name: runtime.metrics.counter(name).value
                for name in _DETERMINISTIC_COUNTERS
            },
            "kind": "bshm-state",
            "n_events": runtime.n_events,
            "next_uid": runtime._next_uid,
            "open": [
                [uid, size, arrival, name, _key_to_wire(key)]
                for uid, (size, arrival, name, key) in runtime._open.items()
            ],
            "placement_stats": {"probes": stats.probes, "decisions": stats.decisions},
            "pools": {label: pool.export_machines() for label, pool in pools},
            "rejected": list(runtime._rejected.items()),
            "used_uids": sorted(runtime._used_uids),
            "verify": {
                "assignment_sha256": _digest_of(placed),
                "cost": runtime.cost(),
            },
            "version": STATE_VERSION,
        })
        return head + tail[1:]


def capture_state(runtime: SchedulerRuntime) -> dict:
    """Serialize the runtime's full mutable state (JSON-safe, self-verifying).

    The one-shot form of :class:`SnapshotEncoder`: the parsed document.
    """
    doc: dict = json.loads(SnapshotEncoder(runtime).encode())
    return doc


def restore_state(
    state: dict, *, metrics: MetricsRegistry | None = None
) -> SchedulerRuntime:
    """Rebuild a runtime from :func:`capture_state` output and verify it.

    Linear in the snapshot, no event replay.  Raises :class:`CheckpointError` on a
    malformed document, unknown version, or any self-verification mismatch
    (clock, cost, assignment digest).
    """
    if not isinstance(state, dict) or state.get("kind") != "bshm-state":
        raise CheckpointError("not a state snapshot (missing kind=bshm-state)")
    version = state.get("version")
    if version != STATE_VERSION:
        raise CheckpointError(
            f"unsupported state snapshot version {version!r} "
            f"(this build reads {STATE_VERSION})"
        )
    try:
        runtime = _runtime_from_config(state["config"], metrics=metrics)
        clock = state["clock"]
        runtime.clock = -math.inf if clock is None else float(clock)
        for uid, size, arrival, name, key in state["open"]:
            runtime._open[int(uid)] = (
                float(size), float(arrival), str(name), _key_from_wire(key)
            )
        for uid, size, arrival, departure, name, key in state["closed"]:
            job = Job(float(size), float(arrival), float(departure),
                      name=str(name), uid=int(uid))
            runtime._closed[int(uid)] = (job, _key_from_wire(key))
        for uid, reason in state["rejected"]:
            runtime._rejected[int(uid)] = str(reason)
        runtime._used_uids = {int(u) for u in state["used_uids"]}
        runtime._next_uid = int(state["next_uid"])
        for key_wire, pairs in state["busy_intervals"]:
            runtime._cache._raw[_key_from_wire(key_wire)] = [
                (float(left), float(right)) for left, right in pairs
            ]
        n_events = int(state["n_events"])
        pools = dict(_scheduler_pools(runtime))
        pool_states = state["pools"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"malformed state snapshot: {exc}") from exc

    if set(pools) != set(pool_states):
        raise CheckpointError(
            f"state snapshot pools {sorted(pool_states)} do not match the "
            f"scheduler's pools {sorted(pools)}"
        )
    for label, pool in pools.items():
        pool.restore_machines(pool_states[label])

    # fleet bookkeeping: uid -> machine, rebuilt from the resident maps
    fleet = runtime.scheduler.state  # type: ignore[attr-defined]
    for label, pool in pools.items():
        for machine in pool.machines:
            for uid in machine.resident:
                fleet.placement[uid] = machine
    stats = state.get("placement_stats", {})
    fleet.stats.probes = int(stats.get("probes", 0))
    fleet.stats.decisions = int(stats.get("decisions", 0))

    # per-machine open-job counts and the busy-by-type tallies
    for _uid, (_size, _arrival, _name, key) in runtime._open.items():
        n_on_machine = runtime._machine_open.get(key, 0) + 1
        runtime._machine_open[key] = n_on_machine
        if n_on_machine == 1:
            runtime._busy_by_type[key.type_index] = (
                runtime._busy_by_type.get(key.type_index, 0) + 1
            )

    # history lives in the WAL now, not in memory
    runtime._log_base = n_events

    for name in _DETERMINISTIC_COUNTERS:
        runtime.metrics.counter(name).value = int(state["counters"].get(name, 0))
    runtime._sample_gauges()

    verify = state.get("verify", {})
    mismatches = []
    cost = runtime.cost()
    if cost != verify.get("cost"):
        mismatches.append(f"cost {cost!r} != {verify.get('cost')!r}")
    digest = assignment_digest(runtime)
    if digest != verify.get("assignment_sha256"):
        mismatches.append("assignment digest differs")
    if runtime.n_events != n_events:
        mismatches.append(f"n_events {runtime.n_events} != {n_events}")
    if mismatches:
        raise CheckpointError(
            "state snapshot failed self-verification: " + "; ".join(mismatches)
        )
    return runtime
