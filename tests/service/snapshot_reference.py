"""Oracles for the state-snapshot encoder: the whole-document builders.

:func:`capture_state_reference` rebuilds the full ``bshm-state`` dict from
scratch on every call, and :func:`assignment_digest_reference` hashes the
uid -> machine mapping of a freshly built :class:`Schedule`.  Production
encodes the same document incrementally
(:class:`repro.service.state.SnapshotEncoder`); the suites assert
``encoder.encode() == _dumps(capture_state_reference(rt))`` byte for byte.
"""

from __future__ import annotations

import hashlib
import math

from repro.service.checkpoint import _dumps, _key_to_wire
from repro.service.runtime import SchedulerRuntime
from repro.service.state import (
    _DETERMINISTIC_COUNTERS,
    STATE_VERSION,
    _scheduler_pools,
)


def assignment_digest_reference(runtime: SchedulerRuntime) -> str:
    """SHA-256 over the canonical uid -> machine mapping (open + closed)."""
    mapping = {}
    for uid in runtime.active_uids():
        key = runtime.machine_of(uid)
        mapping[str(uid)] = [key.type_index, list(key.tag)]
    for job, key in runtime.schedule().assignment.items():
        mapping[str(job.uid)] = [key.type_index, list(key.tag)]
    return hashlib.sha256(_dumps(mapping).encode()).hexdigest()


def capture_state_reference(runtime: SchedulerRuntime) -> dict:
    """The runtime's full mutable state, every row built afresh."""
    pools = _scheduler_pools(runtime)
    clock = runtime.clock
    stats = runtime.scheduler.state.stats
    return {
        "kind": "bshm-state",
        "version": STATE_VERSION,
        "config": runtime.config,
        "n_events": runtime.n_events,
        "clock": None if not math.isfinite(clock) else clock,
        "open": [
            [uid, size, arrival, name, _key_to_wire(key)]
            for uid, (size, arrival, name, key) in runtime._open.items()
        ],
        "closed": [
            [job.uid, job.size, job.arrival, job.departure, job.name,
             _key_to_wire(key)]
            for job, key in runtime._closed.values()
        ],
        "rejected": [[uid, reason] for uid, reason in runtime._rejected.items()],
        "used_uids": sorted(runtime._used_uids),
        "next_uid": runtime._next_uid,
        "busy_intervals": [
            [_key_to_wire(key), [[left, right] for left, right in pairs]]
            for key, pairs in runtime._cache._raw.items()
        ],
        "pools": {label: pool.export_machines() for label, pool in pools},
        "placement_stats": {"probes": stats.probes, "decisions": stats.decisions},
        "counters": {
            name: runtime.metrics.counter(name).value
            for name in _DETERMINISTIC_COUNTERS
        },
        "verify": {
            "cost": runtime.cost(),
            "assignment_sha256": assignment_digest_reference(runtime),
        },
    }
