"""The incremental state-snapshot encoder against the whole-document oracle.

``SnapshotEncoder.encode()`` must return, byte for byte, the canonical JSON
of the state document that :func:`capture_state_reference` rebuilds from
scratch, at any point of any stream, on every registered scheduler — and
keep doing so across ``restore_state`` and for a fresh encoder over a
restored runtime.  The snapshot-format fingerprint of ``bshm check``
(BSHM006) covers only ``checkpoint.py``, so this suite is what pins the
state-snapshot bytes.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import SchedulerRuntime, dec_ladder, inc_ladder, uniform_workload
from repro.core.events import EventKind, event_stream
from repro.machines.catalog import ec2_like_ladder
from repro.service.checkpoint import _dumps, assignment_digest
from repro.service.runtime import SCHEDULER_REGISTRY, AdmissionError
from repro.service.state import SnapshotEncoder, capture_state, restore_state
from repro.service.wal import WALWriter
from tests.property.settings import tiered

from .snapshot_reference import (
    assignment_digest_reference,
    capture_state_reference,
)

LADDERS = {
    "dec": dec_ladder(3),
    "inc": inc_ladder(3),
    "general": ec2_like_ladder(4),
    "first-fit": dec_ladder(3),
}

ADMISSIONS = (
    (),  # oversize jobs reach the scheduler, which refuses them
    ("fits-ladder",),
    ("fits-ladder", ("max-active", 3)),
    (("max-active", 4),),
)

#: one step of a stream; sizes are fractions of the largest capacity,
#: times are offsets from the clock
SUBMIT = st.tuples(
    st.just("submit"),
    st.floats(0.02, 1.0),
    st.sampled_from([0.0, 0.25, 1.0, 3.5]),
    st.one_of(st.none(), st.integers(-3, 40)),  # auto or explicit uid
)
DEPART = st.tuples(
    st.just("depart"), st.integers(0, 1000), st.sampled_from([0.0, 0.5, 2.0])
)
STEPS = st.one_of(
    SUBMIT, SUBMIT, SUBMIT, DEPART, DEPART,
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1.5])),
    st.tuples(
        st.just("error"),
        st.sampled_from(["backwards", "duplicate", "unknown-depart", "bad-size", "oversize"]),
    ),
    st.just(("check",)),
    st.just(("restore",)),
)


def reference_text(rt):
    return _dumps(capture_state_reference(rt))


def now(rt):
    return rt.clock if math.isfinite(rt.clock) else 0.0


def apply(rt, step, cap):
    """Apply one step; returns what a client would see (no exception)."""
    kind = step[0]
    try:
        if kind == "submit":
            _, frac, dt, uid = step
            adm = rt.submit(frac * cap, now(rt) + dt, uid=uid)
            return ("admitted", adm.uid, adm.accepted)
        if kind == "depart":
            candidates = sorted(rt._open) + sorted(rt._rejected)
            if not candidates:
                return ("skipped",)
            rt.depart(candidates[step[1] % len(candidates)], now(rt) + step[2])
            return ("departed",)
        if kind == "advance":
            rt.advance(now(rt) + step[1])
            return ("advanced",)
        error = step[1]
        if error == "unknown-depart":
            rt.depart(10**6, now(rt) + 1.0)
        elif error == "backwards":
            rt.submit(0.1, now(rt) - 1.0)
        elif error == "duplicate":
            rt.submit(0.1, now(rt), uid=min(rt._used_uids, default=0))
        elif error == "bad-size":
            rt.submit(0.0, now(rt))
        else:
            rt.submit(5.0 * cap, now(rt))
        return ("no-error", error)
    except (AdmissionError, ValueError) as exc:
        return ("refused", type(exc).__name__, str(exc))


def assert_encodes_like_oracle(pairs):
    """Every encoder matches the oracle, and a restored twin matches its
    original in everything but the probe count: a restored pool's
    free-slot heap holds different stale entries, so its placement
    probes (observability only) differ while every decision is the same."""
    docs = []
    for rt, encoder in pairs:
        text = encoder.encode()
        assert text == reference_text(rt)
        assert assignment_digest(rt) == assignment_digest_reference(rt)
        assert rt._used_uids == set(rt._open) | set(rt._closed) | set(rt._rejected)
        doc = json.loads(text)
        del doc["placement_stats"]["probes"]
        docs.append(doc)
    assert all(doc == docs[0] for doc in docs)


def test_every_registered_scheduler_is_covered():
    assert set(LADDERS) == set(SCHEDULER_REGISTRY)


@pytest.mark.parametrize("name", sorted(LADDERS))
@tiered(40)
@given(admission=st.sampled_from(ADMISSIONS), steps=st.lists(STEPS, min_size=20, max_size=80))
def test_encoder_matches_oracle_on_random_streams(name, admission, steps):
    ladder = LADDERS[name]
    cap = max(ladder.capacity(i) for i in range(1, ladder.m + 1))
    rt = SchedulerRuntime.create(name, ladder, admission=list(admission))
    # [runtime, its encoder]; a restore step adds the restored twin
    pairs = [(rt, SnapshotEncoder(rt))]
    for step in steps:
        if step[0] == "check":
            assert_encodes_like_oracle(pairs)
            continue
        if step[0] == "restore":
            if len(pairs) == 1:
                restored = restore_state(json.loads(pairs[0][1].encode()))
                pairs.append((restored, SnapshotEncoder(restored)))
            continue
        before = reference_text(rt) if step[0] == "error" else None
        outcomes = {apply(r, step, cap) for r, _ in pairs}
        assert len(outcomes) == 1  # both runtimes answer identically
        (outcome,) = outcomes
        if before is not None and outcome[0] == "refused" and step[1] != "unknown-depart":
            # a refused submit leaves the runtime exactly as it was
            assert reference_text(rt) == before
    assert_encodes_like_oracle(pairs)
    # the one-shot form is the same document
    assert _dumps(capture_state(rt)) == reference_text(rt)


class TestHistoryEncodedOnce:
    """A count, not a timer: compaction encodes each history row once."""

    def test_each_row_encoded_exactly_once_across_compactions(self, tmp_path):
        rng = np.random.default_rng(2020)
        jobs = uniform_workload(
            5000, rng, horizon=5000.0, max_size=9.0, duration_range=(1.0, 200.0)
        )
        rt = SchedulerRuntime.create("dec", dec_ladder(3), admission=["fits-ladder"])
        wal = WALWriter(tmp_path / "wal", rt, compact_every=512)
        for ev in event_stream(jobs):
            if ev.kind is EventKind.ARRIVE:
                rt.submit(ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid)
            else:
                rt.depart(ev.job.uid, ev.job.departure)
            wal.append_new()
        final = wal.compact()
        wal.close()
        assert rt.n_events == 10_000
        assert final.read_text() == reference_text(rt)

        encoder = wal._encoder
        intervals = sum(len(pairs) for pairs in rt._cache._raw.values())
        assert len(rt._closed) == intervals == 5000
        assert encoder.rows_encoded == len(rt._closed) + intervals

        # no new events: no history row is encoded again
        assert encoder.encode() == reference_text(rt)
        assert encoder.rows_encoded == len(rt._closed) + intervals

    def test_fresh_encoder_over_restored_runtime_encodes_history_once(self, rng):
        jobs = uniform_workload(60, rng, max_size=9.0)
        rt = SchedulerRuntime.create("dec", dec_ladder(3), admission=["fits-ladder"])
        for ev in event_stream(jobs):
            if ev.kind is EventKind.ARRIVE:
                rt.submit(ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid)
            else:
                rt.depart(ev.job.uid, ev.job.departure)
        restored = restore_state(capture_state(rt))
        encoder = SnapshotEncoder(restored)
        assert encoder.rows_encoded == 0
        assert encoder.encode() == reference_text(rt)
        assert encoder.rows_encoded == 2 * len(rt._closed)
