"""Seeded chaos matrix: kill the service anywhere, recover state-identical.

Each case derives a kill point (fault kind + trigger step) purely from its
seed, runs a WAL-backed runtime into it, simulates the crash's on-disk
effects (files truncated to their durable prefix), recovers, re-feeds the
lost suffix of the event script, and asserts the result is state-identical
to an uninterrupted run: same assignment SHA-256, same cost, same clock,
same deterministic counters.  The matrix spans all fsync policies and all
crash fault kinds — ≥200 distinct kill points in total, every one exactly
reproducible from its seed.

Two more kill points sit inside a pipelined batch of the server: between
the batch's WAL append and its replies, and a torn write in the middle of
the batch's frames.  There a retrying client resumes the stream against
the recovered server.
"""

import asyncio
import json

import numpy as np
import pytest

from repro import SchedulerRuntime, dec_ladder, uniform_workload
from repro.core.events import EventKind, event_stream
from repro.service.checkpoint import assignment_digest
from repro.service.client import RetryingClient, replay_events
from repro.service.faults import (
    CRASH_KINDS,
    FAULT_KINDS,
    FaultInjector,
    FaultPlan,
    FaultPoint,
    InjectedFault,
)
from repro.service.server import SchedulerServer
from repro.service.wal import FSYNC_POLICIES, WALError, WALWriter, recover

N_CHAOS_CASES = 216  # 72 per fsync policy; acceptance floor is 200

LADDER = dec_ladder(3)
JOBS = uniform_workload(24, np.random.default_rng(20260808), max_size=LADDER.capacity(3))
EVENTS = list(event_stream(JOBS))  # 48 events: 24 arrivals + 24 departures


def make_runtime():
    return SchedulerRuntime.create("dec", LADDER, admission=["fits-ladder"])


def apply_event(runtime, ev):
    if ev.kind is EventKind.ARRIVE:
        runtime.submit(ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid)
    else:
        runtime.depart(ev.job.uid, ev.job.departure)


@pytest.fixture(scope="module")
def baseline():
    rt = make_runtime()
    for ev in EVENTS:
        apply_event(rt, ev)
    return {
        "events": rt.events,
        "digest": assignment_digest(rt),
        "cost": rt.cost(),
        "clock": rt.clock,
        "counters": {
            name: rt.metrics.counter(name).value
            for name in ("arrivals", "departures", "rejections")
        },
    }


def run_chaos_case(seed: int, wal_dir) -> tuple[bool, SchedulerRuntime]:
    """One kill-recover-refeed cycle; returns (crashed, recovered runtime)."""
    policy = FSYNC_POLICIES[seed % len(FSYNC_POLICIES)]
    plan = FaultPlan.seeded(seed, kinds=CRASH_KINDS, max_step=40)
    injector = FaultInjector(plan)
    runtime = make_runtime()
    config = runtime.config
    crashed = False
    wal = None
    try:
        # construction writes the first segment header, so the kill point
        # may fire before a single event is appended
        wal = WALWriter(
            wal_dir, runtime, fsync=policy, batch_every=3,
            segment_records=8, compact_every=12, faults=injector,
        )
        for ev in EVENTS:
            apply_event(runtime, ev)
            wal.append_new()
        wal.close()
    except (InjectedFault, WALError):
        crashed = True
        if wal is not None:
            wal.abandon()  # the process is "dead": nothing gets flushed
        injector.apply_crash_effects()  # disk drops to its durable prefix
    recovered = recover(wal_dir, config=config)
    survivor = recovered.runtime
    for ev in EVENTS[recovered.n_events:]:  # the client retries the suffix
        apply_event(survivor, ev)
    return crashed, survivor


class TestChaosMatrix:
    @pytest.mark.parametrize("seed", range(N_CHAOS_CASES))
    def test_recovery_is_state_identical(self, seed, baseline, tmp_path):
        crashed, survivor = run_chaos_case(seed, tmp_path / "wal")
        del crashed  # a plan whose step never fires is a valid (clean) case
        assert assignment_digest(survivor) == baseline["digest"]
        assert survivor.cost() == baseline["cost"]
        assert survivor.clock == baseline["clock"]
        for name, value in baseline["counters"].items():
            assert survivor.metrics.counter(name).value == value

    def test_matrix_actually_kills(self, tmp_path):
        """Sanity: the seed range exercises real crashes of every kind and
        policy, not 216 clean runs."""
        kinds = set()
        policies = set()
        crashes = 0
        for seed in range(N_CHAOS_CASES):
            plan = FaultPlan.seeded(seed, kinds=CRASH_KINDS, max_step=40)
            kinds.add(plan.points[0].kind)
            policies.add(FSYNC_POLICIES[seed % len(FSYNC_POLICIES)])
        assert kinds == set(CRASH_KINDS)
        assert policies == set(FSYNC_POLICIES)
        for seed in range(0, N_CHAOS_CASES, 9):  # spot-check real crashes
            crashed, _ = run_chaos_case(seed, tmp_path / f"wal{seed}")
            crashes += crashed
        assert crashes > 0


BATCH = 8  # the server's max_inflight: the request lines one batch takes


class _Wire:
    """The server's end of a connection: keeps the reply bytes it writes."""

    def __init__(self):
        self.data = bytearray()

    def write(self, data):
        self.data += data

    async def drain(self):
        pass

    def close(self):
        pass

    async def wait_closed(self):
        pass


def _request_lines(events) -> bytes:
    lines = []
    for ev in events:
        if ev.kind is EventKind.ARRIVE:
            doc = {"op": "submit", "size": ev.job.size, "t": ev.job.arrival,
                   "uid": ev.job.uid, "name": ev.job.name}
        else:
            doc = {"op": "depart", "uid": ev.job.uid, "t": ev.job.departure}
        lines.append(json.dumps(doc) + "\n")
    return "".join(lines).encode()


async def _pipeline_until_killed(runtime, wal, injector) -> list[dict]:
    """Feed the whole stream into one connection at once, so every batch
    holds exactly BATCH lines; returns the replies sent before the kill."""
    server = SchedulerServer(runtime, wal=wal, faults=injector, max_inflight=BATCH)
    reader = asyncio.StreamReader()
    reader.feed_data(_request_lines(EVENTS))
    reader.feed_eof()
    wire = _Wire()
    await server._handle(reader, wire)
    return [json.loads(line) for line in bytes(wire.data).splitlines()]


async def _resume(runtime, wal, script) -> int:
    """Serve the recovered runtime; a retrying client asks how many events
    it holds and re-sends the rest of its script.  Returns that count."""
    server = SchedulerServer(runtime, wal=wal)
    host, port = await server.start("127.0.0.1", 0)

    def client_side() -> int:
        with RetryingClient(host, port, backoff_s=0.001) as client:
            held = client.request({"op": "stats"})["events"]
            assert replay_events(client, script[held:]) == len(script) - held
            assert client.request({"op": "shutdown"})["bye"]
        return held

    held = await asyncio.get_running_loop().run_in_executor(None, client_side)
    await server.wait_shutdown()
    return held


class TestBatchKillPoints:
    @pytest.mark.parametrize("policy", FSYNC_POLICIES)
    @pytest.mark.parametrize("kind, step", [
        ("crash-before-ack", 2),  # the second batch is logged, not acked
        ("partial-write", 3),  # writes: segment header, batch 1, batch 2
    ])
    def test_kill_inside_a_batch_recovers(self, kind, step, policy, baseline, tmp_path):
        script = list(baseline["events"])
        injector = FaultInjector(FaultPlan.of(FaultPoint(kind, step)))
        runtime = make_runtime()
        config = runtime.config
        wal = WALWriter(tmp_path / "wal", runtime, fsync=policy, batch_every=3,
                        faults=injector)
        replies = asyncio.run(_pipeline_until_killed(runtime, wal, injector))
        assert [p.kind for p in injector.fired] == [kind]
        assert len(replies) == BATCH and all(r["ok"] for r in replies)
        wal.abandon()  # the process is "dead": nothing gets flushed
        injector.apply_crash_effects()

        recovered = recover(tmp_path / "wal", config=config)
        if kind == "partial-write":
            # the torn frame is cut off; whole frames before it survive
            assert recovered.truncated_bytes > 0
            assert BATCH < recovered.n_events < 2 * BATCH
        elif policy == "always":
            assert recovered.n_events == 2 * BATCH
        if policy == "always":
            assert recovered.n_events >= len(replies)  # every ack survived
        survivor = recovered.runtime
        resumed_wal = WALWriter(tmp_path / "wal", survivor, fsync=policy)
        held = asyncio.run(_resume(survivor, resumed_wal, script))
        assert held == recovered.n_events
        assert assignment_digest(survivor) == baseline["digest"]
        assert survivor.cost() == baseline["cost"]
        assert survivor.clock == baseline["clock"]
        for name, value in baseline["counters"].items():
            assert survivor.metrics.counter(name).value == value
        assert assignment_digest(recover(tmp_path / "wal").runtime) == baseline["digest"]


class TestFaultPlans:
    def test_seeded_plans_are_deterministic(self):
        for seed in range(50):
            assert FaultPlan.seeded(seed) == FaultPlan.seeded(seed)
        distinct = {FaultPlan.seeded(seed).points for seed in range(200)}
        assert len(distinct) > 100  # seeds spread over (kind, step) space

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultPoint("set-on-fire", 1)
        with pytest.raises(ValueError, match="1-based"):
            FaultPoint("partial-write", 0)
        assert set(CRASH_KINDS) < set(FAULT_KINDS)

    def test_injector_fires_exactly_at_step(self):
        injector = FaultInjector(FaultPlan.of(FaultPoint("crash-before-append", 3)))
        injector.point("wal.append.before")
        injector.point("wal.append.before")
        with pytest.raises(InjectedFault):
            injector.point("wal.append.before")
        assert [p.step for p in injector.fired] == [3]

    def test_crash_effects_truncate_to_durable(self, tmp_path):
        injector = FaultInjector(FaultPlan.of())
        path = tmp_path / "f.bin"
        with open(path, "wb") as fh:
            injector.io_write(fh, b"durable!")
            injector.io_fsync(fh)
            injector.io_write(fh, b"lost")
        lost = injector.apply_crash_effects()
        assert path.read_bytes() == b"durable!"
        assert lost == {str(path): 4}
