"""The JSON-lines server: in-process protocol tests plus a full subprocess
end-to-end smoke (the CI service job runs this file)."""

import asyncio
import json
import os
import socket
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from repro import dec_ladder, run_online, uniform_workload
from repro.core.events import EventKind, event_stream
from repro.service import runtime as runtime_module
from repro.service import wal as wal_module
from repro.service.checkpoint import load_checkpoint
from repro.service.faults import FaultInjector, FaultPlan, FaultPoint
from repro.service.runtime import SchedulerRuntime, make_scheduler
from repro.service.server import SchedulerServer
from repro.service.wal import WALWriter

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def make_runtime():
    return SchedulerRuntime.create("dec", dec_ladder(3), admission=["fits-ladder"])


# ---------------------------------------------------------------------------
# synchronous protocol-level tests (no sockets)
# ---------------------------------------------------------------------------

class TestHandleLine:
    def test_submit_depart_stats(self):
        server = SchedulerServer(make_runtime())
        r = server.handle_line(json.dumps({"op": "submit", "size": 0.5, "t": 0.0}))
        assert r["ok"] and r["accepted"] and r["machine"].startswith("T")
        uid = r["uid"]
        r = server.handle_line(json.dumps({"op": "depart", "uid": uid, "t": 3.0}))
        assert r["ok"]
        r = server.handle_line(json.dumps({"op": "stats"}))
        assert r["ok"] and r["active"] == 0 and r["cost"] > 0
        assert r["metrics"]["arrivals"]["value"] == 1

    def test_rejection_is_reported_not_an_error(self):
        server = SchedulerServer(make_runtime())
        r = server.handle_line(json.dumps({"op": "submit", "size": 1e9, "t": 0.0}))
        assert r["ok"] and not r["accepted"] and "capacity" in r["reason"]

    def test_protocol_errors_are_structured(self):
        server = SchedulerServer(make_runtime())
        r = server.handle_line("")
        assert not r["ok"] and r["error"]["code"] == "bad-request"
        r = server.handle_line("{bad")
        assert r["error"]["code"] == "bad-request"
        assert "malformed" in r["error"]["message"]
        assert r["error"]["retryable"] is False
        r = server.handle_line(json.dumps({"op": "fly"}))
        assert r["error"]["code"] == "unknown-op"
        assert server.handle_line(json.dumps(["submit"]))["error"]["code"] == "bad-request"
        # missing params surface as an error response, not an exception
        r = server.handle_line(json.dumps({"op": "submit"}))
        assert not r["ok"] and r["error"]["code"] == "invalid-request"
        # time violations likewise
        server.handle_line(json.dumps({"op": "advance", "t": 10.0}))
        r = server.handle_line(json.dumps({"op": "advance", "t": 5.0}))
        assert not r["ok"] and r["error"]["code"] == "invalid-request"
        assert "backwards" in r["error"]["message"]

    def test_duplicate_uid_has_dedicated_code(self):
        server = SchedulerServer(make_runtime())
        r = server.handle_line(json.dumps({"op": "submit", "size": 0.5, "t": 0.0, "uid": 7}))
        assert r["ok"] and r["accepted"]
        r = server.handle_line(json.dumps({"op": "submit", "size": 0.5, "t": 1.0, "uid": 7}))
        assert not r["ok"]
        assert r["error"]["code"] == "duplicate-uid"
        assert r["error"]["uid"] == 7
        # a rejected submit also claims its uid: replaying it is a dup too
        r = server.handle_line(json.dumps({"op": "submit", "size": 1e9, "t": 2.0, "uid": 8}))
        assert r["ok"] and not r["accepted"]
        r = server.handle_line(json.dumps({"op": "submit", "size": 1e9, "t": 2.0, "uid": 8}))
        assert r["error"]["code"] == "duplicate-uid"

    def test_checkpoint_inline_and_schedule(self):
        server = SchedulerServer(make_runtime())
        server.handle_line(json.dumps({"op": "submit", "size": 0.5, "t": 0.0}))
        r = server.handle_line(json.dumps({"op": "checkpoint"}))
        assert r["ok"] and r["snapshot"]["version"] == 1
        r = server.handle_line(json.dumps({"op": "schedule"}))
        assert r["ok"] and r["jobs"] == 0  # open job at clock has zero length

    def test_shutdown_response(self):
        server = SchedulerServer(make_runtime())
        assert server.handle_line(json.dumps({"op": "shutdown"}))["bye"]


class TestWireFields:
    """A uid must be a JSON integer and a size or time a JSON number; a
    bool, a float uid or a numeric string is refused and changes nothing."""

    @pytest.mark.parametrize("request_doc", [
        {"op": "depart", "uid": 7.9, "t": 1},
        {"op": "depart", "uid": True, "t": 1},
        {"op": "depart", "uid": "7", "t": 1},
        {"op": "depart", "uid": 7, "t": "3"},
        {"op": "depart", "uid": 7, "t": True},
        {"op": "submit", "size": 0.5, "t": 1, "uid": 8.5},
        {"op": "submit", "size": 0.5, "t": 1, "uid": True},
        {"op": "submit", "size": 0.5, "t": 1, "uid": 7.0},
        {"op": "submit", "size": True, "t": 1},
        {"op": "submit", "size": "0.5", "t": 1},
        {"op": "submit", "size": 0.5, "t": "3"},
        {"op": "submit", "size": 0.5, "t": False},
        {"op": "advance", "t": "3"},
        {"op": "advance", "t": True},
        {"op": "advance", "t": None},
    ])
    def test_malformed_field_is_invalid_and_changes_nothing(self, request_doc):
        server = SchedulerServer(make_runtime())
        runtime = server.runtime
        assert server.handle_line(
            json.dumps({"op": "submit", "size": 0.5, "t": 0.0, "uid": 7})
        )["ok"]
        before = (runtime.n_events, runtime.n_active, runtime.clock,
                  runtime.active_uids())
        reply = server.handle_line(json.dumps(request_doc))
        assert not reply["ok"]
        assert reply["error"]["code"] == "invalid-request"
        assert (runtime.n_events, runtime.n_active, runtime.clock,
                runtime.active_uids()) == before
        assert not runtime.knows_uid(1) and not runtime.knows_uid(8)

    def test_integral_numbers_are_accepted(self):
        server = SchedulerServer(make_runtime())
        r = server.handle_line(json.dumps({"op": "submit", "size": 1, "t": 0, "uid": 3}))
        assert r["ok"] and r["uid"] == 3
        r = server.handle_line(json.dumps({"op": "depart", "uid": 3, "t": 2}))
        assert r == {"ok": True, "uid": 3}
        assert server.handle_line(json.dumps({"op": "advance", "t": 5}))["clock"] == 5.0


# ---------------------------------------------------------------------------
# in-process asyncio round-trip
# ---------------------------------------------------------------------------

async def _ask(reader, writer, request: dict) -> dict:
    writer.write((json.dumps(request) + "\n").encode())
    await writer.drain()
    return json.loads(await reader.readline())


async def _roundtrip() -> dict:
    server = SchedulerServer(make_runtime())
    host, port = await server.start("127.0.0.1", 0)
    waiter = asyncio.create_task(server.wait_shutdown())
    reader, writer = await asyncio.open_connection(host, port)
    out = {}
    r = await _ask(reader, writer, {"op": "submit", "size": 2.0, "t": 1.0})
    out["submit"] = r
    r = await _ask(reader, writer, {"op": "depart", "uid": r["uid"], "t": 4.0})
    out["depart"] = r
    out["stats"] = await _ask(reader, writer, {"op": "stats"})
    out["bye"] = await _ask(reader, writer, {"op": "shutdown"})
    writer.close()
    await asyncio.wait_for(waiter, timeout=5)
    return out


class TestAsyncServer:
    def test_tcp_roundtrip_and_shutdown(self):
        out = asyncio.run(_roundtrip())
        assert out["submit"]["accepted"]
        assert out["depart"]["ok"]
        assert out["stats"]["cost"] > 0
        assert out["bye"]["bye"]


# ---------------------------------------------------------------------------
# robustness: disconnects, shedding, bounded reads
# ---------------------------------------------------------------------------

async def _abrupt_disconnect_then_reconnect():
    """Regression: a client that RSTs mid-exchange must not leak an
    unhandled ConnectionResetError or wedge the shared runtime."""
    unhandled = []
    loop = asyncio.get_running_loop()
    loop.set_exception_handler(lambda _loop, ctx: unhandled.append(ctx))
    server = SchedulerServer(make_runtime())
    host, port = await server.start("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b'{"op": "submit", "size": 0.5, "t": 0.0}\n')
    await writer.drain()
    writer.transport.abort()  # RST: no FIN, no read of the response
    for _ in range(100):
        if not server._conn_tasks:
            break
        await asyncio.sleep(0.01)
    # the server must still be healthy for fresh connections
    reader2, writer2 = await asyncio.open_connection(host, port)
    stats = await _ask(reader2, writer2, {"op": "stats"})
    writer2.close()
    await server.drain()
    return unhandled, stats


async def _overload_shed():
    """With one request stalled and max_inflight=1, the next request is
    shed with the retryable ``overloaded`` error."""
    from repro.service.faults import FaultInjector, FaultPlan, FaultPoint

    gate = asyncio.Event()
    injector = FaultInjector(FaultPlan.of(FaultPoint("stall", 1, arg=gate)))
    server = SchedulerServer(make_runtime(), faults=injector, max_inflight=1)
    host, port = await server.start("127.0.0.1", 0)
    reader1, writer1 = await asyncio.open_connection(host, port)
    writer1.write(b'{"op": "advance", "t": 1.0}\n')
    await writer1.drain()
    for _ in range(200):
        if server._inflight == 1:
            break
        await asyncio.sleep(0.005)
    assert server._inflight == 1, "stalled request never became in-flight"
    reader2, writer2 = await asyncio.open_connection(host, port)
    shed = await _ask(reader2, writer2, {"op": "stats"})
    gate.set()
    stalled = json.loads(await reader1.readline())
    after = await _ask(reader2, writer2, {"op": "stats"})
    writer1.close()
    writer2.close()
    await server.drain()
    return shed, stalled, after


async def _oversized_line():
    server = SchedulerServer(make_runtime(), max_line_bytes=256)
    host, port = await server.start("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(b'{"op": "submit", "name": "' + b"x" * 1024 + b'"}\n')
    await writer.drain()
    response = json.loads(await reader.readline())
    eof = await reader.read()  # server hangs up after answering
    writer.close()
    await server.drain()
    return response, eof


async def _idle_timeout():
    server = SchedulerServer(make_runtime(), read_timeout=0.05)
    host, port = await server.start("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection(host, port)
    response = json.loads(await asyncio.wait_for(reader.readline(), timeout=5))
    writer.close()
    await server.drain()
    return response


class TestServerRobustness:
    def test_abrupt_disconnect_is_handled(self):
        unhandled, stats = asyncio.run(_abrupt_disconnect_then_reconnect())
        assert unhandled == []
        assert stats["ok"]

    def test_overload_shedding(self):
        shed, stalled, after = asyncio.run(_overload_shed())
        assert not shed["ok"]
        assert shed["error"]["code"] == "overloaded"
        assert shed["error"]["retryable"] is True
        assert shed["error"]["retry_after_ms"] > 0
        assert stalled["ok"]  # the stalled request still completed
        assert after["ok"]
        assert after["metrics"]["shed_requests"]["value"] == 1

    def test_line_too_long(self):
        response, eof = asyncio.run(_oversized_line())
        assert response["error"]["code"] == "line-too-long"
        assert eof == b""

    def test_idle_read_timeout(self):
        response = asyncio.run(_idle_timeout())
        assert response["error"]["code"] == "idle-timeout"


# ---------------------------------------------------------------------------
# pipelining: every buffered line is answered as one batch
# ---------------------------------------------------------------------------

@pytest.fixture
def frozen_clock(monkeypatch):
    """Latency metrics read a clock that never moves, so two runs of one
    request stream give byte-identical ``stats`` replies."""
    frozen = types.SimpleNamespace(perf_counter=lambda: 0.0)
    monkeypatch.setattr(runtime_module, "time", frozen)
    monkeypatch.setattr(wal_module, "time", frozen)


def pipeline_requests() -> list[bytes]:
    """120 events of a 60-job stream, with a malformed line, an unknown op,
    a duplicate uid, an empty line and ``stats`` reads mixed in."""
    jobs = uniform_workload(60, np.random.default_rng(21), max_size=dec_ladder(3).capacity(3))
    lines = []
    for ev in event_stream(jobs):
        if ev.kind is EventKind.ARRIVE:
            doc = {"op": "submit", "size": ev.job.size, "t": ev.job.arrival,
                   "uid": ev.job.uid, "name": ev.job.name}
        else:
            doc = {"op": "depart", "uid": ev.job.uid, "t": ev.job.departure}
        lines.append((json.dumps(doc) + "\n").encode())
    first = json.loads(lines[0])
    lines.insert(10, b'{"op": "submit", "size": \n')
    lines.insert(20, b'{"op": "fly"}\n')
    lines.insert(30, (json.dumps(first) + "\n").encode())  # duplicate uid
    lines.insert(40, b"\n")
    lines.insert(50, b'{"op": "stats"}\n')
    lines.insert(70, b'{"op": "schedule"}\n')
    lines.append(b'{"op": "stats"}\n')
    return lines


async def _replies(wal_dir, lines: list[bytes], *, pipelined: bool):
    """Raw reply lines of one fresh WAL-backed server, and the sizes of
    the batches it answered."""
    runtime = make_runtime()
    wal = WALWriter(wal_dir, runtime, fsync="never", segment_records=8,
                    compact_every=20)
    server = SchedulerServer(runtime, wal=wal)
    batches = []
    respond = server._respond

    async def recording(batch):
        batches.append(len(batch))
        return await respond(batch)

    server._respond = recording
    host, port = await server.start("127.0.0.1", 0)
    reader, writer = await asyncio.open_connection(host, port)
    out = []
    if pipelined:
        writer.write(b"".join(lines))  # the whole stream in one send
        await writer.drain()
        for _ in lines:
            out.append(await reader.readline())
    else:
        for line in lines:
            writer.write(line)
            await writer.drain()
            out.append(await reader.readline())
    files = {p.name: p.read_bytes() for p in sorted(wal_dir.iterdir())}
    writer.close()
    await server.drain()
    return out, batches, files


class TestPipelining:
    def test_one_send_matches_one_request_at_a_time(self, tmp_path, frozen_clock):
        lines = pipeline_requests()
        assert len(lines) >= 100
        piped, batches, piped_files = asyncio.run(
            _replies(tmp_path / "piped", lines, pipelined=True))
        single, singles, single_files = asyncio.run(
            _replies(tmp_path / "single", lines, pipelined=False))
        assert singles == [1] * len(lines)
        assert max(batches) > 1 and sum(batches) == len(lines)
        assert max(batches) <= 64  # the default in-flight cap bounds a batch
        assert piped == single  # byte-identical, in request order
        codes = [json.loads(r).get("error", {}).get("code") for r in piped]
        assert codes[10] == "bad-request" and codes[40] == "bad-request"
        assert codes[20] == "unknown-op" and codes[30] == "duplicate-uid"
        assert json.loads(piped[50])["metrics"]["wal_appends"]["value"] > 0
        # the same segments and snapshots, at the same event indices
        assert piped_files == single_files

    def test_lines_before_an_overlong_line_are_answered(self):
        async def scenario():
            server = SchedulerServer(make_runtime(), max_line_bytes=256)
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "advance", "t": 1.0}\n{"op": "stats"}\n'
                         + b'{"op": "submit", "name": "' + b"x" * 1024 + b'"}\n'
                         + b'{"op": "advance", "t": 2.0}\n')
            await writer.drain()
            out = [json.loads(line) for line in (await reader.read()).splitlines()]
            writer.close()
            await server.drain()
            return out, server.runtime.clock

        out, clock = asyncio.run(scenario())
        assert [r.get("error", {}).get("code") for r in out] == [None, None, "line-too-long"]
        assert clock == 1.0  # nothing after the over-long line ran

    def test_unterminated_last_line_is_answered_at_eof(self):
        async def scenario():
            server = SchedulerServer(make_runtime())
            host, port = await server.start("127.0.0.1", 0)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"op": "advance", "t": 1.0}\n{"op": "advance", "t": 2.0}')
            writer.write_eof()
            out = [json.loads(line) for line in (await reader.read()).splitlines()]
            writer.close()
            await server.drain()
            return out

        assert [r["clock"] for r in asyncio.run(scenario())] == [1.0, 2.0]

    def test_failed_append_fails_every_success_reply_of_the_batch(self, tmp_path):
        async def scenario():
            # fsync 1 is the segment header's; fsync 2 is the batch's
            injector = FaultInjector(FaultPlan.of(FaultPoint("fsync-error", 2)))
            runtime = make_runtime()
            wal = WALWriter(tmp_path / "wal", runtime, fsync="always", faults=injector)
            server = SchedulerServer(runtime, wal=wal, faults=injector)
            host, port = await server.start("127.0.0.1", 0)
            waiter = asyncio.create_task(server.wait_shutdown())
            reader, writer = await asyncio.open_connection(host, port)
            # the read appends the two submits before it runs, and fails
            writer.write(b'{"op": "submit", "size": 0.5, "t": 0.0, "uid": 1}\n'
                         b'{"op": "submit", "size": \n'
                         b'{"op": "submit", "size": 0.5, "t": 1.0, "uid": 2}\n'
                         b'{"op": "stats"}\n'
                         b'{"op": "advance", "t": 2.0}\n')
            await writer.drain()
            out = [json.loads(await reader.readline()) for _ in range(5)]
            writer.close()
            await asyncio.wait_for(waiter, timeout=5)  # the server fail-stopped
            return out, runtime.clock

        out, clock = asyncio.run(scenario())
        codes = [r["error"]["code"] for r in out]
        assert codes == ["storage-error", "bad-request", "storage-error",
                         "storage-error", "draining"]
        assert clock == 1.0  # nothing ran after the failed append


# ---------------------------------------------------------------------------
# subprocess end-to-end: the CI smoke (bshm serve <- 50-job trace over TCP)
# ---------------------------------------------------------------------------

class TestServeEndToEnd:
    def test_cli_serve_50_job_trace_matches_batch(self, tmp_path):
        ladder = dec_ladder(3)
        jobs = uniform_workload(50, np.random.default_rng(11), max_size=ladder.capacity(3))
        expected = run_online(jobs, make_scheduler("dec", ladder)).cost()

        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_SRC) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--ladder-kind", "dec", "--m", "3", "--scheduler", "dec"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
            text=True,
        )
        try:
            banner = proc.stdout.readline()
            assert "listening on" in banner, banner
            host, port = banner.rsplit(" ", 1)[-1].strip().rsplit(":", 1)

            with socket.create_connection((host, int(port)), timeout=10) as sock:
                sock.settimeout(10)
                fh = sock.makefile("rw", encoding="utf-8", newline="\n")

                def ask(request):
                    fh.write(json.dumps(request) + "\n")
                    fh.flush()
                    return json.loads(fh.readline())

                for ev in event_stream(jobs):
                    if ev.kind is EventKind.ARRIVE:
                        r = ask({"op": "submit", "size": ev.job.size,
                                 "t": ev.job.arrival, "uid": ev.job.uid,
                                 "name": ev.job.name})
                        assert r["ok"] and r["accepted"], r
                    else:
                        r = ask({"op": "depart", "uid": ev.job.uid,
                                 "t": ev.job.departure})
                        assert r["ok"], r

                stats = ask({"op": "stats"})
                assert stats["ok"] and stats["active"] == 0
                # schedule cost must match batch run_online exactly (same
                # kernel); the running-accumulator stat agrees to float noise
                sched_resp = ask({"op": "schedule"})
                assert sched_resp["cost"] == expected
                assert abs(stats["cost"] - expected) <= 1e-9 * max(1.0, expected)

                ckpt = tmp_path / "server.ckpt.json"
                r = ask({"op": "checkpoint", "path": str(ckpt)})
                assert r["ok"] and ckpt.exists()

                bye = ask({"op": "shutdown"})
                assert bye["bye"]
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=5)

        # the checkpoint written over the wire restores to the same cost
        restored = load_checkpoint(ckpt)
        assert restored.schedule().cost() == expected
