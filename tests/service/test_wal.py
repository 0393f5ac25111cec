"""The write-ahead log: framing, torn tails, compaction, metrics.

The durability contract: the WAL directory always recovers to a *prefix*
of the logical event stream; a torn final record is truncated silently,
anything worse fails loudly; after compaction, restore cost is
O(state) + O(delta) rather than O(all events ever).
"""

import json
import shutil
import struct
import zlib
from pathlib import Path

import pytest

from repro import SchedulerRuntime, dec_ladder, uniform_workload
from repro.core.events import EventKind, event_stream
from repro.service.checkpoint import (
    CheckpointError,
    assignment_digest,
    replay_trace,
    write_trace,
)
from repro.service.metrics import MetricsRegistry
from repro.service.server import SchedulerServer
from repro.service.wal import WALError, WALWriter, recover


def make_runtime(metrics=None):
    return SchedulerRuntime.create(
        "dec", dec_ladder(3), admission=["fits-ladder"], metrics=metrics
    )


def drive_with_wal(rt, wal, jobs, *, stop_after=None):
    for i, ev in enumerate(event_stream(jobs)):
        if stop_after is not None and i >= stop_after:
            break
        if ev.kind is EventKind.ARRIVE:
            rt.submit(ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid)
        else:
            rt.depart(ev.job.uid, ev.job.departure)
        wal.append_new()


@pytest.fixture
def jobs(rng):
    ladder = dec_ladder(3)
    return uniform_workload(40, rng, max_size=ladder.capacity(3))


class TestAppendRecover:
    @pytest.mark.parametrize("fsync", ["always", "batch", "never"])
    def test_clean_shutdown_recovers_identically(self, fsync, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, fsync=fsync, batch_every=4)
        drive_with_wal(rt, wal, jobs)
        wal.close()
        rec = recover(tmp_path / "wal")
        assert rec.n_events == rt.n_events
        assert rec.runtime.cost() == rt.cost()
        assert rec.runtime.clock == rt.clock
        assert assignment_digest(rec.runtime) == assignment_digest(rt)

    def test_rotation_spreads_segments(self, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, segment_records=10)
        drive_with_wal(rt, wal, jobs)
        wal.close()
        segments = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert len(segments) == rt.n_events // 10 + 1
        rec = recover(tmp_path / "wal")
        assert rec.n_events == rt.n_events
        assert rec.segments == len(segments)

    def test_compaction_prunes_and_restores_o_delta(self, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(
            tmp_path / "wal", rt, segment_records=8, compact_every=20
        )
        drive_with_wal(rt, wal, jobs)
        wal.close()
        wal_dir = tmp_path / "wal"
        snaps = sorted(wal_dir.glob("snapshot-*.json"))
        assert len(snaps) == 1  # older snapshots pruned
        rec = recover(wal_dir)
        assert rec.snapshot_n is not None
        assert rec.replayed == rt.n_events - rec.snapshot_n
        assert rec.replayed < 20  # the delta, not the full history
        assert rec.runtime.cost() == rt.cost()
        # every surviving segment starts at or after the snapshot
        for seg in wal_dir.glob("wal-*.log"):
            assert int(seg.name[4:-4]) >= rec.snapshot_n
        # the snapshot + delta restore, a full replay of the live runtime's
        # trace and the live runtime itself hold one assignment
        trace = tmp_path / "run.jsonl"
        write_trace(rt, trace)
        digest = assignment_digest(rt)
        assert assignment_digest(replay_trace(trace)) == digest
        assert assignment_digest(rec.runtime) == digest

    def test_recovered_runtime_continues_identically(self, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, compact_every=15)
        events = list(event_stream(jobs))
        drive_with_wal(rt, wal, jobs, stop_after=len(events) // 2)
        wal.close()
        rec = recover(tmp_path / "wal")
        for ev in events[len(events) // 2:]:
            for r in (rt, rec.runtime):
                if ev.kind is EventKind.ARRIVE:
                    r.submit(ev.job.size, ev.job.arrival,
                             name=ev.job.name, uid=ev.job.uid)
                else:
                    r.depart(ev.job.uid, ev.job.departure)
        assert assignment_digest(rec.runtime) == assignment_digest(rt)
        assert rec.runtime.cost() == rt.cost()

    def test_empty_dir_needs_config(self, tmp_path):
        (tmp_path / "wal").mkdir()
        with pytest.raises(WALError, match="no recoverable data"):
            recover(tmp_path / "wal")
        rt = make_runtime()
        rec = recover(tmp_path / "wal", config=rt.config)
        assert rec.n_events == 0

    def test_missing_dir_is_loud(self, tmp_path):
        with pytest.raises(WALError, match="no WAL directory"):
            recover(tmp_path / "nope")


class TestTornTail:
    def _write_some(self, tmp_path, jobs, n=10):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, fsync="always")
        drive_with_wal(rt, wal, jobs, stop_after=n)
        wal.close()
        return rt, sorted((tmp_path / "wal").glob("wal-*.log"))[-1]

    def test_truncated_tail_is_recovered(self, jobs, tmp_path):
        rt, segment = self._write_some(tmp_path, jobs)
        data = segment.read_bytes()
        segment.write_bytes(data[:-7])  # tear the last record mid-frame
        rec = recover(tmp_path / "wal")
        assert rec.truncated_bytes > 0
        assert rec.n_events == rt.n_events - 1
        # the torn bytes are physically gone: a second recover is clean
        rec2 = recover(tmp_path / "wal")
        assert rec2.truncated_bytes == 0
        assert rec2.n_events == rec.n_events

    def test_crc_mismatch_at_eof_is_torn(self, jobs, tmp_path):
        rt, segment = self._write_some(tmp_path, jobs)
        data = bytearray(segment.read_bytes())
        data[-3] ^= 0xFF  # flip a payload bit inside the final record
        segment.write_bytes(bytes(data))
        rec = recover(tmp_path / "wal")
        assert rec.truncated_bytes > 0
        assert rec.n_events == rt.n_events - 1

    def test_midstream_corruption_is_loud(self, jobs, tmp_path):
        _rt, segment = self._write_some(tmp_path, jobs)
        data = bytearray(segment.read_bytes())
        data[len(data) // 2] ^= 0xFF  # damage an interior record
        segment.write_bytes(bytes(data))
        with pytest.raises(WALError, match="corrupt"):
            recover(tmp_path / "wal")

    def test_torn_nonfinal_segment_is_loud(self, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, segment_records=5)
        drive_with_wal(rt, wal, jobs, stop_after=12)
        wal.close()
        segments = sorted((tmp_path / "wal").glob("wal-*.log"))
        assert len(segments) >= 2
        first = segments[0]
        first.write_bytes(first.read_bytes()[:-4])  # tear an OLD segment
        with pytest.raises(WALError, match="corrupt"):
            recover(tmp_path / "wal")

    def test_garbled_payload_with_valid_crc_is_loud(self, jobs, tmp_path):
        _rt, segment = self._write_some(tmp_path, jobs)
        payload = b"this is not json"
        frame = struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        with open(segment, "ab") as fh:
            fh.write(frame)
            fh.write(frame)  # two frames: not a torn tail, real damage
        with pytest.raises(WALError, match="garbled"):
            recover(tmp_path / "wal")

    def test_unknown_wal_version_rejected(self, jobs, tmp_path):
        rt = make_runtime()
        wal_dir = tmp_path / "wal"
        WALWriter(wal_dir, rt).close()
        segment = sorted(wal_dir.glob("wal-*.log"))[-1]
        header = {"kind": "wal-segment", "version": 99, "base": 0,
                  "config": rt.config}
        payload = json.dumps(header, sort_keys=True).encode()
        segment.write_bytes(
            struct.pack("<II", len(payload), zlib.crc32(payload)) + payload
        )
        with pytest.raises(WALError, match="version"):
            recover(wal_dir)

    def test_interrupted_compaction_tmp_is_ignored(self, jobs, tmp_path):
        rt, _segment = self._write_some(tmp_path, jobs)
        tmp = tmp_path / "wal" / "snapshot-0000000000000099.json.tmp"
        tmp.write_text("{half a snapsh")
        rec = recover(tmp_path / "wal")
        assert rec.n_events == rt.n_events
        assert not tmp.exists()  # cleaned up, never trusted


class TestWALMetrics:
    def test_counters_and_histogram(self, jobs, tmp_path):
        metrics = MetricsRegistry()
        rt = make_runtime(metrics)
        wal = WALWriter(tmp_path / "wal", rt, fsync="always")
        drive_with_wal(rt, wal, jobs, stop_after=12)
        wal.close()
        assert metrics.counter("wal_appends").value == 12
        # header fsync + one per append + the closing fsync
        assert metrics.counter("wal_fsyncs").value == 14
        hist = metrics.histogram("fsync_latency").as_dict()
        assert hist["count"] == 14

        recovery_metrics = MetricsRegistry()
        recover(tmp_path / "wal", metrics=recovery_metrics)
        assert recovery_metrics.counter("wal_recovered_records").value == 12

    def test_wal_metrics_visible_via_stats_op(self, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, fsync="always")
        server = SchedulerServer(rt, wal=wal)
        r = server.handle_line(json.dumps({"op": "submit", "size": 0.5, "t": 0.0}))
        assert r["ok"]
        wal.append_new()  # the async path does this after each ok response
        stats = server.handle_line(json.dumps({"op": "stats"}))
        m = stats["metrics"]
        assert m["wal_appends"]["value"] == 1
        assert m["wal_fsyncs"]["value"] >= 1
        assert m["fsync_latency"]["count"] >= 1
        assert m["shed_requests"]["value"] == 0
        wal.close()


class TestHistoryRefusal:
    def test_wal_restored_runtime_refuses_trace(self, jobs, tmp_path):
        rt = make_runtime()
        wal = WALWriter(tmp_path / "wal", rt, compact_every=10)
        drive_with_wal(rt, wal, jobs, stop_after=25)
        wal.close()
        rec = recover(tmp_path / "wal")
        assert rec.runtime.history_truncated
        from repro.service.checkpoint import record_trace
        with pytest.raises(CheckpointError, match="WAL"):
            record_trace(rec.runtime)


class TestFailedSubmitRecovery:
    """A submit the scheduler refuses must never reach the log, and a log
    record that does not replay is a clean CheckpointError."""

    def _serve(self, server, wal, requests):
        for request in requests:
            reply = server.handle_request(request)
            if reply.get("ok"):
                wal.append_new()

    def test_refused_submit_is_not_logged(self, tmp_path):
        rt = SchedulerRuntime.create("dec", dec_ladder(3))  # no fits-ladder
        wal = WALWriter(tmp_path / "wal", rt)
        self._serve(SchedulerServer(rt), wal, [
            {"op": "submit", "size": 0.5, "t": 0.0, "uid": 1},
            {"op": "submit", "size": 50.0, "t": 1.0, "uid": 7},
            {"op": "submit", "size": 0.5, "t": 2.0, "uid": 2},
        ])
        wal.close()
        rec = recover(tmp_path / "wal")
        assert rec.n_events == rt.n_events == 2
        assert assignment_digest(rec.runtime) == assignment_digest(rt)
        assert not rec.runtime.knows_uid(7)

    def test_unreplayable_record_is_a_checkpoint_error(self, tmp_path, capsys):
        from repro.cli import main
        from repro.service.checkpoint import _dumps
        from repro.service.wal import _frame

        rt = SchedulerRuntime.create("dec", dec_ladder(3))
        wal = WALWriter(tmp_path / "wal", rt)
        rt.submit(0.5, 0.0, uid=1)
        wal.append_new()
        wal.close()
        # what the log held when a refused submit was still logged
        bad = {"op": "submit", "t": 1.0, "uid": 7, "size": 50.0, "name": "J7"}
        (segment,) = sorted((tmp_path / "wal").glob("wal-*.log"))
        with open(segment, "ab") as fh:
            fh.write(_frame(_dumps({"i": 1, "e": bad}).encode()))
        with pytest.raises(CheckpointError, match='"uid":7'):
            recover(tmp_path / "wal")
        assert main(["recover", str(tmp_path / "wal")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and '"uid":7' in err and "Traceback" not in err


class TestEarlierBuildStore:
    """A WAL directory written by an earlier build still restores exactly.

    ``fixtures/wal-dec3`` was written before the batch kernels were
    consolidated: 230 events of a 120-job ``uniform_workload`` (seed 2028)
    on ``dec_ladder(3)`` with ``compact_every=100`` — a snapshot at event
    200 plus a 30-event tail, with 6 jobs still open.  Restoring it checks
    the snapshot's stored ``cost()`` against the recomputed one exactly.
    The seed was picked so that summing busy time by the gap identity
    instead of the covered segments changes the last bit, so a change to
    the busy-time arithmetic under ``BusyIntervalCache`` fails here.
    """

    FIXTURE = Path(__file__).parent / "fixtures" / "wal-dec3"

    def test_recovers_pinned_state(self, tmp_path):
        # recover() deletes *.tmp files and truncates torn tails: work on a copy
        wal_dir = tmp_path / "wal"
        shutil.copytree(self.FIXTURE, wal_dir)
        rec = recover(wal_dir)
        assert rec.snapshot_n == 200
        assert rec.replayed == 30
        assert rec.n_events == 230
        assert repr(rec.runtime.cost()) == "1907.8167034017386"
        assert assignment_digest(rec.runtime) == (
            "c69b5711ad3af5d18ea7587d0f483722d4c2b272409284e48f68c4c247b9a6f9"
        )
