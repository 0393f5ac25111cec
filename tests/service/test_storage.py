"""Backend conformance for the pluggable event-log stores.

One parametrized suite runs against both backends (memory and SQLite):
whatever durability the file WAL promised, a :class:`StateStore` must
promise too — append/replay identity, gap detection, snapshot + O(delta)
restore, and crash-to-durable-prefix semantics (torn tails via the same
:class:`FaultInjector` the WAL chaos tests use).
"""

import json

import pytest

from repro import SchedulerRuntime, dec_ladder, uniform_workload
from repro.core.events import EventKind, event_stream
from repro.service.checkpoint import assignment_digest
from repro.service.faults import FaultInjector, FaultPlan, FaultPoint, InjectedFault
from repro.service.metrics import MetricsRegistry
from repro.service.storage import (
    MemoryStore,
    SQLiteStore,
    StorageError,
    StoreWriter,
    open_store,
    restore_from_store,
    shard_store_spec,
)

BACKENDS = ("memory", "sqlite")


class Backend:
    """Uniform make/reopen handle over one backend, rooted in tmp_path."""

    def __init__(self, kind, tmp_path):
        self.kind = kind
        self._tmp = tmp_path
        self._mem = {}

    def make(self, name="store"):
        if self.kind == "memory":
            store = MemoryStore()
            self._mem[name] = store
            return store
        return SQLiteStore(self._tmp / f"{name}.db")

    def reopen(self, name="store"):
        """What a restart sees (the prior handle must be closed/abandoned)."""
        if self.kind == "memory":
            survivor = self._mem[name].reopen()
            self._mem[name] = survivor
            return survivor
        return SQLiteStore(self._tmp / f"{name}.db")


@pytest.fixture(params=BACKENDS)
def backend(request, tmp_path):
    return Backend(request.param, tmp_path)


def make_runtime(metrics=None):
    return SchedulerRuntime.create(
        "dec", dec_ladder(3), admission=["fits-ladder"], metrics=metrics
    )


def drive(rt, writer, jobs, *, stop_after=None):
    """Apply the event stream, persisting after each event (server order)."""
    for i, ev in enumerate(event_stream(jobs)):
        if stop_after is not None and i >= stop_after:
            break
        if ev.kind is EventKind.ARRIVE:
            rt.submit(ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid)
        else:
            rt.depart(ev.job.uid, ev.job.departure)
        if writer is not None:
            writer.append_new()


@pytest.fixture
def jobs(rng):
    ladder = dec_ladder(3)
    return uniform_workload(40, rng, max_size=ladder.capacity(3))


EVENTS = [
    {"op": "submit", "uid": i, "size": 1.0, "t": float(i)} for i in range(12)
]


class TestEventLog:
    def test_append_replay_identity(self, backend):
        store = backend.make()
        store.append_events(EVENTS[:5], 0)
        store.append_events(EVENTS[5:], 5)
        assert store.n_events() == len(EVENTS)
        assert store.events_since(0) == EVENTS
        assert store.events_since(7) == EVENTS[7:]
        assert store.events_since(len(EVENTS)) == []

    def test_append_gap_or_overlap_rejected(self, backend):
        store = backend.make()
        store.append_events(EVENTS[:5], 0)
        with pytest.raises(StorageError, match="gap or overlap"):
            store.append_events(EVENTS[5:], 7)
        with pytest.raises(StorageError, match="gap or overlap"):
            store.append_events(EVENTS[5:], 3)

    def test_returned_events_do_not_alias_store_state(self, backend):
        store = backend.make()
        store.append_events(EVENTS[:3], 0)
        got = store.events_since(0)
        got[0]["op"] = "mutated"
        assert store.events_since(0)[0]["op"] == "submit"

    def test_config_first_writer_wins(self, backend):
        store = backend.make()
        assert store.config is None
        store.set_config({"scheduler": "dec"})
        store.set_config({"scheduler": "inc"})
        assert store.config == {"scheduler": "dec"}


class TestSnapshotCompact:
    def test_compact_prunes_covered_prefix(self, backend, jobs):
        rt = make_runtime()
        store = backend.make()
        writer = StoreWriter(store, rt, sync="always")
        drive(rt, writer, jobs)
        n = rt.n_events
        writer.compact()
        assert store.n_events() == n  # high-water mark survives the prune
        with pytest.raises(StorageError, match="compacted away"):
            store.events_since(0)
        assert store.events_since(n) == []

    def test_snapshot_restore_is_o_delta_and_exact(self, backend, jobs):
        rt = make_runtime()
        store = backend.make()
        writer = StoreWriter(store, rt, sync="always", compact_every=25)
        drive(rt, writer, jobs)
        writer.close()
        reopened = backend.reopen()
        rec = restore_from_store(reopened)
        assert rec.snapshot_n is not None
        assert rec.replayed == rt.n_events - rec.snapshot_n
        assert rec.replayed < rt.n_events  # snapshot did real work
        assert rec.n_events == rt.n_events
        assert rec.runtime.cost() == pytest.approx(rt.cost(), abs=1e-12)
        assert assignment_digest(rec.runtime) == assignment_digest(rt)

    def test_reopen_after_full_compaction_keeps_high_water_mark(
        self, backend, jobs
    ):
        # regression: a fully-pruned log must not reset the store to 0
        rt = make_runtime()
        store = backend.make()
        writer = StoreWriter(store, rt, sync="always")
        drive(rt, writer, jobs)
        writer.compact()
        writer.close()
        reopened = backend.reopen()
        assert reopened.n_events() == rt.n_events
        rec = restore_from_store(reopened)
        # a writer must attach to the recovered pair without backfilling
        StoreWriter(reopened, rec.runtime)
        assert reopened.n_events() == rt.n_events

    def test_snapshot_outside_log_rejected(self, backend):
        store = backend.make()
        store.append_events(EVENTS[:3], 0)
        with pytest.raises(StorageError, match="outside the store"):
            store.write_snapshot(7, '{"n_events":7}')


class TestCrashSemantics:
    def test_abandon_keeps_only_durable_prefix(self, backend, jobs):
        rt = make_runtime()
        store = backend.make()
        writer = StoreWriter(store, rt, sync="batch", batch_every=8)
        drive(rt, writer, jobs, stop_after=20)
        synced = 8 * (20 // 8)  # last explicit batch sync
        writer.abandon()
        survivor = backend.reopen()
        assert synced <= survivor.n_events() <= 20
        assert survivor.events_since(0) == [
            {k: v for k, v in e.items()} for e in rt.events_since(0)
        ][: survivor.n_events()]

    @pytest.mark.parametrize("kind", ["crash-before-append", "crash-after-append"])
    def test_torn_tail_recovers_to_prefix_then_replays(self, backend, jobs, kind):
        # the same FaultInjector kill points the WAL chaos tests use
        rt = make_runtime()
        store = backend.make()
        plan = FaultPlan.of(FaultPoint(kind=kind, step=13))
        writer = StoreWriter(
            store, rt, sync="always", faults=FaultInjector(plan)
        )
        with pytest.raises(InjectedFault):
            drive(rt, writer, jobs)
        writer.abandon()  # what the fail-stopping server does
        survivor = backend.reopen()
        rec = restore_from_store(survivor)
        assert rec.n_events <= rt.n_events
        # the recovered prefix replays forward to the full run's state
        from repro.service.checkpoint import _apply_event

        reference = make_runtime()
        drive(reference, None, jobs)
        replayed = rec.runtime
        ref_writer = StoreWriter(survivor, replayed)
        for event in reference.events_since(rec.n_events):
            _apply_event(replayed, event)
        ref_writer.append_new()
        assert replayed.n_events == reference.n_events
        assert survivor.n_events() == reference.n_events
        assert assignment_digest(replayed) == assignment_digest(reference)

    def test_closed_store_refuses_appends(self, backend):
        store = backend.make()
        store.append_events(EVENTS[:2], 0)
        store.close()
        with pytest.raises(StorageError):
            store.append_events(EVENTS[2:4], 2)


class TestStoreWriter:
    def test_config_mismatch_refused(self, backend):
        rt = make_runtime()
        store = backend.make()
        store.set_config({"scheduler": "inc", "ladder": [], "admission": []})
        with pytest.raises(StorageError, match="different runtime config"):
            StoreWriter(store, rt)

    def test_store_ahead_of_runtime_refused(self, backend, jobs):
        rt = make_runtime()
        store = backend.make()
        writer = StoreWriter(store, rt, sync="always")
        drive(rt, writer, jobs)
        writer.close()
        fresh = make_runtime()
        with pytest.raises(StorageError, match="recover from the store first"):
            StoreWriter(backend.reopen(), fresh)

    def test_backfills_prewarmed_runtime(self, backend, jobs):
        rt = make_runtime()
        drive(rt, None, jobs, stop_after=10)
        store = backend.make()
        StoreWriter(store, rt)  # runtime ahead of an empty store
        assert store.n_events() == rt.n_events

    def test_sync_policy_validated(self, backend):
        with pytest.raises(ValueError, match="sync policy"):
            StoreWriter(backend.make(), make_runtime(), sync="sometimes")

    def test_metrics_count_appends_and_syncs(self, backend, jobs):
        metrics = MetricsRegistry()
        rt = make_runtime(metrics)
        writer = StoreWriter(
            backend.make(), rt, sync="always", metrics=metrics, compact_every=20
        )
        drive(rt, writer, jobs)
        assert metrics.counter("store_appends").value == rt.n_events
        assert metrics.counter("store_syncs").value > 0
        assert metrics.counter("store_compactions").value == rt.n_events // 20


class TestRestore:
    def test_empty_store_without_config_fails(self, backend):
        with pytest.raises(StorageError, match="no recoverable data"):
            restore_from_store(backend.make())

    def test_empty_store_with_config_builds_fresh(self, backend):
        config = make_runtime().config
        rec = restore_from_store(backend.make(), config=config)
        assert rec.n_events == 0
        assert rec.runtime.config == config

    def test_progress_lines_cover_each_stage(self, backend, jobs):
        rt = make_runtime()
        store = backend.make()
        writer = StoreWriter(store, rt, sync="always", compact_every=25)
        drive(rt, writer, jobs)
        writer.close()
        lines = []
        restore_from_store(backend.reopen(), progress=lines.append)
        assert any("snapshot@" in line for line in lines)
        assert any("replayed" in line for line in lines)


class TestSQLiteGuards:
    def test_foreign_sqlite_schema_refused(self, tmp_path):
        import sqlite3

        path = tmp_path / "other.db"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE users (id INTEGER)")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError, match="not a bshm event store"):
            SQLiteStore(path)

    def test_unsupported_version_refused(self, tmp_path):
        path = tmp_path / "future.db"
        SQLiteStore(path).close()
        import sqlite3

        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' WHERE key = 'version'")
        conn.commit()
        conn.close()
        with pytest.raises(StorageError, match="unsupported store version"):
            SQLiteStore(path)

    def test_non_database_file_refused(self, tmp_path):
        path = tmp_path / "junk.db"
        path.write_text("definitely not sqlite")
        with pytest.raises(StorageError, match="cannot open SQLite store"):
            SQLiteStore(path)


class TestSpecParsing:
    def test_open_store_memory(self):
        assert isinstance(open_store("memory"), MemoryStore)

    def test_open_store_sqlite(self, tmp_path):
        store = open_store(f"sqlite:{tmp_path / 'a.db'}")
        assert isinstance(store, SQLiteStore)
        store.close()

    def test_open_store_unknown_spec(self):
        with pytest.raises(StorageError):
            open_store("postgres://nope")

    def test_shard_store_spec_suffixes_sqlite_per_shard(self, tmp_path):
        spec = f"sqlite:{tmp_path / 'db.sqlite'}"
        assert shard_store_spec(spec, 0, 1) == spec
        assert shard_store_spec(spec, 2, 4) == spec + ".shard2"
        assert shard_store_spec("memory", 2, 4) == "memory"

    def test_shard_specs_give_independent_stores(self, tmp_path):
        spec = f"sqlite:{tmp_path / 'db.sqlite'}"
        a = open_store(shard_store_spec(spec, 0, 2))
        b = open_store(shard_store_spec(spec, 1, 2))
        a.append_events(EVENTS[:2], 0)
        assert b.n_events() == 0
        a.close()
        b.close()
