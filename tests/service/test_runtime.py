"""Unit tests for the incremental SchedulerRuntime."""

import math

import pytest

from repro import (
    DecOnlineScheduler,
    JobView,
    MachineKey,
    SchedulerRuntime,
    dec_ladder,
    single_type_ladder,
)
from repro.schedule.validate import assert_feasible
from repro.service.runtime import (
    AdmissionError,
    make_scheduler,
    max_active_policy,
)


class TestLifecycle:
    def test_submit_depart_schedule(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        adm = rt.submit(0.5, 0.0, name="a")
        assert adm.accepted and isinstance(adm.machine, MachineKey)
        assert rt.n_active == 1
        rt.depart(adm.uid, 4.0)
        assert rt.n_active == 0
        sched = rt.schedule()
        assert len(sched) == 1
        assert sched.cost() == pytest.approx(4.0 * dec3.rate(adm.machine.type_index))

    def test_uids_auto_assigned_and_explicit(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        a = rt.submit(0.5, 0.0)
        b = rt.submit(0.5, 0.0, uid=41)
        c = rt.submit(0.5, 0.0)
        assert len({a.uid, b.uid, c.uid}) == 3
        assert b.uid == 41

    def test_duplicate_uid_rejected(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        rt.submit(0.5, 0.0, uid=7)
        with pytest.raises(AdmissionError, match="duplicate"):
            rt.submit(0.5, 1.0, uid=7)

    def test_time_monotonicity_enforced(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        rt.submit(0.5, 5.0)
        with pytest.raises(AdmissionError, match="backwards"):
            rt.submit(0.5, 4.0)
        with pytest.raises(AdmissionError, match="backwards"):
            rt.advance(1.0)

    def test_depart_unknown_uid(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        with pytest.raises(AdmissionError, match="unknown"):
            rt.depart(99, 1.0)

    def test_depart_before_arrival_rejected(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        adm = rt.submit(0.5, 3.0)
        with pytest.raises(AdmissionError, match="arrival"):
            rt.depart(adm.uid, 3.0)
        # the job is still open and can depart properly afterwards
        rt.depart(adm.uid, 3.5)
        assert rt.n_active == 0

    def test_bad_size_rejected(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        with pytest.raises(AdmissionError, match="size"):
            rt.submit(-1.0, 0.0)
        with pytest.raises(AdmissionError, match="finite"):
            rt.submit(1.0, math.inf)

    def test_half_open_handoff(self):
        """Departure at t then arrival at t share a single-capacity machine."""
        ladder = single_type_ladder(capacity=1.0)
        rt = SchedulerRuntime(make_scheduler("first-fit", ladder))
        a = rt.submit(1.0, 0.0)
        rt.depart(a.uid, 5.0)
        b = rt.submit(1.0, 5.0)  # same instant: capacity was already released
        assert b.accepted
        rt.depart(b.uid, 9.0)
        sched = rt.schedule()
        assert_feasible(sched, sched.jobs)
        assert sched.cost() == pytest.approx(9.0)

    def test_non_clairvoyance_structural(self, dec3):
        seen = []

        class Spy(DecOnlineScheduler):
            def on_arrival(self, job):
                seen.append(job)
                return super().on_arrival(job)

        rt = SchedulerRuntime(Spy(dec3))
        rt.submit(0.5, 0.0)
        assert isinstance(seen[0], JobView)
        assert not hasattr(seen[0], "departure")

    def test_bad_scheduler_return_type(self, dec3):
        class Bad:
            ladder = dec3

            def on_arrival(self, job):
                return "machine-1"

            def on_departure(self, uid):
                pass

        rt = SchedulerRuntime(Bad())
        with pytest.raises(TypeError):
            rt.submit(0.5, 0.0)


class TestRunningCost:
    def test_cost_accumulates_incrementally(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        assert rt.cost() == 0.0
        a = rt.submit(0.5, 0.0)
        rate = dec3.rate(a.machine.type_index)
        rt.advance(2.0)
        assert rt.cost() == pytest.approx(2.0 * rate)  # open job counted to clock
        rt.depart(a.uid, 3.0)
        assert rt.cost() == pytest.approx(3.0 * rate)

    def test_cost_matches_schedule_cost_midstream(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        rt.submit(0.5, 0.0, uid=1)
        rt.submit(2.0, 1.0, uid=2)
        rt.depart(1, 4.0)
        rt.advance(6.0)  # uid 2 still open
        assert rt.cost() == pytest.approx(rt.schedule().cost())

    def test_schedule_omits_zero_length_provisional_jobs(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        rt.submit(0.5, 0.0, uid=1)
        rt.submit(0.5, 2.0, uid=2)  # arrives exactly at the clock
        sched = rt.schedule()  # horizon == clock == 2.0
        assert {j.uid for j in sched.jobs} == {1}

    def test_busy_machines_by_type(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        a = rt.submit(0.5, 0.0)
        assert sum(rt.busy_machines_by_type().values()) == 1
        rt.depart(a.uid, 1.0)
        assert rt.busy_machines_by_type() == {}


class TestAdmission:
    def test_fits_ladder_policy_rejects_oversize(self, dec3):
        rt = SchedulerRuntime(
            DecOnlineScheduler(dec3), admission=["fits-ladder"]
        )
        adm = rt.submit(dec3.capacity(dec3.m) * 10, 0.0)
        assert not adm.accepted
        assert "capacity" in adm.reason
        assert rt.metrics.counter("rejections").value == 1
        # rejected jobs never appear in the schedule, and their departure
        # is a tolerated no-op
        rt.depart(adm.uid, 1.0)
        assert len(rt.schedule()) == 0

    def test_max_active_policy(self, dec3):
        rt = SchedulerRuntime(
            DecOnlineScheduler(dec3), admission=[("max-active", 2)]
        )
        a = rt.submit(0.5, 0.0)
        b = rt.submit(0.5, 0.0)
        c = rt.submit(0.5, 1.0)
        assert a.accepted and b.accepted and not c.accepted
        rt.depart(a.uid, 2.0)
        d = rt.submit(0.5, 3.0)
        assert d.accepted

    def test_callable_policy(self, dec3):
        def no_big_jobs(view, runtime):
            return "too big for us" if view.size > 1.0 else None

        rt = SchedulerRuntime(DecOnlineScheduler(dec3), admission=[no_big_jobs])
        assert rt.submit(0.5, 0.0).accepted
        assert not rt.submit(2.0, 0.0).accepted

    def test_callable_policy_blocks_create(self, dec3):
        with pytest.raises(ValueError, match="declarative"):
            SchedulerRuntime.create("dec", dec3, admission=[max_active_policy(3)])

    def test_unknown_policy_spec(self, dec3):
        with pytest.raises(ValueError, match="unknown admission policy"):
            SchedulerRuntime(DecOnlineScheduler(dec3), admission=["nope"])


class TestFailedSubmitLeavesNoTrace:
    """Without the fits-ladder policy an oversize job reaches the scheduler,
    which refuses it; the runtime must then be exactly as before."""

    def test_oversize_submit_changes_nothing(self, dec3):
        rt = SchedulerRuntime.create("dec", dec3)
        rt.submit(0.5, 0.0, uid=1)
        before = (rt.n_events, rt.clock, rt.events, set(rt._used_uids),
                  rt._next_uid, rt.metrics.counter("arrivals").value)
        with pytest.raises(ValueError, match="exceeds the largest capacity"):
            rt.submit(50.0, 1.0, uid=7)
        after = (rt.n_events, rt.clock, rt.events, set(rt._used_uids),
                 rt._next_uid, rt.metrics.counter("arrivals").value)
        assert after == before
        assert not rt.knows_uid(7)

    def test_retry_is_refused_the_same_way_not_as_duplicate(self, dec3):
        from repro.service.server import SchedulerServer

        server = SchedulerServer(SchedulerRuntime.create("dec", dec3))
        assert server.handle_request({"op": "submit", "size": 0.5, "t": 0.0, "uid": 1})["ok"]
        oversize = {"op": "submit", "size": 50.0, "t": 1.0, "uid": 7}
        for _attempt in range(2):
            reply = server.handle_request(dict(oversize))
            assert reply["error"]["code"] == "invalid-request"
        assert server.handle_request({"op": "submit", "size": 0.5, "t": 2.0, "uid": 2})["ok"]
        rt = server.runtime
        assert [e["uid"] for e in rt.events] == [1, 2]
        assert rt._used_uids == set(rt._open) | set(rt._closed) | set(rt._rejected)

    def test_failed_auto_uid_submit_keeps_the_uid_free(self, dec3):
        rt = SchedulerRuntime.create("dec", dec3)
        with pytest.raises(ValueError):
            rt.submit(50.0, 0.0)
        assert rt.submit(0.5, 0.0).uid == 0


class TestMetricsSampling:
    def test_counters_and_gauges(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        a = rt.submit(0.5, 0.0)
        rt.submit(0.5, 0.5)
        assert rt.metrics.counter("arrivals").value == 2
        assert rt.metrics.gauge("active_jobs").value == 2
        rt.depart(a.uid, 1.0)
        assert rt.metrics.counter("departures").value == 1
        assert rt.metrics.gauge("active_jobs").value == 1
        hist = rt.metrics.histogram("decision_latency_ms")
        assert hist.count == 2
        assert hist.min >= 0.0

    def test_placement_probes_sampled_per_decision(self, dec3):
        rt = SchedulerRuntime(DecOnlineScheduler(dec3))
        a = rt.submit(0.5, 0.0)
        rt.submit(0.5, 0.5)
        counter = rt.metrics.counter("placement_probes")
        hist = rt.metrics.histogram("probe_depth")
        assert hist.count == 2  # one observation per accepted decision
        assert counter.value >= 1  # at least one index probe happened
        assert counter.value == rt.scheduler.state.stats.probes
        # probes accumulate only on submit; departures don't probe
        before = counter.value
        rt.depart(a.uid, 1.0)
        assert counter.value == before

    def test_rejected_jobs_observe_no_probe_depth(self, dec3):
        rt = SchedulerRuntime(
            DecOnlineScheduler(dec3), admission=["fits-ladder"]
        )
        big = dec3.capacity(dec3.m) * 10
        assert not rt.submit(big, 0.0).accepted
        assert rt.metrics.histogram("probe_depth").count == 0

    def test_schedulers_without_stats_skip_probe_metrics(self, dec3):
        class Opaque:
            ladder = dec3

            def on_arrival(self, view):
                return MachineKey(1, ("solo", view.uid))

            def on_departure(self, uid):
                return None

        rt = SchedulerRuntime(Opaque())
        rt.submit(0.5, 0.0)
        assert "placement_probes" not in rt.metrics.names()

    def test_make_scheduler_unknown_name(self, dec3):
        with pytest.raises(ValueError, match="unknown scheduler"):
            make_scheduler("magic", dec3)
