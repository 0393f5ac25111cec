"""Each correctness check of the benchmark rejects a hand-built broken output.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import tracing  # noqa: E402

CAPS = [1.0, 3.0]
RATES = [1.0, 2.0]

# three jobs; A and B overlap on [1, 2), C starts exactly when A ends
JOBS = {
    "A": (0.6, 0.0, 2.0),
    "B": (0.5, 1.0, 4.0),
    "C": (0.9, 2.0, 3.0),
}
# A and C share machine m1 back to back (half-open), B has its own
GOOD = [("A", 1, "m1"), ("B", 1, "m2"), ("C", 1, "m1")]


def test_good_placement_passes():
    checks.check_placement(JOBS, GOOD, CAPS)


def test_overloaded_machine_is_rejected():
    # A (0.6) and B (0.5) overlap on [1, 2) on one capacity-1 machine
    overloaded = [("A", 1, "m1"), ("B", 1, "m1"), ("C", 1, "m3")]
    with pytest.raises(checks.CheckFailed, match="holds"):
        checks.check_placement(JOBS, overloaded, CAPS)


def test_job_larger_than_its_type_is_rejected():
    jobs = dict(JOBS, D=(2.0, 5.0, 6.0))
    with pytest.raises(checks.CheckFailed, match="exceeds type capacity"):
        checks.check_placement(jobs, GOOD + [("D", 1, "m4")], CAPS)


def test_job_placed_twice_is_rejected():
    with pytest.raises(checks.CheckFailed, match="more than once"):
        checks.check_placement(JOBS, GOOD + [("B", 2, "m9")], CAPS)


def test_job_never_placed_is_rejected():
    with pytest.raises(checks.CheckFailed, match="never placed"):
        checks.check_placement(JOBS, GOOD[:2], CAPS)


def test_unknown_job_is_rejected():
    with pytest.raises(checks.CheckFailed, match="unknown job"):
        checks.check_placement(JOBS, GOOD + [("Z", 1, "m5")], CAPS)


def test_busy_cost_is_rate_times_union():
    # m1 is busy on [0, 3) (A then C), m2 on [1, 4): 3 + 3 at rate 1
    assert checks.busy_cost(JOBS, GOOD, RATES) == 6.0
    # the same jobs on one type-2 machine: union [0, 4) at rate 2
    assert checks.busy_cost(JOBS, [(n, 2, "big") for n in JOBS], RATES) == 8.0


def test_cost_off_by_a_millionth_is_rejected():
    own = checks.busy_cost(JOBS, GOOD, RATES)
    checks.check_cost(own, own)
    checks.check_cost(own * (1 + 1e-12), own)  # float rounding passes
    with pytest.raises(checks.CheckFailed):
        checks.check_cost(own * (1 + 1e-6), own)
    with pytest.raises(checks.CheckFailed):
        checks.check_cost(own * (1 - 1e-6), own)


def test_bounds_chain():
    volume = checks.volume_bound(JOBS, CAPS, RATES)
    # cheapest rate per capacity is 2/3 (type 2): 2/3 * (1.2 + 1.5 + 0.9)
    assert volume == pytest.approx(2.4)
    checks.check_bounds(volume, 3.0, 6.0, ratio=14.0)
    checks.check_bounds(volume, 3.0, 6.0, ratio=None)


def test_lower_bound_above_cost_is_rejected():
    with pytest.raises(checks.CheckFailed, match="exceeds the schedule cost"):
        checks.check_bounds(2.4, 6.5, 6.0, ratio=14.0)


def test_lower_bound_below_volume_is_rejected():
    with pytest.raises(checks.CheckFailed, match="volume bound"):
        checks.check_bounds(2.4, 2.0, 6.0, ratio=14.0)


def test_cost_above_proven_ratio_is_rejected():
    with pytest.raises(checks.CheckFailed, match="proven ratio"):
        checks.check_bounds(2.4, 3.0, 6.0, ratio=1.5)


def test_proven_ratios():
    assert checks.proven_ratio("dec-offline", 7.0) == 14.0
    assert checks.proven_ratio("inc-offline", 7.0) == 9.0
    assert checks.proven_ratio("dec-online", 3.0) == 128.0
    assert checks.proven_ratio("inc-online", 3.0) == 13.5
    assert checks.proven_ratio("gen-offline", 3.0) is None
    assert checks.mu(JOBS) == 3.0


def test_recovered_event_count_short_by_one_is_rejected():
    checks.check_recovered(100, 100, 12.345678, 12.3456781, cost_decimals=6)
    with pytest.raises(checks.CheckFailed, match="restored 99 events"):
        checks.check_recovered(99, 100, 12.345678, 12.3456781, cost_decimals=6)


def test_recovered_cost_mismatch_is_rejected():
    with pytest.raises(checks.CheckFailed, match="recover reports cost"):
        checks.check_recovered(100, 100, 12.345690, 12.3456781, cost_decimals=6)


def test_self_time_subtracts_children():
    spans = [
        ["server.request", 0.0, 10.0, -1, 0],
        ["runtime.submit", 1.0, 4.0, 0, 0],
        ["online.place", 2.0, 3.0, 1, 0],
        ["server.request", 10.0, 12.0, -1, 1],
    ]
    totals, counts = tracing.self_times(spans)
    assert totals["server.request"] == 9.0
    assert totals["runtime.submit"] == 2.0
    assert totals["online.place"] == 1.0
    assert counts["server.request"] == 2


def test_missing_wrap_target_reports_null():
    recorder = tracing.Recorder()
    recorder._patch("repro.no_such_module", "gone", lambda fn: fn)
    assert recorder.missing == ["repro.no_such_module.gone"]
    doc = {"spans": [], "counts": {}, "missing": ["repro.placement.greedy.place_jobs"]}
    metrics = tracing.layer_metrics([doc], {}, rounds=1)
    assert metrics["placement.altitude_s"] is None
    assert metrics["placement.strip_s"] == 0.0
