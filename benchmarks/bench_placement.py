"""Indexed placement engine vs the ``first_fit_reference`` scan: the
per-decision perf guardrail.

Two entry points:

- ``python benchmarks/bench_placement.py`` — replays a 50k-job workload on a
  deep 6-type DEC ladder (thousands of concurrently busy machines) through
  DEC-ONLINE and INC-ONLINE twice: once with the O(log n) indexed engine,
  once with every pool forced onto the O(machines) linear-scan oracle.
  Writes ``BENCH_placement.json`` at the repo root and **fails** (exit 1)
  unless the indexed engine is at least :data:`MIN_SPEEDUP` times faster,
  or if the two engines disagree on a single placement.
- ``pytest benchmarks/bench_placement.py`` — a quicker smoke (6k jobs)
  asserting the indexed engine is never *slower* than the scan and places
  identically, plus a pytest-benchmark measurement of the indexed side.

Placement-sequence parity is pinned exhaustively by
``tests/property/test_placement_parity.py`` — this file spot-checks it on
the bench workload (cheap, and it keeps the speedup honest) but mainly
guards speed.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np

from repro import dec_ladder
from repro.core.events import EventKind, event_stream
from repro.jobs.job import Job
from repro.jobs.jobset import JobSet
from repro.machines.fleet import IndexedPool
from repro.online.engine import JobView
import repro.online.dec_online as dec_mod
import repro.online.inc_online as inc_mod
from repro.online.dec_online import DecOnlineScheduler
from repro.online.inc_online import IncOnlineScheduler

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT = REPO_ROOT / "BENCH_placement.json"

N_JOBS = 50_000
LADDER_DEPTH = 6
SEED = 2020
MIN_SPEEDUP = 5.0


class _ScanPool(IndexedPool):
    """IndexedPool pinned to the linear-scan oracle (bench-only engine)."""

    __slots__ = ()

    def first_fit(self, uid, size):
        return self.first_fit_reference(uid, size)


def make_workload(n: int = N_JOBS, seed: int = SEED):
    """Interval jobs over a deep DEC ladder, ~3000 concurrently active.

    High steady-state concurrency is the point: it keeps thousands of
    machines busy per pool, which is where the linear scan's O(machines)
    probe cost dominates.  Returns the ladder plus the pre-unrolled event
    sequence — ``(JobView, None)`` for an arrival, ``(None, uid)`` for a
    departure — so the timed replay below measures engine work, not event
    bookkeeping shared by both engines.
    """
    ladder = dec_ladder(LADDER_DEPTH)
    rng = np.random.default_rng(seed)
    horizon = n / 200.0  # ~200 arrivals per time unit
    arrivals = np.sort(rng.uniform(0.0, horizon, size=n))
    durations = rng.uniform(5.0, 25.0, size=n)
    sizes = rng.uniform(0.05, ladder.capacity(ladder.m), size=n)
    jobs = JobSet(
        Job(size=float(s), arrival=float(a), departure=float(a + d), name=f"P{k}")
        for k, (a, d, s) in enumerate(zip(arrivals, durations, sizes))
    )
    events = []
    for ev in event_stream(jobs):
        job = ev.job
        if ev.kind is EventKind.ARRIVE:
            view = JobView(
                uid=job.uid, size=job.size, arrival=job.arrival, name=job.name
            )
            events.append((view, None))
        else:
            events.append((None, job.uid))
    return ladder, events


def replay(scheduler, events) -> list:
    """Drive the scheduler non-clairvoyantly; return the placement trace."""
    trace = []
    for view, departed_uid in events:
        if view is not None:
            trace.append(scheduler.on_arrival(view))
        else:
            scheduler.on_departure(departed_uid)
    return trace


SCHEDULERS = {
    "dec": (DecOnlineScheduler, dec_mod),
    "inc": (IncOnlineScheduler, inc_mod),
}


def _run_engine(name: str, ladder, events, *, reference: bool):
    """One timed replay; returns (seconds, placement trace, probes)."""
    cls, module = SCHEDULERS[name]
    original = module.IndexedPool
    if reference:
        module.IndexedPool = _ScanPool
    try:
        scheduler = cls(ladder)
    finally:
        module.IndexedPool = original
    t0 = time.perf_counter()
    trace = replay(scheduler, events)
    elapsed = time.perf_counter() - t0
    return elapsed, trace, scheduler.state.stats.probes


def run_suite(n: int = N_JOBS) -> list[dict]:
    """Time indexed vs scan for each scheduler; verify placement parity."""
    ladder, events = make_workload(n)
    rows = []
    for name in SCHEDULERS:
        t_fast, fast_trace, fast_probes = _run_engine(name, ladder, events, reference=False)
        t_ref, ref_trace, ref_probes = _run_engine(name, ladder, events, reference=True)
        if fast_trace != ref_trace:
            raise AssertionError(
                f"{name}: indexed engine disagrees with first_fit_reference"
            )
        decisions = len(fast_trace)
        rows.append(
            {
                "scheduler": name,
                "indexed_ms": round(t_fast * 1e3, 3),
                "reference_ms": round(t_ref * 1e3, 3),
                "speedup": round(t_ref / t_fast, 1),
                "indexed_probes_per_decision": round(fast_probes / decisions, 2),
                "reference_probes_per_decision": round(ref_probes / decisions, 2),
            }
        )
    return rows


def main() -> int:
    rows = run_suite()
    payload = {
        "workload": {
            "n_jobs": N_JOBS,
            "ladder": f"dec({LADDER_DEPTH})",
            "seed": SEED,
        },
        "min_speedup_required": MIN_SPEEDUP,
        "schedulers": rows,
    }
    OUTPUT.write_text(json.dumps(payload, indent=1) + "\n")
    width = max(len(r["scheduler"]) for r in rows)
    print(
        f"{'scheduler':<{width}}  {'indexed':>10}  {'reference':>10}  speedup"
        "  probes/decision (idx vs ref)"
    )
    for r in rows:
        print(
            f"{r['scheduler']:<{width}}  {r['indexed_ms']:>8.1f}ms"
            f"  {r['reference_ms']:>8.1f}ms  {r['speedup']:>6.1f}x"
            f"  {r['indexed_probes_per_decision']:>8.2f} vs"
            f" {r['reference_probes_per_decision']:.2f}"
        )
    slow = [r for r in rows if r["speedup"] < MIN_SPEEDUP]
    if slow:
        names = ", ".join(r["scheduler"] for r in slow)
        print(f"FAIL: below the {MIN_SPEEDUP}x floor: {names}")
        return 1
    print(f"OK: every scheduler >= {MIN_SPEEDUP}x faster; written to {OUTPUT.name}")
    return 0


# ---------------------------------------------------------------------------
# pytest entry points (CI smoke + microbenchmarks)
# ---------------------------------------------------------------------------

def test_indexed_never_slower_than_reference():
    """CI smoke: on a 6k-job workload the indexed engine beats the scan
    for every scheduler (and places identically — checked inside)."""
    for row in run_suite(n=6_000):
        assert row["speedup"] >= 1.0, row


def test_committed_bench_shows_target_speedup():
    """The committed BENCH_placement.json records the >= 5x acceptance run."""
    payload = json.loads(OUTPUT.read_text())
    assert payload["workload"]["n_jobs"] == N_JOBS
    schedulers = {r["scheduler"] for r in payload["schedulers"]}
    assert schedulers == set(SCHEDULERS)
    for row in payload["schedulers"]:
        assert row["speedup"] >= MIN_SPEEDUP, row


def test_bench_indexed_dec_replay_10k(benchmark):
    ladder, events = make_workload(10_000)

    def run():
        return replay(DecOnlineScheduler(ladder), events)

    trace = benchmark(run)
    assert len(trace) == 10_000


if __name__ == "__main__":
    sys.exit(main())
