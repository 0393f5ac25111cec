"""The two offline workloads: seeded instances through the schedule path.

Each instance goes read CSV -> solve -> validate -> lower bound -> cost ->
assignment CSV, the steps ``bshm schedule`` takes, called through the
top-level ``repro`` functions so that cost and bound come back at full
precision.  The algorithm follows the ladder's regime, as ``bshm schedule
--algorithm auto`` does.  A round solves the whole batch; rounds repeat
identical work and the run reports medians over them.
"""

from __future__ import annotations

import csv
import hashlib
import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
import inputs

# (ladder, algorithm, jobs, live jobs) per instance.  offline-small stays
# below the program's 4,096-job dispatch threshold, with four sizes per
# regime so that one seed's luck with a single instance moves the batch
# little; offline-large is one instance per regime of tens of thousands of
# jobs.
BATCHES: dict[str, list[tuple[str, str, int, float]]] = {
    "offline-small": [
        (ladder, algorithm, n, 30.0)
        for n in (400, 800, 1200, 1600)
        for ladder, algorithm in (
            ("dec4", "dec-offline"), ("inc4", "inc-offline"), ("fig2", "gen-offline"))
    ],
    "offline-large": [
        ("dec6", "dec-offline", 30000, 20.0),
        ("inc4", "inc-offline", 12000, 12.0),
        ("fig2", "gen-offline", 12000, 20.0),
    ],
}


@dataclass
class Solved:
    seconds: float
    cost: float
    lower: float
    ok: bool = True


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def make_inputs(workload: str, seed: int, workdir: Path) -> list[tuple[Path, Path, Path]]:
    """Generate and write every instance of the batch; returns
    (trace CSV, ladder CSV, assignment CSV) paths."""
    paths = []
    for k, (ladder, _alg, n, live) in enumerate(BATCHES[workload]):
        rng = np.random.default_rng([seed, 2, k])
        jobs = inputs.poisson_jobs(rng, n, live, inputs.LADDERS[ladder])
        trace, lad, out = (workdir / f"i{k}-{name}" for name in ("jobs.csv", "ladder.csv", "assign.csv"))
        inputs.write_instance(jobs, inputs.LADDERS[ladder], trace, lad)
        paths.append((trace, lad, out))
    return paths


def solve_one(algorithm: str, trace: Path, ladder_csv: Path, out: Path) -> Solved:
    """One instance through the schedule path, timed end to end."""
    import repro

    solvers = {
        "dec-offline": repro.dec_offline,
        "inc-offline": repro.inc_offline,
        "gen-offline": repro.general_offline,
    }
    t0 = time.perf_counter()
    try:
        jobs = repro.read_jobs_csv(trace)
        ladder = repro.read_ladder_csv(ladder_csv)
        schedule = solvers[algorithm](jobs, ladder)
        repro.assert_feasible(schedule, jobs)
        lower = repro.lower_bound(jobs, ladder).value
        cost = schedule.cost()
        repro.write_schedule_csv(schedule, out)
    except Exception as exc:  # the program failed this instance: count it, go on
        print(f"{trace.name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return Solved(time.perf_counter() - t0, math.nan, math.nan, ok=False)
    return Solved(time.perf_counter() - t0, cost, lower)


def read_csv_jobs(path: Path) -> dict[str, tuple[float, float, float]]:
    with open(path, newline="") as fh:
        return {
            row["name"]: (float(row["size"]), float(row["arrival"]), float(row["departure"]))
            for row in csv.DictReader(fh)
        }


def check_instance(ladder: str, algorithm: str, trace: Path, out: Path, solved: Solved) -> None:
    """Feasibility, cost and bound checks from the assignment CSV."""
    caps = [g for g, _ in inputs.LADDERS[ladder]]
    rates = [r for _, r in inputs.LADDERS[ladder]]
    jobs = read_csv_jobs(trace)
    rows = []
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            name = row["job"]
            placed = (float(row["size"]), float(row["arrival"]), float(row["departure"]))
            if jobs.get(name, placed) != placed:
                raise checks.CheckFailed(f"assignment row for {name} changed the job: {row}")
            rows.append((name, int(row["type"]), row["machine"]))
    checks.check_placement(jobs, rows, caps)
    own = checks.busy_cost(jobs, rows, rates)
    checks.check_cost(solved.cost, own, f"{trace.name} cost")
    ratio = checks.proven_ratio(algorithm, checks.mu(jobs))
    checks.check_bounds(checks.volume_bound(jobs, caps, rates), solved.lower, own, ratio)


def _digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for p in paths:
        h.update(p.read_bytes())
    return h.hexdigest()


def run(workload: str, workdir: Path, seed: int, seconds: float,
        tracer=None, import_s: float = 0.0) -> dict:
    batch = BATCHES[workload]
    if tracer is not None:
        tracer.install(("jobs", "offline", "placement", "schedule", "lowerbound"))
    started = time.perf_counter()
    setups: list[float] = []
    per_instance_ms: list[float] = []
    peak = None
    checked: set[str] = set()
    problems: list[str] = []
    cost_over_lb = None
    attempted = failed = 0
    while True:
        t0 = time.perf_counter()
        paths = make_inputs(workload, seed, workdir)
        setups.append(time.perf_counter() - t0)
        solved = []
        for (ladder, algorithm, _n, _live), (trace, lad, out) in zip(batch, paths):
            solved.append(solve_one(algorithm, trace, lad, out))
        attempted += len(solved)
        failed += sum(not s.ok for s in solved)
        if peak is None:
            peak = _peak_rss_mb()
        took = time.perf_counter() - t0
        per_instance_ms.extend(s.seconds * 1e3 for s in solved)
        done = [(spec, files, s) for spec, files, s in zip(batch, paths, solved) if s.ok]
        digest = _digest([out for _spec, (_t, _l, out), _s in done])
        if digest not in checked:  # rounds with identical outputs pass alike
            checked.add(digest)
            for (ladder, algorithm, _n, _live), (trace, _lad, out), s in done:
                try:
                    check_instance(ladder, algorithm, trace, out, s)
                except checks.CheckFailed as exc:
                    problems.append(f"{trace.name}: {exc}")
            if done:
                cost_over_lb = sum(s.cost for *_, s in done) / sum(s.lower for *_, s in done)
        if time.perf_counter() - started + took > seconds:
            break
    rounds = len(setups)
    size = len(batch)
    jobs = sum(n for _l, _a, n, _live in batch)
    for k in range(rounds):
        times = per_instance_ms[k * size:(k + 1) * size]
        print(f"round {k}: setup {setups[k]:.3f}s, {jobs / sum(times) * 1e3:.0f} jobs/s, "
              "instances " + " ".join(f"{t:.0f}" for t in times) + " ms", file=sys.stderr)
    if tracer is not None:
        import tracing

        doc = {"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing}
        return {"metrics": tracing.layer_metrics([doc], {}, rounds),
                "attempted": attempted, "failed": failed, "problems": problems}
    # each instance's time is its median over rounds, so a slow spell of
    # the host costs one instance of one round, not a whole round
    typical_ms = [statistics.median(per_instance_ms[i::size]) for i in range(size)]
    metrics = {
        "setup_s": (import_s + statistics.median(setups), "s"),
        "throughput_per_s": (jobs / (sum(typical_ms) / 1e3), "1/s"),
        "latency_p50_ms": (statistics.median(typical_ms), "ms"),
        "peak_rss_mb": (peak, "MB"),
        "cost_over_lb": (cost_over_lb, "ratio"),
    }
    return {"metrics": metrics, "attempted": attempted, "failed": failed, "problems": problems}
