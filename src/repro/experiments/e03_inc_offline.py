"""E3 — Section IV: INC-OFFLINE is a 9-approximation."""

from __future__ import annotations

from ..analysis.ratios import evaluate
from ..analysis.tables import render_table
from ..jobs.generators.workloads import (
    bursty_workload,
    day_night_workload,
    poisson_workload,
    uniform_workload,
)
from ..machines.catalog import inc_ladder
from ..offline.inc_offline import inc_offline
from .harness import ExperimentResult, rng_for, scale_factor

EXPERIMENT_ID = "E3"
TITLE = "INC-OFFLINE empirical approximation ratio (Section IV bound: 9)"
BOUND = 9.0

WORKLOADS = {
    "uniform": lambda n, rng, gmax: uniform_workload(n, rng, max_size=gmax),
    "poisson": lambda n, rng, gmax: poisson_workload(n, rng, max_size=gmax),
    "day-night": lambda n, rng, gmax: day_night_workload(n, rng, max_size=gmax),
    "bursty": lambda n, rng, gmax: bursty_workload(n, rng, max_size=gmax),
}


def run(scale: str = "full") -> ExperimentResult:
    f = scale_factor(scale)
    n = max(30, int(300 * f))
    rows = []
    worst = 0.0
    for m in (2, 3, 5):
        ladder = inc_ladder(m)
        for wname, make in WORKLOADS.items():
            rng = rng_for(EXPERIMENT_ID, salt=m * 100 + len(wname))
            jobs = make(n, rng, ladder.capacity(m))
            r = evaluate(
                "INC-OFFLINE", inc_offline, jobs, ladder, workload=f"{wname}/m={m}"
            )
            worst = max(worst, r.ratio)
            rows.append({**r.row(), "bound": BOUND})
    result = ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        rows=rows,
        table=render_table(rows, title=TITLE),
        passed=worst <= BOUND,
    )
    result.notes.append(f"worst measured ratio {worst:.3f} vs proven bound {BOUND}")
    return result
