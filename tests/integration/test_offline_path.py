"""The offline path runs on columns from trace to assignment.

``bshm schedule``'s steps — read the trace and the ladder, lint, solve,
check feasibility, bound, cost and write the assignment CSV — must not
build one ``Job`` per row or one ``MachineKey`` per job: the trace is read
into columns, the engines emit schedule columns, and the checks, the cost
and the writer read them.  Constructors are counted while the path runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    Job,
    JobSet,
    MachineKey,
    assert_feasible,
    dec_ladder,
    dec_offline,
    general_offline,
    inc_ladder,
    inc_offline,
    lint_instance,
    lower_bound,
    paper_fig2_ladder,
)
from repro.jobs.io import read_jobs_csv, read_ladder_csv, write_jobs_csv, write_ladder_csv, write_schedule_csv
from tests.schedule.reference import cost_dict_reference


def _counting(monkeypatch, cls) -> list[int]:
    calls = [0]
    init = cls.__init__

    def counted(self, *args, **kwargs):
        calls[0] += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(cls, "__init__", counted)
    return calls


@pytest.mark.parametrize(
    "solve, ladder",
    [(dec_offline, dec_ladder(4)), (inc_offline, inc_ladder(4)), (general_offline, paper_fig2_ladder())],
    ids=["dec", "inc", "gen"],
)
def test_no_job_or_per_job_key_is_built(tmp_path, monkeypatch, solve, ladder):
    rng = np.random.default_rng(7)
    n = 600
    arrivals = np.sort(rng.uniform(0.0, 100.0, n))
    sizes = rng.uniform(0.05, ladder.capacity(ladder.m), n)
    jobs = JobSet(
        Job(float(s), float(a), float(a + d))
        for a, d, s in zip(arrivals, rng.uniform(1.0, 10.0, n), sizes)
    )
    trace, ladder_csv, out = tmp_path / "t.csv", tmp_path / "l.csv", tmp_path / "a.csv"
    write_jobs_csv(jobs, trace)
    write_ladder_csv(ladder, ladder_csv)

    job_calls = _counting(monkeypatch, Job)
    key_calls = _counting(monkeypatch, MachineKey)
    loaded = read_jobs_csv(trace)
    lad = read_ladder_csv(ladder_csv)
    lint_instance(loaded, lad)
    schedule = solve(loaded, lad)
    assert_feasible(schedule, loaded)
    bound = lower_bound(loaded, lad).value
    cost = schedule.cost()
    write_schedule_csv(schedule, out)
    assert job_calls[0] == 0
    assert key_calls[0] == len(schedule.machine_table)  # one key per machine
    monkeypatch.undo()

    assert len(schedule) == n and 0 < bound <= cost
    assert cost == cost_dict_reference(schedule)  # the Job/MachineKey accounting
    assert len(out.read_text().splitlines()) == n + 1
