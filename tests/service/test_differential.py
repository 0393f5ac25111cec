"""The acceptance-criterion differential: batch == streaming, exactly.

For every workload generator and every registered online scheduler, driving
the streaming :class:`SchedulerRuntime` event by event must produce a
:class:`Schedule` with cost *exactly* equal (``==``, no tolerance) to the
batch :func:`run_online` replay, with an identical uid -> machine
assignment — and ``replay(record(run))`` must reproduce it bit-for-bit.
"""

import numpy as np
import pytest

from repro import (
    bursty_workload,
    day_night_workload,
    dec_ladder,
    flash_crowd_workload,
    inc_ladder,
    mmpp_workload,
    paper_fig2_ladder,
    poisson_workload,
    run_online,
    uniform_workload,
)
from repro.core.events import EventKind, event_stream
from repro.schedule.validate import assert_feasible
from repro.service.checkpoint import record_trace, replay_trace
from repro.service.runtime import SchedulerRuntime, make_scheduler

GENERATORS = {
    "uniform": uniform_workload,
    "poisson": poisson_workload,
    "day-night": day_night_workload,
    "bursty": bursty_workload,
    "mmpp": mmpp_workload,
    "flash-crowd": flash_crowd_workload,
}

# scheduler wire name -> the ladder regime it is analyzed for
SCHEDULER_LADDERS = {
    "dec": lambda: dec_ladder(3),
    "inc": lambda: inc_ladder(3),
    "general": paper_fig2_ladder,
    "first-fit": lambda: dec_ladder(2),
}


def stream(runtime, jobs):
    for ev in event_stream(jobs):
        if ev.kind is EventKind.ARRIVE:
            adm = runtime.submit(
                ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid
            )
            assert adm.accepted
        else:
            runtime.depart(ev.job.uid, ev.job.departure)


@pytest.mark.parametrize("gen_name", sorted(GENERATORS))
@pytest.mark.parametrize("sched_name", sorted(SCHEDULER_LADDERS))
def test_streaming_equals_batch(gen_name, sched_name):
    ladder = SCHEDULER_LADDERS[sched_name]()
    rng = np.random.default_rng(20_26)
    jobs = GENERATORS[gen_name](50, rng, max_size=ladder.capacity(ladder.m))

    batch = run_online(jobs, make_scheduler(sched_name, ladder))
    runtime = SchedulerRuntime.create(sched_name, ladder)
    stream(runtime, jobs)
    streamed = runtime.schedule()

    assert streamed.cost() == batch.cost()  # exact equality, no tolerance
    assert {(j.uid, k) for j, k in batch.assignment.items()} == {
        (j.uid, k) for j, k in streamed.assignment.items()
    }
    assert_feasible(streamed, jobs)
    # the running accumulator agrees with the finished schedule (different
    # kernels: per-machine segment sums vs one grouped sweep — bit-equality
    # is not guaranteed between them, only between like kernels)
    assert runtime.cost() == pytest.approx(streamed.cost(), rel=1e-12, abs=1e-12)

    # record -> replay reproduces the identical run, byte for byte
    lines = record_trace(runtime)
    replayed = replay_trace(lines)
    assert replayed.schedule().cost() == streamed.cost()
    assert {(j.uid, k) for j, k in replayed.schedule().assignment.items()} == {
        (j.uid, k) for j, k in streamed.assignment.items()
    }
    assert record_trace(replayed) == lines
