"""Shared experiment infrastructure.

Each experiment module exposes ``run(scale="full"|"quick") -> ExperimentResult``.
``quick`` shrinks instance sizes for fast CI/bench runs; ``full`` produces
the numbers recorded in EXPERIMENTS.md.  Seeds are fixed per experiment so
results are reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..online.engine import run_online
from ..schedule.schedule import Schedule

__all__ = [
    "ExperimentResult",
    "online_algorithm",
    "scale_factor",
    "rng_for",
    "workload_stats",
]


@dataclass(slots=True)
class ExperimentResult:
    """What an experiment hands back to the harness / bench / docs."""

    experiment_id: str
    title: str
    rows: list[dict] = field(default_factory=list)
    table: str = ""
    figures: dict[str, str] = field(default_factory=dict)  # name -> ascii art
    notes: list[str] = field(default_factory=list)
    passed: bool = True

    def render(self) -> str:
        parts = [f"== {self.experiment_id}: {self.title} =="]
        if self.table:
            parts.append(self.table)
        for name, art in self.figures.items():
            parts.append(f"-- {name} --\n{art}")
        for note in self.notes:
            parts.append(f"note: {note}")
        parts.append(f"status: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(parts)


def online_algorithm(
    scheduler_factory: Callable[[Ladder], object],
    *,
    metrics=None,
) -> Callable[[JobSet, Ladder], Schedule]:
    """Wrap an online scheduler class/factory as a (jobs, ladder) -> Schedule
    function so online and offline algorithms share the evaluation path.

    The replay goes through the streaming
    :class:`~repro.service.runtime.SchedulerRuntime` (via ``run_online``), so
    experiment runs exercise exactly the code path ``bshm serve`` uses in
    production; pass a :class:`~repro.service.metrics.MetricsRegistry` to
    collect per-decision latency and occupancy gauges alongside the result.
    """

    def fn(jobs: JobSet, ladder: Ladder) -> Schedule:
        return run_online(jobs, scheduler_factory(ladder), metrics=metrics)

    return fn


def scale_factor(scale: str) -> float:
    """Instance-size multiplier: quick runs are ~5x smaller."""
    if scale == "quick":
        return 0.2
    if scale == "full":
        return 1.0
    raise ValueError(f"unknown scale {scale!r} (use 'quick' or 'full')")


def workload_stats(jobs: JobSet) -> dict[str, float]:
    """Aggregate workload descriptors for an experiment row.

    ``n`` (jobs), ``peak_demand`` (``max_t s(J, t)``), ``busy_time`` (measure
    of the union of active intervals), ``volume`` (``Σ s(J)·len(I(J))``) and
    ``mu`` (max/min duration ratio).  Everything runs on the columnar
    :mod:`repro.core.vectorized` kernels over one cached
    :meth:`JobSet.to_arrays` view, so the scaling experiments can afford to
    report these at 10^5-10^6 jobs.
    """
    if jobs.empty:
        return {"n": 0.0, "peak_demand": 0.0, "busy_time": 0.0, "volume": 0.0, "mu": 1.0}
    a = jobs.to_arrays()
    durations = a.ends - a.starts
    return {
        "n": float(len(jobs)),
        "peak_demand": jobs.peak_demand(),
        "busy_time": jobs.busy_span().length,
        "volume": float(np.dot(a.sizes, durations)),
        "mu": float(durations.max() / durations.min()),
    }


def rng_for(experiment_id: str, salt: int = 0) -> np.random.Generator:
    """Deterministic per-experiment RNG."""
    # do not use hash(): it is salted per process; derive a stable seed
    seed = sum((i + 1) * ord(c) for i, c in enumerate(experiment_id)) * 1000003 + salt
    return np.random.default_rng(seed % (2**32))
