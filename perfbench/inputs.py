"""Seeded inputs for every workload, made by the benchmark itself.

The program under test only ever receives what these functions produce:
request lines for the serve workloads, CSV files for the offline ones.
Nothing here imports ``repro``, so the inputs do not move when the
program's own generators change.

Jobs arrive as a Poisson process of rate 1, stay for an exponential time
of mean ``live`` (so about ``live`` jobs are active at once, by Little's
law), and have log-uniform sizes from a tenth of the smallest capacity up
to the largest, so every size class of the ladder receives jobs.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The three ladders the workloads use, as (capacity, rate) pairs.  They are
# the program's `dec`, `inc` and `fig2` catalogue ladders, written out here
# so that the checks do not take the ladder from the code they check.
LADDERS: dict[str, list[tuple[float, float]]] = {
    "dec3": [(1.0, 1.0), (3.0, 2.0), (9.0, 4.0)],
    "dec4": [(1.0, 1.0), (3.0, 2.0), (9.0, 4.0), (27.0, 8.0)],
    "dec6": [(3.0**i, 2.0**i) for i in range(6)],
    "inc3": [(1.0, 1.0), (1.5, 2.0), (2.25, 4.0)],
    "inc4": [(1.5**i, 2.0**i) for i in range(4)],
    "fig2": [
        (g, g * rho)
        for g, rho in zip(
            [1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0],
            [4.0, 5.0, 3.0, 6.0, 7.0, 5.5, 8.0, 7.5],
        )
    ],
}


@dataclass(frozen=True)
class Jobs:
    """One seeded instance: parallel arrays, job ``k`` is named ``J<k>``."""

    sizes: np.ndarray
    starts: np.ndarray
    ends: np.ndarray

    def __len__(self) -> int:
        return len(self.sizes)

    def as_dict(self) -> dict[str, tuple[float, float, float]]:
        """``name -> (size, start, end)`` with plain Python floats."""
        return {
            f"J{k}": (s, a, d)
            for k, (s, a, d) in enumerate(
                zip(self.sizes.tolist(), self.starts.tolist(), self.ends.tolist())
            )
        }


def poisson_jobs(
    rng: np.random.Generator, n: int, live: float, ladder: list[tuple[float, float]]
) -> Jobs:
    """``n`` jobs with about ``live`` of them active at any time."""
    starts = np.cumsum(rng.exponential(1.0, size=n))
    durations = np.maximum(rng.exponential(live, size=n), 0.01 * live)
    lo, hi = 0.1 * ladder[0][0], ladder[-1][0]
    sizes = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    return Jobs(sizes=sizes, starts=starts, ends=starts + durations)


def event_order(jobs: Jobs) -> list[tuple[str, int]]:
    """Arrivals and departures in time order, departures first on ties
    (the half-open convention: a job leaving at ``t`` frees its capacity
    for one arriving at ``t``)."""
    n = len(jobs)
    times = np.concatenate([jobs.ends, jobs.starts])
    kinds = np.concatenate([np.zeros(n, dtype=np.int8), np.ones(n, dtype=np.int8)])
    uids = np.concatenate([np.arange(n), np.arange(n)])
    order = np.lexsort((uids, kinds, times))
    return [("depart" if kinds[k] == 0 else "submit", int(uids[k])) for k in order]


def request_lines(jobs: Jobs) -> tuple[list[bytes], list[tuple[str, int]]]:
    """The wire requests for a write-only stream, plus ``(op, uid)`` per line."""
    events = event_order(jobs)
    sizes, starts, ends = jobs.sizes.tolist(), jobs.starts.tolist(), jobs.ends.tolist()
    lines = []
    for op, uid in events:
        if op == "submit":
            doc = {"op": "submit", "size": sizes[uid], "t": starts[uid], "uid": uid}
        else:
            doc = {"op": "depart", "uid": uid, "t": ends[uid]}
        lines.append((json.dumps(doc) + "\n").encode())
    return lines, events


def write_instance(jobs: Jobs, ladder: list[tuple[float, float]], trace: Path, ladder_csv: Path) -> None:
    """Write the job trace and ladder CSVs that ``bshm schedule`` reads."""
    with open(trace, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "arrival", "departure", "name"])
        for k, (s, a, d) in enumerate(
            zip(jobs.sizes.tolist(), jobs.starts.tolist(), jobs.ends.tolist())
        ):
            writer.writerow([repr(s), repr(a), repr(d), f"J{k}"])
    with open(ladder_csv, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["capacity", "rate"])
        for g, r in ladder:
            writer.writerow([repr(g), repr(r)])
