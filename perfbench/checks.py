"""Correctness checks computed apart from the program.

Every check takes plain data (job tuples, placement rows, numbers the
program reported) and raises :class:`CheckFailed` when the output is
wrong.  None of it imports ``repro``: feasibility, busy cost and the
volume bound are recomputed here from first principles, so a fault in the
program's own validator or cost accounting cannot hide itself.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Mapping, Sequence

#: relative slack for capacity sums and cost comparisons; far below the
#: 1e-6 relative error the tests require every check to catch
REL_TOL = 1e-9


class CheckFailed(AssertionError):
    """A program output disagreed with the benchmark's own computation."""


def _close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-12)


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Measure of a union of half-open intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def check_placement(
    jobs: Mapping[str, tuple[float, float, float]],
    rows: Sequence[tuple[str, int, str]],
    capacities: Sequence[float],
) -> None:
    """Every job placed exactly once, on a type it fits, and no machine
    above its capacity at any instant.

    ``jobs`` maps a job name to ``(size, start, end)``; ``rows`` holds one
    ``(job name, 1-based type, machine id)`` per placement the program
    reported.  Intervals are half-open, so a departure at ``t`` frees its
    capacity before an arrival at ``t`` takes it.
    """
    seen: dict[str, int] = defaultdict(int)
    machines: dict[str, list[str]] = defaultdict(list)
    machine_type: dict[str, int] = {}
    for name, type_index, machine in rows:
        if name not in jobs:
            raise CheckFailed(f"placement names unknown job {name!r}")
        seen[name] += 1
        if not 1 <= type_index <= len(capacities):
            raise CheckFailed(f"job {name} placed on unknown type {type_index}")
        if machine_type.setdefault(machine, type_index) != type_index:
            raise CheckFailed(f"machine {machine} reported with two types")
        machines[machine].append(name)
    twice = [name for name, k in seen.items() if k > 1]
    if twice:
        raise CheckFailed(f"{len(twice)} job(s) placed more than once, e.g. {twice[0]}")
    if len(seen) != len(jobs):
        missing = next(name for name in jobs if name not in seen)
        raise CheckFailed(f"{len(jobs) - len(seen)} job(s) never placed, e.g. {missing}")
    for machine, names in machines.items():
        cap = capacities[machine_type[machine] - 1]
        limit = cap * (1 + REL_TOL)
        events = []
        for name in names:
            size, start, end = jobs[name]
            if size > limit:
                raise CheckFailed(f"job {name} of size {size} exceeds type capacity {cap}")
            events.append((start, 1, size))
            events.append((end, 0, -size))
        load = 0.0
        for t, _kind, delta in sorted(events):
            load += delta
            if load > limit:
                raise CheckFailed(
                    f"machine {machine} holds {load:.6g} > capacity {cap:g} at t={t:.6g}"
                )


def busy_cost(
    jobs: Mapping[str, tuple[float, float, float]],
    rows: Sequence[tuple[str, int, str]],
    rates: Sequence[float],
) -> float:
    """Rate times measure of the union of each machine's job intervals."""
    intervals: dict[str, list[tuple[float, float]]] = defaultdict(list)
    machine_type: dict[str, int] = {}
    for name, type_index, machine in rows:
        _size, start, end = jobs[name]
        if end > start:
            intervals[machine].append((start, end))
        machine_type[machine] = type_index
    return math.fsum(
        rates[machine_type[m] - 1] * union_length(iv) for m, iv in intervals.items()
    )


def volume_bound(
    jobs: Mapping[str, tuple[float, float, float]],
    capacities: Sequence[float],
    rates: Sequence[float],
) -> float:
    """The integral over time of active size times ``min_i r_i / g_i``.

    No machine of type ``i`` carries more than ``g_i`` at a cost of ``r_i``,
    so every schedule, and the Eq.-(1) bound, costs at least this.
    """
    cheapest = min(r / g for g, r in zip(capacities, rates))
    return cheapest * math.fsum(s * (e - a) for s, a, e in jobs.values())


def mu(jobs: Mapping[str, tuple[float, float, float]]) -> float:
    """Longest over shortest job duration."""
    durations = [e - a for _s, a, e in jobs.values()]
    return max(durations) / min(durations)


def proven_ratio(algorithm: str, mu_value: float) -> float | None:
    """The paper's approximation / competitive ratio, when one is proven."""
    return {
        "dec-offline": 14.0,
        "inc-offline": 9.0,
        "dec-online": 32.0 * (mu_value + 1.0),
        "inc-online": 2.25 * mu_value + 6.75,
    }.get(algorithm)


def check_cost(reported: float, own: float, what: str = "cost") -> None:
    """The program's cost equals the benchmark's own, to float rounding."""
    if not _close(reported, own):
        raise CheckFailed(f"{what}: program reports {reported!r}, benchmark computes {own!r}")


def check_bounds(volume: float, lower: float, cost: float, ratio: float | None) -> None:
    """``volume <= lower bound <= cost <= ratio * lower bound``."""
    slack = 1 + REL_TOL
    if volume > lower * slack:
        raise CheckFailed(f"lower bound {lower!r} is below the volume bound {volume!r}")
    if lower > cost * slack:
        raise CheckFailed(f"lower bound {lower!r} exceeds the schedule cost {cost!r}")
    if ratio is not None and cost > ratio * lower * slack:
        raise CheckFailed(
            f"cost {cost!r} exceeds the proven ratio {ratio:g} x lower bound {lower!r}"
        )


def check_recovered(
    reported_events: int,
    acked_events: int,
    reported_cost: float,
    own_cost: float,
    cost_decimals: int,
) -> None:
    """``bshm recover`` restored every acked event and the benchmark's cost.

    ``cost_decimals`` is how many decimals the command prints, so the cost
    may differ from the benchmark's by half a unit in the last place.
    """
    if reported_events != acked_events:
        raise CheckFailed(
            f"recover restored {reported_events} events, {acked_events} were acked"
        )
    if abs(reported_cost - own_cost) > 0.5 * 10.0**-cost_decimals + REL_TOL * abs(own_cost):
        raise CheckFailed(f"recover reports cost {reported_cost!r}, benchmark computes {own_cost!r}")
