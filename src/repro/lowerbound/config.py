"""Optimal machine configurations (paper Section II, Eq. 1).

At a fixed time ``t`` let ``D_i = s(J_{>=i}(t), t)`` be the total size of the
active jobs that must run on machines of type at least ``i`` (those with
``s(J) > g_{i-1}``).  Any feasible BSHM solution uses machine counts
``w(i, t)`` with

    sum_{j >= i} w(j, t) * g_j  >=  D_i     for every i,

and the *optimal machine configuration* ``w*(., t)`` minimizes the cost rate
``sum_i w(i, t) * r_i`` subject to these nested constraints.

:func:`solve_configs` solves that small integer program **exactly** for every
row of a demand matrix at once: a branch-and-bound that runs level by level
from type ``m`` down to type ``1`` over all rows together, the suffix capacity
bought so far being the only state (see docs/algorithms.md, "the batched
configuration search").  Its answer is defined as that of a memoized
depth-first search over the same ranges, kept as the test oracle
(``tests/lowerbound/reference.py``), and matches it bit for bit outside a
tolerance gray zone that needs rates tuned to an integer relation within
``1e-9`` (docs/algorithms.md):

- type ``i`` is bought between ``ceil((D_i - cap) / g_i)`` (forced) and
  ``ceil((D_1 - cap) / g_i)`` (covers everything) machines; a state whose
  capacity already covers ``D_1`` buys nothing more;
- one state is kept per ``(row, round(cap, 9))``, as that search's memo
  keys them: the capacity of the first path to reach it (in lexicographic
  order of ``(w_m, ..., w_{i+1})``) and the cheapest prefix reaching it;
- among the leaves within :data:`~repro.core.tolerance.TOLERANCE` of a row's
  minimum, the lexicographically smallest ``(w_m, ..., w_1)`` wins, which is
  the order that search finds them in;
- each rate is summed ``w_m r_m + (... + (w_1 r_1 + 0.0))``.

A greedy configuration caps each type's count and the volume bound of the
types not yet decided prunes states, so a row keeps a handful of states per
level.  Rows are solved in blocks of :data:`_BLOCK_ROWS` to bound memory,
and a frontier of more than :data:`_MAX_CHILDREN` children (many tied
configurations) is expanded a slice of whole rows at a time.

The solver is cross-checked against ``scipy.optimize.milp`` in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..core.tolerance import FINE_TOL, TOLERANCE
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder

__all__ = [
    "OptimalConfig",
    "optimal_config",
    "demands_at",
    "ConfigSolver",
    "solve_configs",
]

_TOL = TOLERANCE

#: demand rows searched together: the working arrays of one level hold a
#: block's states (a handful per row on the benchmark's instances)
_BLOCK_ROWS = 1024

#: children one expansion step holds at once, and finished configurations
#: kept before the ones that cannot win are dropped; flat unit rates with
#: demands of many machines give thousands of both per row
_MAX_CHILDREN = 1 << 18


@dataclass(frozen=True, slots=True)
class OptimalConfig:
    """An optimal configuration: per-type counts and the optimal cost rate."""

    counts: tuple[int, ...]  # counts[i-1] = w*(i, t)
    rate: float  # sum_i w*(i,t) * r_i

    def count(self, i: int) -> int:
        """``w*(i, t)`` for one 1-based type index."""
        return self.counts[i - 1]


def demands_at(jobs: JobSet, t: float, ladder: Ladder) -> tuple[float, ...]:
    """The nested demand vector ``(D_1, ..., D_m)`` at time ``t``.

    ``D_i`` sums the sizes of active jobs with ``s(J) > g_{i-1}``; the vector
    is non-increasing by construction.
    """
    active = [(j.size) for j in jobs if j.active_at(t)]
    return demands_from_sizes(active, ladder)


def demands_from_sizes(sizes: Sequence[float], ladder: Ladder) -> tuple[float, ...]:
    """Demand vector for a multiset of active job sizes."""
    out = []
    for i in range(1, ladder.m + 1):
        g_prev = ladder.capacity(i - 1)
        out.append(sum(s for s in sizes if s > g_prev))
    return tuple(out)


def solve_configs(
    demands: np.ndarray | Sequence[Sequence[float]], ladder: Ladder
) -> tuple[np.ndarray, np.ndarray]:
    """Optimal configurations of every row of an ``(n, m)`` demand matrix.

    Each row is one non-increasing demand vector ``(D_1, ..., D_m)``.
    Returns ``(rates, counts)``: the optimal cost rate per row (``float64``,
    shape ``(n,)``) and ``w*`` per row (``int64``, shape ``(n, m)``,
    ``counts[k, i-1] = w*(i)``).  Rows with ``D_1 <= TOLERANCE`` cost 0.
    """
    d = np.asarray(demands, dtype=np.float64)
    m = ladder.m
    if d.ndim != 2 or d.shape[1] != m:
        raise ValueError("demands must be an (n, m) matrix with one column per type")
    if not np.isfinite(d).all():
        raise ValueError("demands must be finite")
    if (d[:, 1:] > d[:, :-1] + _TOL).any():
        raise ValueError("demand vectors must be non-increasing")
    g = np.asarray(ladder.capacities, dtype=np.float64)
    r = np.asarray(ladder.rates, dtype=np.float64)
    # with types 0..i left (0-based), the volume bound is the sum over j of
    # the uncovered part of demand column j times price[i, j]: the cheapest
    # unit rate among types j..i less that among types j-1..i
    rho = r / g
    price = np.zeros((m, m))
    for i in range(m):
        cheapest = np.minimum.accumulate(rho[i::-1])[::-1]
        price[i, : i + 1] = np.diff(cheapest, prepend=0.0)
    rates = np.zeros(d.shape[0])
    counts = np.zeros(d.shape, dtype=np.int64)
    for lo in range(0, d.shape[0], _BLOCK_ROWS):
        block = slice(lo, lo + _BLOCK_ROWS)
        _solve_block(d[block], g, r, price, rates[block], counts[block])
    return rates, counts


def _ceil_div(x: np.ndarray, g: float) -> np.ndarray:
    """``ceil(x / g)`` robust to float noise; 0 where ``x <= TOLERANCE``."""
    return np.where(x <= _TOL, 0.0, np.ceil(x / g - FINE_TOL)).astype(np.int64)


def _memo_keys(caps: np.ndarray) -> np.ndarray:
    """``round(cap, 9)`` per capacity, equal to Python's ``round``.

    ``rint(cap * 1e9) / 1e9`` is Python's correctly rounded result unless
    ``cap * 1e9`` lies within its own rounding error of a half-integer, or
    beyond ``2**52``; those few are rounded one by one.
    """
    scaled = caps * 1e9
    keys = np.rint(scaled) / 1e9
    near_half = np.abs(scaled - np.floor(scaled) - 0.5) <= scaled * 2.0**-50
    for k in np.flatnonzero(near_half | (scaled >= 2.0**52)):
        keys[k] = round(float(caps[k]), 9)
    return keys


def _greedy_bound(d: np.ndarray, g: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Cost of a configuration the search reaches, per row.

    Walks the types from ``m`` down, buying the forced count of each type,
    or, where the type is the cheapest per unit of capacity among those
    left, as many as fit below ``D_1``.  At every type it also prices the
    completion that covers everything with that type; the bound is the
    cheapest of these configurations that the search counts as feasible.
    """
    n, m = d.shape
    top = d[:, 0]
    rho = r / g
    cap = np.zeros(n)
    cost = np.zeros(n)
    best = np.full(n, np.inf)
    for i in range(m - 1, -1, -1):
        done = cap >= top - _TOL
        w_lo = _ceil_div(d[:, i] - cap, g[i])
        w_hi = np.maximum(w_lo, _ceil_div(top - cap, g[i]))
        covered = ~done & (cap + w_hi * g[i] >= top - _TOL)
        best = np.minimum(best, np.where(covered, cost + w_hi * r[i], np.inf))
        w = w_lo
        if rho[i] <= rho[: i + 1].min():
            w = np.clip(np.floor((top - cap) / g[i]).astype(np.int64), w_lo, w_hi)
        w[done] = 0
        cap = cap + w * g[i]
        cost = cost + w * r[i]
    return np.minimum(best, np.where(cap >= top - _TOL, cost, np.inf))


def _ceiling(cost: np.ndarray, m: int) -> np.ndarray:
    """The most a state may cost and still reach a leaf within the tie
    tolerance of one that costs ``cost``; the relative slack absorbs the
    rounding of the forward sums that states are priced with."""
    return cost * (1.0 + FINE_TOL) + (m + 2) * _TOL


def _solve_block(
    d: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
    price: np.ndarray,
    out_rates: np.ndarray,
    out_counts: np.ndarray,
) -> None:
    """Solve one block of rows in place (see the module docstring)."""
    m = g.size
    live = np.flatnonzero(d[:, 0] > _TOL)
    if live.size == 0:
        return
    d = d[live]
    n = live.size
    limit = _ceiling(_greedy_bound(d, g, r), m)

    # states entering type i: row, capacity, prefix cost and counts, kept in
    # (row, lexicographic path) order
    states: tuple[np.ndarray, ...] = (
        np.arange(n), np.zeros(n), np.zeros(n), np.zeros((n, m), dtype=np.int64)
    )
    leaves: list[tuple[np.ndarray, np.ndarray]] = []
    for i in range(m - 1, -1, -1):
        s_row, s_cap, s_cost, _ = states
        w_lo = _ceil_div(d[s_row, i] - s_cap, g[i])
        w_hi = np.maximum(w_lo, _ceil_div(d[s_row, 0] - s_cap, g[i]))
        # a count whose own price passes the limit cannot lead to a leaf
        afford = np.floor((limit[s_row] - s_cost) / r[i])
        w_hi = np.minimum(w_hi, afford).astype(np.int64)
        fan = np.maximum(w_hi - w_lo + 1, 0)
        parts = [
            _expand(i, tuple(a[lo:hi] for a in states), w_lo[lo:hi], fan[lo:hi],
                    d, g, r, price, limit, leaves)
            for lo, hi in _row_slices(s_row, fan)
        ]
        states = tuple(np.concatenate(cols) for cols in zip(*parts))
        if sum(lr.size for lr, _ in leaves) > _MAX_CHILDREN:
            leaves = _compact(leaves, r, limit)
        if states[0].size == 0:
            break

    rows, cnt, rate = _priced(leaves, r)
    best = np.full(n, np.inf)
    np.minimum.at(best, rows, rate)
    if not np.isfinite(best).all():
        raise RuntimeError("optimal configuration search failed (infeasible?)")
    tied = np.flatnonzero(rate <= best[rows] + _TOL)
    order = tied[np.lexsort(tuple(cnt[tied, i] for i in range(m)) + (rows[tied],))]
    lead = np.ones(order.size, dtype=bool)
    lead[1:] = rows[order][1:] != rows[order][:-1]
    pick = order[lead]
    out_rates[live[rows[pick]]] = rate[pick]
    out_counts[live[rows[pick]]] = cnt[pick]


def _row_slices(rows: np.ndarray, fan: np.ndarray) -> list[tuple[int, int]]:
    """``[lo, hi)`` ranges of whole rows' states, each with about
    :data:`_MAX_CHILDREN` children (rows never interact, so each range is
    expanded on its own)."""
    total = np.cumsum(fan)
    if total.size == 0 or total[-1] <= _MAX_CHILDREN:
        return [(0, rows.size)]
    starts = np.flatnonzero(np.r_[True, rows[1:] != rows[:-1]])
    before = (total - fan)[starts]
    cuts = starts[np.r_[True, np.diff(before // _MAX_CHILDREN) > 0]]
    return list(zip(cuts.tolist(), np.r_[cuts[1:], rows.size].tolist()))


def _expand(
    i: int,
    states: tuple[np.ndarray, ...],
    w_lo: np.ndarray,
    fan: np.ndarray,
    d: np.ndarray,
    g: np.ndarray,
    r: np.ndarray,
    price: np.ndarray,
    limit: np.ndarray,
    leaves: list[tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, ...]:
    """Buy ``w_lo .. w_lo + fan - 1`` machines of type ``i`` in every state.

    Children that cover ``D_1`` go to ``leaves`` (and tighten ``limit``); the
    others come back as the states entering type ``i - 1``, one per memo key,
    pruned by the volume bound.
    """
    s_row, s_cap, s_cost, s_cnt = states
    m = g.size
    parent = np.repeat(np.arange(s_row.size), fan)
    w = w_lo[parent] + (np.arange(parent.size) - (np.cumsum(fan) - fan)[parent])
    c_row = s_row[parent]
    c_cap = s_cap[parent] + w * g[i]
    c_cost = s_cost[parent] + w * r[i]
    c_cnt = s_cnt[parent]
    c_cnt[:, i] = w

    done = c_cap >= d[c_row, 0] - _TOL
    leaves.append((c_row[done], c_cnt[done]))
    np.minimum.at(limit, c_row[done], _ceiling(c_cost[done], m))
    open_ = np.flatnonzero(~done)
    if i == 0 or open_.size == 0:  # below type 1 a short capacity is infeasible
        return c_row[:0], c_cap[:0], c_cost[:0], c_cnt[:0]
    c_row, c_cap, c_cost, c_cnt = c_row[open_], c_cap[open_], c_cost[open_], c_cnt[open_]

    # one state per (row, memo key): the first path's capacity, the
    # cheapest path's prefix (the first of those within the tolerance)
    keys = _memo_keys(c_cap)
    order = np.lexsort((keys, c_row))
    key = keys[order]
    new = np.ones(order.size, dtype=bool)
    new[1:] = (c_row[order][1:] != c_row[order][:-1]) | (key[1:] != key[:-1])
    starts = np.flatnonzero(new)
    group = np.cumsum(new) - 1
    cost_o = c_cost[order]
    cheapest = np.minimum.reduceat(cost_o, starts)
    pos = np.where(cost_o <= cheapest[group] + _TOL, np.arange(order.size), order.size)
    kept = order[np.minimum.reduceat(pos, starts)]
    first = order[starts]
    back = np.argsort(kept)
    kept, first = kept[back], first[back]

    s_row, s_cap, s_cost, s_cnt = c_row[kept], c_cap[first], c_cost[kept], c_cnt[kept]
    # the volume bound of the types left (the LP relaxation's optimum:
    # each uncovered unit of D_j - D_{j+1} bought at the cheapest unit
    # rate among types j..i-1)
    need = np.zeros(s_row.size)
    for j in range(i):
        need += np.maximum(d[s_row, j] - s_cap, 0.0) * price[i - 1, j]
    alive = np.flatnonzero(s_cost + need <= limit[s_row])
    return s_row[alive], s_cap[alive], s_cost[alive], s_cnt[alive]


def _priced(
    leaves: list[tuple[np.ndarray, np.ndarray]], r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rows, counts and rates of the finished configurations, each rate
    summed ``w_m r_m + (... + (w_1 r_1 + 0.0))`` like the recursive search."""
    rows = np.concatenate([lr for lr, _ in leaves])
    cnt = np.concatenate([lc for _, lc in leaves])
    rate = np.zeros(rows.size)
    for i in range(r.size):
        rate = cnt[:, i] * r[i] + rate
    return rows, cnt, rate


def _compact(
    leaves: list[tuple[np.ndarray, np.ndarray]], r: np.ndarray, limit: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """The finished configurations that can still be picked.

    One above its row's limit can never come within the tie tolerance of the
    cheapest, and of equal rates in one row only the lexicographically
    smallest ``(w_m, ..., w_1)`` can win.
    """
    rows, cnt, rate = _priced(leaves, r)
    keep = np.flatnonzero(rate <= limit[rows])
    rows, cnt, rate = rows[keep], cnt[keep], rate[keep]
    order = np.lexsort(tuple(cnt[:, i] for i in range(r.size)) + (rate, rows))
    first = np.ones(order.size, dtype=bool)
    first[1:] = (rows[order][1:] != rows[order][:-1]) | (rate[order][1:] != rate[order][:-1])
    return [(rows[order[first]], cnt[order[first]])]


class ConfigSolver:
    """Exact solver for optimal machine configurations over one ladder.

    Solves one demand vector at a time through :func:`solve_configs` and
    keeps a cache keyed on the exact demand vector.  The cache rarely hits
    on real instances — float demand vectors seldom repeat (0.7-1.3% of
    segments on the benchmark's offline batches) — so bulk callers pass
    the whole matrix to :func:`solve_configs` instead.
    """

    def __init__(self, ladder: Ladder) -> None:
        self.ladder = ladder
        self._cache: dict[tuple[float, ...], OptimalConfig] = {}

    def solve(self, demands: Sequence[float]) -> OptimalConfig:
        """Optimal configuration for a non-increasing demand vector."""
        demands = tuple(float(d) for d in demands)
        if len(demands) != self.ladder.m:
            raise ValueError("demand vector length must equal the number of types")
        for a, b in zip(demands[:-1], demands[1:]):
            if b > a + _TOL:
                raise ValueError("demand vector must be non-increasing")
        if demands[0] <= _TOL:
            return OptimalConfig(counts=(0,) * self.ladder.m, rate=0.0)
        cached = self._cache.get(demands)
        if cached is None:
            rates, counts = solve_configs(np.array([demands]), self.ladder)
            cached = OptimalConfig(
                counts=tuple(int(c) for c in counts[0]), rate=float(rates[0])
            )
            self._cache[demands] = cached
        return cached


def optimal_config(demands: Sequence[float], ladder: Ladder) -> OptimalConfig:
    """One-shot convenience wrapper around :class:`ConfigSolver`."""
    return ConfigSolver(ladder).solve(demands)
