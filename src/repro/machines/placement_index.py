"""O(log n) leftmost-fit index structures for the machine pools.

:class:`~repro.machines.fleet.IndexedPool.first_fit` used to answer "lowest-
indexed machine with room for ``size``" with an O(machines) scan per call —
the dominant cost of every online scheduler (they are *all* First-Fit probes
over indexed pools).  The two structures here make that decision O(log n)
while returning the **bit-identical** machine the scan would have chosen:

- :class:`MinLoadSegmentTree` — a complete-binary-tree minimum index over
  per-slot machine loads.  The leftmost-fit descent evaluates the *same*
  float predicate as :meth:`OnlineMachine.fits <repro.machines.machine.
  OnlineMachine.fits>` (``load + size <= capacity + SIZE_TOL``) on subtree
  minima.  Float addition of a constant is monotone, so a subtree's minimum
  load satisfies the predicate iff some leaf in it does — the descent lands
  on exactly the machine a left-to-right scan would pick.  Empty machines
  are parked at :data:`INFINITE_LOAD` so the tree only ever answers for
  *busy* machines (empty ones are budget-gated and live in the heap below).
- :class:`FreeSlotHeap` — a min-heap of empty machine slots with lazy
  invalidation: entries whose machine has since become busy (e.g. via a
  direct ``admit`` in a test) are discarded on peek.  Empty machines all
  carry load exactly 0.0, so the lowest free slot is the only one First-Fit
  could choose; single-job (Group B) pools use *only* this heap.

Correctness against the retained linear scan is pinned by
``tests/property/test_placement_parity.py``.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Callable

__all__ = ["INFINITE_LOAD", "MinLoadSegmentTree", "FreeSlotHeap"]

#: sentinel load for slots that must never win a leftmost-fit query
#: (empty machines, unused tree capacity)
INFINITE_LOAD = math.inf


class MinLoadSegmentTree:
    """Min-load index over machine slots with leftmost-fit descent.

    Stored as the classic implicit array: leaf ``i`` lives at
    ``tree[cap + i]``, internal node ``k`` holds ``min(tree[2k], tree[2k+1])``.
    Capacity doubles on demand; slots beyond :meth:`__len__` hold
    :data:`INFINITE_LOAD` and can never satisfy a fit query.
    """

    __slots__ = ("_cap", "_size", "_tree")

    def __init__(self) -> None:
        self._cap = 1
        self._size = 0
        self._tree: list[float] = [INFINITE_LOAD, INFINITE_LOAD]

    def __len__(self) -> int:
        return self._size

    def get(self, slot: int) -> float:
        """The load currently stored for ``slot``."""
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} out of range [0, {self._size})")
        return self._tree[self._cap + slot]

    def min_load(self) -> float:
        """The smallest stored load (INFINITE_LOAD when nothing is busy)."""
        return self._tree[1]

    def append(self, load: float) -> None:
        """Register the next slot, initialized to ``load``."""
        if self._size == self._cap:
            self._grow()
        self._size += 1
        self.set(self._size - 1, load)

    def _grow(self) -> None:
        old_cap, old_tree = self._cap, self._tree
        cap = old_cap * 2
        tree = [INFINITE_LOAD] * (2 * cap)
        tree[cap : cap + self._size] = old_tree[old_cap : old_cap + self._size]
        for node in range(cap - 1, 0, -1):
            tree[node] = min(tree[2 * node], tree[2 * node + 1])
        self._cap, self._tree = cap, tree

    def set(self, slot: int, load: float) -> None:
        """Point-update ``slot`` to ``load`` and repair ancestors."""
        if not 0 <= slot < self._size:
            raise IndexError(f"slot {slot} out of range [0, {self._size})")
        tree = self._tree
        node = self._cap + slot
        tree[node] = load
        node >>= 1
        while node:
            best = min(tree[2 * node], tree[2 * node + 1])
            if tree[node] == best:
                break
            tree[node] = best
            node >>= 1

    def leftmost_fit(self, size: float, capacity_tol: float) -> tuple[int | None, int]:
        """Lowest slot whose load satisfies ``load + size <= capacity_tol``.

        Returns ``(slot, probes)`` where ``probes`` counts predicate
        evaluations (the decision's work, fed to the probe-depth metrics);
        ``slot`` is ``None`` when no stored load fits.  ``capacity_tol`` is
        the precomputed ``capacity + SIZE_TOL`` so the leaf predicate is the
        very expression :meth:`OnlineMachine.fits` evaluates.
        """
        tree = self._tree
        probes = 1
        if not tree[1] + size <= capacity_tol:
            return None, probes
        node = 1
        cap = self._cap
        while node < cap:
            probes += 1
            left = 2 * node
            node = left if tree[left] + size <= capacity_tol else left + 1
        return node - cap, probes


class FreeSlotHeap:
    """Min-heap of empty machine slots with lazy invalidation.

    A slot is pushed whenever its machine turns empty; it is *not* removed
    when the machine turns busy again (heaps cannot delete cheaply).
    Instead :meth:`peek` discards stale tops — entries whose machine is no
    longer free — until a valid one surfaces.  Each slot is pushed at most
    once per busy-to-empty transition, so the heap's lifetime size is
    bounded by the number of departures.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list[int] = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, slot: int) -> None:
        heappush(self._heap, slot)

    def peek(self, is_free: Callable[[int], bool]) -> tuple[int | None, int]:
        """Lowest currently-free slot, or ``None``; also counts probes.

        Returns ``(slot, probes)``; stale entries are popped as they are
        discovered (the lazy invalidation).
        """
        heap = self._heap
        probes = 0
        while heap:
            probes += 1
            slot = heap[0]
            if is_free(slot):
                return slot, probes
            heappop(heap)
        return None, probes

    def pop(self) -> int:
        """Remove and return the top slot (call right after a ``peek`` hit)."""
        return heappop(self._heap)
