"""Indexed machine pools for the online algorithms.

DEC-ONLINE organizes machines into *groups* (A and B in the paper) with,
per machine type, an optional bound on how many machines may be busy
concurrently, a job-size admission limit (Group A type-``i`` machines accept
only jobs of size ``<= g_i / 2``) and an optional one-job-at-a-time rule
(Group B).  :class:`IndexedPool` implements one (group, type) cell:

- machines carry increasing indices 1, 2, …; the *lowest-indexed* feasible
  machine is always chosen (the paper's First-Fit rule);
- an **empty** machine may only be (re)used while the number of busy
  machines is below the concurrency budget;
- a fresh machine (next index) is materialized on demand, so the pool is
  conceptually infinite.

First-Fit decisions are O(log n) (the **indexed placement engine**): busy
machines are indexed by a :class:`~repro.machines.placement_index.
MinLoadSegmentTree` whose leftmost-fit descent evaluates the exact
:meth:`OnlineMachine.fits` predicate on subtree minima, empty machines by a
:class:`~repro.machines.placement_index.FreeSlotHeap` (all empties carry
load 0.0, so only the lowest free index matters), and the concurrency
budget by a live busy counter maintained on empty/busy transitions.
Single-job (Group B) pools skip the tree entirely — the heap alone decides.

The pre-index linear scan survives as :meth:`IndexedPool.first_fit_reference`
— a differential-test oracle in the sense of BSHM003 (never called from
production paths).  The indexed engine is gated on *placement-sequence
parity* with it: same machine keys in the same order, bit-identical loads
(``tests/property/test_placement_parity.py``), which is what keeps golden
cost pins and service replay checkpoints byte-identical.
"""

from __future__ import annotations

from ..core.tolerance import SIZE_TOL as _TOL
from ..schedule.schedule import MachineKey
from .machine import OnlineMachine
from .placement_index import INFINITE_LOAD, FreeSlotHeap, MinLoadSegmentTree

__all__ = ["IndexedPool", "FleetState", "PlacementStats"]


class PlacementStats:
    """Cumulative placement-probe accounting, shared across a fleet's pools.

    ``probes`` counts index inspections (tree-node predicate evaluations,
    heap peeks, scanned machines in the reference oracle); ``decisions``
    counts ``first_fit`` calls.  :meth:`SchedulerRuntime.submit
    <repro.service.runtime.SchedulerRuntime.submit>` samples the per-call
    probe delta into the ``placement_probes`` counter and the
    ``probe_depth`` histogram.
    """

    __slots__ = ("probes", "decisions")

    def __init__(self) -> None:
        self.probes = 0
        self.decisions = 0

    def __repr__(self) -> str:
        return f"PlacementStats(probes={self.probes}, decisions={self.decisions})"


class IndexedPool:
    """All machines of one type within one group."""

    __slots__ = (
        "group",
        "type_index",
        "capacity",
        "size_limit",
        "budget",
        "single_job",
        "machines",
        "stats",
        "_busy",
        "_tree",
        "_free",
    )

    def __init__(
        self,
        group: str,
        type_index: int,
        capacity: float,
        *,
        size_limit: float | None = None,
        budget: int | None = None,
        single_job: bool = False,
        stats: PlacementStats | None = None,
    ) -> None:
        self.group = group
        self.type_index = type_index
        self.capacity = float(capacity)
        #: largest admissible job size (defaults to the capacity)
        self.size_limit = capacity if size_limit is None else float(size_limit)
        #: max machines busy concurrently; None = unbounded
        self.budget = budget
        self.single_job = single_job
        self.machines: list[OnlineMachine] = []
        self.stats = stats if stats is not None else PlacementStats()
        self._busy = 0  # live count of machines with >= 1 resident job
        # busy-machine index; single-job pools never probe busy machines
        self._tree = None if single_job else MinLoadSegmentTree()
        self._free = FreeSlotHeap()

    def busy_count(self) -> int:
        return self._busy

    def admits_size(self, size: float) -> bool:
        return size <= self.size_limit + _TOL

    def _machine_usable(self, machine: OnlineMachine, size: float, may_open: bool) -> bool:
        if machine.busy:
            return (not self.single_job) and machine.fits(size)
        return may_open and machine.fits(size)

    # -- index maintenance --------------------------------------------------
    def _machine_updated(self, slot: int, was_busy: bool) -> None:
        """Load-change hook from :meth:`OnlineMachine.admit`/``release``."""
        machine = self.machines[slot]
        if machine.busy:
            if self._tree is not None:
                self._tree.set(slot, machine.load)
            if not was_busy:
                self._busy += 1
        else:
            if self._tree is not None:
                self._tree.set(slot, INFINITE_LOAD)
            if was_busy:
                self._busy -= 1
                self._free.push(slot)

    def _open_machine(self) -> OnlineMachine:
        """Materialize the next-indexed machine, registered in the indexes."""
        slot = len(self.machines)
        machine = OnlineMachine(
            MachineKey(self.type_index, (self.group, slot + 1)), self.capacity
        )
        machine.bind(self, slot)
        self.machines.append(machine)
        if self._tree is not None:
            self._tree.append(INFINITE_LOAD)
        # not on the free-slot heap: the caller admits a job at once, or
        # pushes the slot itself if it stays empty
        return machine

    # -- the placement engine ----------------------------------------------
    def first_fit(self, uid: int, size: float) -> OnlineMachine | None:
        """Place on the lowest-indexed feasible machine; None if the size is
        inadmissible or the concurrency budget blocks every option.

        O(log n): min-load tree descent for busy machines, free-slot heap
        peek for empty ones, lowest index of the two wins — exactly the
        machine :meth:`first_fit_reference`'s left-to-right scan selects.
        """
        if not self.admits_size(size):
            return None
        stats = self.stats
        stats.decisions += 1
        may_open = self.budget is None or self._busy < self.budget

        best: int | None = None
        if self._tree is not None:
            slot, probes = self._tree.leftmost_fit(size, self.capacity + _TOL)
            stats.probes += probes
            best = slot

        from_heap = False
        if may_open:
            machines = self.machines
            free, probes = self._free.peek(lambda s: machines[s].empty)
            stats.probes += probes
            # every empty machine has load exactly 0.0, so one fits-check
            # covers them all (and the would-be fresh machine too)
            if free is not None and not machines[free].fits(size):
                free = None
            if free is not None and (best is None or free < best):
                best = free
                from_heap = True

        if best is None:
            if not may_open:
                return None
            # fresh machine; admit raises (like the scan did) in the corner
            # case of an admissible size that exceeds the raw capacity, and
            # the machine it opened stays empty and so goes on the heap
            machine = self._open_machine()
            try:
                machine.admit(uid, size)
            except ValueError:
                self._free.push(machine._slot)
                raise
            return machine

        machine = self.machines[best]
        if from_heap:
            self._free.pop()
        machine.admit(uid, size)
        return machine

    # -- state snapshot support ---------------------------------------------
    def export_machines(self) -> list[dict]:
        """JSON-safe state of every materialized machine, in slot order.

        Together with the pool's constructor arguments this is the pool's
        entire mutable state: the indexes (tree, heap, busy counter) are
        derived and rebuilt by :meth:`restore_machines`.  Loads are exported
        verbatim — they carry float add/remove history that a recomputation
        from resident sizes would not reproduce bit-identically.
        """
        return [
            {
                "load": machine.load,
                "resident": [[uid, size] for uid, size in machine.resident.items()],
            }
            for machine in self.machines
        ]

    def restore_machines(self, states: list[dict]) -> None:
        """Rebuild the machine list and all placement indexes from
        :meth:`export_machines` output.  The pool must be empty.

        Future ``first_fit`` decisions depend only on the machines' loads,
        slot order and emptiness — all restored exactly here — so a restored
        pool places the same jobs on the same machines as the original.
        """
        if self.machines:
            raise ValueError("restore_machines requires an empty pool")
        for state in states:
            machine = self._open_machine()
            resident = state["resident"]
            if resident:
                for uid, size in resident:
                    machine.resident[int(uid)] = float(size)
                machine.load = float(state["load"])
                if self._tree is not None:
                    self._tree.set(machine._slot, machine.load)
                self._busy += 1
            else:
                self._free.push(machine._slot)

    def first_fit_reference(self, uid: int, size: float) -> OnlineMachine | None:
        """The pre-index O(machines) linear scan, kept as the differential
        oracle for :meth:`first_fit` (test/bench only — BSHM003)."""
        if not self.admits_size(size):
            return None
        stats = self.stats
        stats.decisions += 1
        may_open = self.budget is None or self._busy < self.budget
        for machine in self.machines:
            stats.probes += 1
            if self._machine_usable(machine, size, may_open):
                machine.admit(uid, size)
                return machine
        if may_open:
            machine = self._open_machine()
            machine.admit(uid, size)
            return machine
        return None

    def __repr__(self) -> str:
        return (
            f"IndexedPool({self.group}/T{self.type_index}, "
            f"busy={self.busy_count()}, budget={self.budget})"
        )


class FleetState:
    """Shared bookkeeping for online schedulers: job uid -> machine, plus
    the fleet-wide :class:`PlacementStats` its pools report into."""

    __slots__ = ("placement", "stats")

    def __init__(self) -> None:
        self.placement: dict[int, OnlineMachine] = {}
        self.stats = PlacementStats()

    def record(self, uid: int, machine: OnlineMachine) -> MachineKey:
        self.placement[uid] = machine
        return machine.key

    def depart(self, uid: int) -> None:
        machine = self.placement.pop(uid)
        machine.release(uid)
