"""Piecewise-constant step functions over the real line.

Demand profiles ``s(J, t)`` (total size of active jobs at time ``t``), machine
counts over time and optimal-configuration cost rates are all step functions
with finitely many breakpoints.  :class:`StepFunction` stores them as sorted
breakpoint/value arrays (numpy) and supports exact integration, pointwise
queries, arithmetic and superlevel-set extraction — everything the paper's
lower-bounding scheme (Eq. 1) and the competitive analysis need.

The function is identically zero outside ``[breaks[0], breaks[-1])``.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from .intervals import Interval, IntervalSet
from .tolerance import FINE_TOL, TOLERANCE

__all__ = ["StepFunction", "pulse", "sum_pulses", "sum_pulses_reference"]


class StepFunction:
    """A right-continuous piecewise-constant function with compact support.

    ``breaks`` is a strictly increasing 1-D array of n+1 breakpoints;
    ``values`` holds the n constant values, ``values[k]`` on
    ``[breaks[k], breaks[k+1])``.  Outside the support the value is 0.
    """

    __slots__ = ("breaks", "values")

    def __init__(self, breaks: Sequence[float], values: Sequence[float]) -> None:
        b = np.asarray(breaks, dtype=float)
        v = np.asarray(values, dtype=float)
        if b.ndim != 1 or v.ndim != 1 or b.size != v.size + 1:
            raise ValueError("need n+1 breaks for n values")
        if b.size >= 2 and not np.all(np.diff(b) > 0):
            raise ValueError("breaks must be strictly increasing")
        object.__setattr__(self, "breaks", b)
        object.__setattr__(self, "values", v)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("StepFunction is immutable")

    # -- constructors -----------------------------------------------------
    @staticmethod
    def zero() -> "StepFunction":
        """The zero function (trivial support)."""
        return StepFunction(np.array([0.0, 1.0]), np.array([0.0]))

    @staticmethod
    def from_segments(
        segments: Iterable[tuple[float, float, float]],
    ) -> "StepFunction":
        """Build from ``(left, right, value)`` triples covering disjoint spans.

        Gaps between segments are filled with value 0.
        """
        segs = sorted(segments)
        if not segs:
            return StepFunction.zero()
        breaks: list[float] = []
        values: list[float] = []
        for left, right, value in segs:
            if right <= left:
                continue
            if breaks and left < breaks[-1]:
                raise ValueError("segments must be disjoint")
            if breaks and left > breaks[-1]:
                values.append(0.0)
                breaks.append(left)
            if not breaks:
                breaks.append(left)
            values.append(value)
            breaks.append(right)
        if not values:
            return StepFunction.zero()
        return StepFunction(np.array(breaks), np.array(values)).compact()

    # -- queries ----------------------------------------------------------
    def __call__(self, t: float | np.ndarray) -> float | np.ndarray:
        """Pointwise evaluation (0 outside the support)."""
        t_arr = np.asarray(t, dtype=float)
        idx = np.searchsorted(self.breaks, t_arr, side="right") - 1
        inside = (idx >= 0) & (idx < self.values.size)
        out = np.where(inside, self.values[np.clip(idx, 0, self.values.size - 1)], 0.0)
        if np.isscalar(t) or t_arr.ndim == 0:
            return float(out)
        return out

    @property
    def support(self) -> Interval:
        """The interval spanned by the breakpoints."""
        return Interval(float(self.breaks[0]), float(self.breaks[-1]))

    def max(self) -> float:
        """Maximum value attained (0 if the support has only zero values)."""
        return float(max(self.values.max(initial=0.0), 0.0))

    def min_on(self, iv: Interval) -> float:
        """Minimum value over ``iv`` (values outside the support count as 0)."""
        if iv.left < self.breaks[0] or iv.right > self.breaks[-1]:
            return 0.0
        lo = int(np.searchsorted(self.breaks, iv.left, side="right") - 1)
        hi = int(np.searchsorted(self.breaks, iv.right, side="left"))
        return float(self.values[lo:hi].min())

    def integral(self) -> float:
        """Exact integral over the whole line."""
        return float(np.dot(self.values, np.diff(self.breaks)))

    def integral_on(self, ivset: IntervalSet) -> float:
        """Exact integral restricted to an interval set."""
        total = 0.0
        for iv in ivset:
            total += self._integral_on_interval(iv)
        return total

    def _integral_on_interval(self, iv: Interval) -> float:
        lo = max(iv.left, float(self.breaks[0]))
        hi = min(iv.right, float(self.breaks[-1]))
        if hi <= lo:
            return 0.0
        i0 = int(np.searchsorted(self.breaks, lo, side="right") - 1)
        i1 = int(np.searchsorted(self.breaks, hi, side="left"))
        total = 0.0
        for k in range(i0, i1):
            seg_lo = max(lo, float(self.breaks[k]))
            seg_hi = min(hi, float(self.breaks[k + 1]))
            if seg_hi > seg_lo:
                total += float(self.values[k]) * (seg_hi - seg_lo)
        return total

    def superlevel(self, threshold: float, strict: bool = False) -> IntervalSet:
        """Interval set where the function is ``>= threshold`` (or ``>``).

        This extracts the paper's ``\\mathcal{I}_{i,j}`` families: the times at
        which a machine-count step function reaches a given level.
        """
        if strict:
            mask = self.values > threshold
        else:
            mask = self.values >= threshold
        pairs = []
        for k in np.flatnonzero(mask):
            pairs.append((float(self.breaks[k]), float(self.breaks[k + 1])))
        return IntervalSet.from_pairs(pairs)

    def segments(self) -> Iterator_of_segments:
        """Iterate ``(left, right, value)`` triples."""
        for k in range(self.values.size):
            yield float(self.breaks[k]), float(self.breaks[k + 1]), float(self.values[k])

    # -- algebra ------------------------------------------------------------
    def map(self, fn: Callable[[float], float]) -> "StepFunction":
        """Apply ``fn`` to each constant value (``fn(0)`` must be 0 to keep
        the implicit zero extension consistent; this is asserted)."""
        # deliberately stricter than TOLERANCE: fn(0) must be exactly zero
        # up to rounding, or the implicit zero extension drifts
        if abs(fn(0.0)) > FINE_TOL:
            raise ValueError("map requires fn(0) == 0 to preserve zero extension")
        return StepFunction(self.breaks.copy(), np.array([fn(v) for v in self.values]))

    def compact(self) -> "StepFunction":
        """Merge adjacent segments with equal values and trim zero edges."""
        b, v = self.breaks, self.values
        keep = np.empty(v.size, dtype=bool)
        keep[0] = True
        keep[1:] = v[1:] != v[:-1]
        new_breaks = [float(b[0])]
        new_values = []
        for k in range(v.size):
            if keep[k]:
                new_values.append(float(v[k]))
                if k > 0:
                    new_breaks.append(float(b[k]))
        new_breaks.append(float(b[-1]))
        # trim leading/trailing zeros
        while len(new_values) > 1 and new_values[0] == 0.0:
            new_values.pop(0)
            new_breaks.pop(0)
        while len(new_values) > 1 and new_values[-1] == 0.0:
            new_values.pop()
            new_breaks.pop()
        return StepFunction(np.array(new_breaks), np.array(new_values))

    def _binary(self, other: "StepFunction", op: Callable) -> "StepFunction":
        breaks = np.union1d(self.breaks, other.breaks)
        mids = (breaks[:-1] + breaks[1:]) / 2.0
        values = op(self(mids), other(mids))
        return StepFunction(breaks, np.asarray(values, dtype=float)).compact()

    def __add__(self, other: "StepFunction") -> "StepFunction":
        return self._binary(other, np.add)

    def __sub__(self, other: "StepFunction") -> "StepFunction":
        return self._binary(other, np.subtract)

    def maximum(self, other: "StepFunction") -> "StepFunction":
        """Pointwise maximum of two step functions."""
        return self._binary(other, np.maximum)

    def scale(self, c: float) -> "StepFunction":
        """Multiply every value by the constant ``c``."""
        return StepFunction(self.breaks.copy(), self.values * float(c))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StepFunction):
            return NotImplemented
        a, b = self.compact(), other.compact()
        return np.array_equal(a.breaks, b.breaks) and np.array_equal(a.values, b.values)

    def __hash__(self) -> int:  # pragma: no cover - rarely needed
        c = self.compact()
        return hash((c.breaks.tobytes(), c.values.tobytes()))

    def __repr__(self) -> str:
        parts = ", ".join(
            f"[{l:g},{r:g})={v:g}" for l, r, v in list(self.segments())[:6]
        )
        more = "" if self.values.size <= 6 else f", ...({self.values.size} segs)"
        return f"StepFunction({parts}{more})"


from typing import Iterator as _Iterator  # noqa: E402  (typing helper)

Iterator_of_segments = _Iterator[tuple[float, float, float]]


def pulse(left: float, right: float, height: float) -> StepFunction:
    """A single rectangular pulse of the given height on ``[left, right)``."""
    return StepFunction(np.array([left, right], dtype=float), np.array([height], dtype=float))


def sum_pulses(pulses: Sequence[tuple[float, float, float]]) -> StepFunction:
    """Sum of rectangular pulses ``(left, right, height)`` via one sweep.

    This is the workhorse for demand profiles: one vectorized merged event
    queue (O(n log n)) instead of n pairwise additions.  See
    :func:`repro.core.vectorized.vec_demand_profile` for the kernel and
    :func:`sum_pulses_reference` for the retired pure-Python version.
    """
    # deferred: vectorized imports stepfun
    from .vectorized import vec_demand_profile

    if not pulses:
        return StepFunction.zero()
    arr = np.asarray(pulses, dtype=float)
    return vec_demand_profile(arr[:, 0], arr[:, 1], arr[:, 2])


def sum_pulses_reference(pulses: Sequence[tuple[float, float, float]]) -> StepFunction:
    """The pre-sweep-kernel implementation (dict of event deltas), kept as a
    differential-test oracle for :func:`sum_pulses`."""
    if not pulses:
        return StepFunction.zero()
    events: dict[float, float] = {}
    for left, right, height in pulses:
        if right <= left:
            raise ValueError("pulse with empty support")
        events[left] = events.get(left, 0.0) + height
        events[right] = events.get(right, 0.0) - height
    breaks = np.array(sorted(events))
    deltas = np.array([events[t] for t in breaks])
    values = np.cumsum(deltas)[:-1]
    # tiny negative residue from float cancellation -> clamp to 0
    values[np.abs(values) < TOLERANCE] = 0.0
    return StepFunction(breaks, values).compact()
