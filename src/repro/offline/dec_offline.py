"""DEC-OFFLINE: the 14-approximation for offline BSHM-DEC (Theorem 1).

Iteration ``i`` (for ``i = 1..m-1``):

1. Collect the still-unscheduled jobs of size at most ``g_i``  (the paper's
   ``J̈_i``) and place them in a fresh demand chart.
2. Slice into strips of height ``g_i / 2``.
3. Schedule every job *touching the bottom* ``B_i = 2 (r_{i+1}/r_i - 1)``
   strips onto type-``i`` machines: one machine per bottom strip for the
   fully-inside jobs, two machines per crossed boundary ``1..B_i`` for the
   crossing jobs — at most ``3 B_i = 6 (r_{i+1}/r_i - 1)`` type-``i``
   machines busy at any time.
4. Everything above the bottom region rolls over to iteration ``i + 1``.

The final iteration ``m`` schedules every remaining job with unbounded
strips (the homogeneous Dual-Coloring step).

The ladder should be in Section-II normal form (power-of-2 rates) for the
paper's constants to apply; :func:`strip_budget` gracefully handles general
ladders by rounding the budget up.
"""

from __future__ import annotations

import math

from ..core.tolerance import TOLERANCE
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..schedule.schedule import Schedule
from .columnar_peel import dec_offline_columnar

__all__ = ["dec_offline", "strip_budget"]


def strip_budget(rate_ratio: float, factor: float = 2.0) -> int:
    """The bottom-region width ``factor * (r_{i+1}/r_i - 1)`` in strips.

    Exact (and integral) for power-of-2 rates; rounded up otherwise so the
    bottom region never shrinks below the paper's.  ``factor`` is exposed for
    the E10 ablation.
    """
    if rate_ratio <= 1:
        raise ValueError("rate ratio must exceed 1 between consecutive types")
    return max(1, math.ceil(factor * (rate_ratio - 1.0) - TOLERANCE))


def dec_offline(
    jobs: JobSet,
    ladder: Ladder,
    *,
    budget_factor: float = 2.0,
    strip_divisor: float = 2.0,
    placement_order: str = "arrival",
    require_regime: bool = True,
) -> Schedule:
    """Run DEC-OFFLINE on an instance.

    Parameters
    ----------
    budget_factor:
        The ``2`` in ``B_i = 2 (r_{i+1}/r_i - 1)``; ablation knob (E10).
    strip_divisor:
        Strip height is ``g_i / strip_divisor`` (paper: 2); must be >= 2
        so a strip machine's load stays within capacity.
    placement_order:
        The placement phase's processing order (``"arrival"``, ``"size"``
        or ``"duration"``; see :func:`~repro.placement.greedy.place_jobs`).
    require_regime:
        When true (default), reject ladders that are not BSHM-DEC.
    """
    if strip_divisor < 2.0:
        raise ValueError("strip_divisor below 2 would overload strip machines")
    if require_regime and not ladder.is_dec:
        raise ValueError(
            f"ladder regime is {ladder.regime.value}, not BSHM-DEC; "
            "use the matching algorithm or pass require_regime=False"
        )
    if not jobs.empty and not ladder.fits(jobs.max_size):
        raise ValueError("an instance job exceeds the largest machine capacity")
    return dec_offline_columnar(
        jobs,
        ladder,
        budget_factor=budget_factor,
        strip_divisor=strip_divisor,
        placement_order=placement_order,
    )
