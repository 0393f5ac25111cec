"""INC-OFFLINE: the 9-approximation for offline BSHM-INC (Section IV).

The partitioning strategy: split the instance into size classes
``J_i = {J : s(J) in (g_{i-1}, g_i]}`` and schedule each class independently
on type-``i`` machines with the homogeneous Dual-Coloring algorithm.

Lemma 4 bounds the partitioned configuration cost by ``9/4`` times the
optimal configuration at every instant; combined with the Dual-Coloring
``4 ceil(s/g)`` machine bound this yields the 9-approximation.
"""

from __future__ import annotations

from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..schedule.schedule import Schedule
from .columnar_peel import inc_offline_columnar

__all__ = ["inc_offline"]


def inc_offline(
    jobs: JobSet,
    ladder: Ladder,
    *,
    require_regime: bool = True,
) -> Schedule:
    """Run INC-OFFLINE on an instance."""
    if require_regime and not ladder.is_inc:
        raise ValueError(
            f"ladder regime is {ladder.regime.value}, not BSHM-INC; "
            "use the matching algorithm or pass require_regime=False"
        )
    if not jobs.empty and not ladder.fits(jobs.max_size):
        raise ValueError("an instance job exceeds the largest machine capacity")
    return inc_offline_columnar(jobs, ladder)
