"""GEN-OFFLINE: the Section-V algorithm for general BSHM ladders.

The machine types form a forest (:class:`~repro.machines.ladder.TypeForest`):
``parent(i)`` is the lowest-indexed type ``j > i`` whose amortized rate is at
most type ``i``'s.  Jobs are scheduled by traversing the forest in
post-order.  At node ``j``:

- collect the not-yet-scheduled jobs of ``J_j`` — size in
  ``(g_{lo(j)-1}, g_j]`` where the subtree rooted at ``j`` spans
  ``lo(j)..j``;
- place them in a demand chart and slice into strips of height ``g_j / 2``;
- if ``j`` is a tree root, schedule everything (unbounded strips);
- otherwise schedule the jobs touching the bottom
  ``B_j = ceil(r_k / (r_j * sqrt(|C(k)|)))`` strips onto type-``j`` machines
  (``k`` = parent, ``|C(k)|`` = its child count) and pass the rest to ``k``.

The paper conjectures an ``O(sqrt(m))`` approximation; E5 measures the
empirical shape.  On a DEC ladder the forest is a path and this reduces to a
DEC-OFFLINE variant; on an INC ladder every node is a root and the algorithm
coincides with INC-OFFLINE exactly.
"""

from __future__ import annotations

import math

from ..core.tolerance import TOLERANCE
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..schedule.schedule import Schedule
from .columnar_peel import general_offline_columnar

__all__ = ["general_offline", "node_strip_budget"]


def node_strip_budget(ladder: Ladder, node: int, parent: int, siblings: int) -> int:
    """``ceil((1 / sqrt(|C(k)|)) * r_k / r_j)`` strips for a non-root node."""
    ratio = ladder.rate(parent) / ladder.rate(node)
    return max(1, math.ceil(ratio / math.sqrt(siblings) - TOLERANCE))


def general_offline(jobs: JobSet, ladder: Ladder) -> Schedule:
    """Run GEN-OFFLINE on an instance over an arbitrary ladder."""
    if not jobs.empty and not ladder.fits(jobs.max_size):
        raise ValueError("an instance job exceeds the largest machine capacity")
    return general_offline_columnar(jobs, ladder)
