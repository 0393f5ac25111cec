"""Section V placement: demand charts, greedy dual placement, strips.

Public surface: the :class:`DemandChart` / :class:`Band` /
:class:`Placement` geometry, the greedy altitude placer, the
strip-splitting / two-coloring machinery behind the forest construction,
and the array-native columnar stages the offline engines run
(:mod:`repro.placement.columnar`).
"""

from .chart import Band, DemandChart, Placement
from .columnar import (
    columnar_altitudes,
    columnar_strip_slices,
    columnar_two_color,
)
from .greedy import GreedyDualPlacer, place_jobs
from .strips import StripAssignment, split_into_strips, two_color

__all__ = [
    "Band",
    "DemandChart",
    "Placement",
    "GreedyDualPlacer",
    "place_jobs",
    "StripAssignment",
    "split_into_strips",
    "two_color",
    "columnar_altitudes",
    "columnar_strip_slices",
    "columnar_two_color",
]
