"""Offline BSHM algorithms (Sections III–V) and their columnar engines.

Each algorithm module keeps its own full surface and validates its input;
the strip peeling itself runs in :mod:`repro.offline.columnar_peel` at every
instance size.  This package re-exports the schedule entry points so callers
can write ``from repro.offline import dec_offline``.
"""

from .columnar_peel import (
    dec_offline_columnar,
    general_offline_columnar,
    inc_offline_columnar,
)
from .dec_offline import dec_offline, strip_budget
from .dual_coloring import dual_coloring_assign, dual_coloring_schedule
from .general_offline import general_offline, node_strip_budget
from .inc_offline import inc_offline

__all__ = [
    "dec_offline",
    "dec_offline_columnar",
    "dual_coloring_assign",
    "dual_coloring_schedule",
    "general_offline",
    "general_offline_columnar",
    "inc_offline",
    "inc_offline_columnar",
    "node_strip_budget",
    "strip_budget",
]
