"""Tolerance-explicit comparisons for float time coordinates.

Event times in this codebase are floats, and two conventions coexist:

- **Exact** comparisons where bit-identity is the contract (event
  dedup in the sweep kernels, checkpoint replay verification).
- **Tolerant** comparisons where times arrive from arithmetic (window
  boundaries, billing roundups) and a ``time_tol`` guard absorbs float
  noise, mirroring the ``time_tol`` parameter of
  :func:`repro.core.vectorized.vec_peak_load`.

Bare ``==`` / ``!=`` on time coordinates hides which convention is in
play, which is how zero-measure phantom segments sneak in; the BSHM002
lint rule therefore requires time equality to go through this module
(or to carry a justified ``# bshm: ignore[BSHM002]`` when exactness is
the point).  ``time_eq(a, b, tol=0.0)`` *is* exact equality — the win
is that the tolerance is now part of the call site's vocabulary.
"""

from __future__ import annotations

from .tolerance import TIME_TOL

__all__ = ["TIME_TOL", "time_eq", "time_ne", "time_lt", "time_le"]


def time_eq(a: float, b: float, tol: float = TIME_TOL) -> bool:
    """Whether two time coordinates coincide up to ``tol``."""
    return abs(a - b) <= tol


def time_ne(a: float, b: float, tol: float = TIME_TOL) -> bool:
    """Whether two time coordinates differ by more than ``tol``."""
    return abs(a - b) > tol


def time_lt(a: float, b: float, tol: float = TIME_TOL) -> bool:
    """Whether ``a`` precedes ``b`` by strictly more than ``tol``."""
    return a < b - tol


def time_le(a: float, b: float, tol: float = TIME_TOL) -> bool:
    """Whether ``a`` precedes or equals ``b`` up to ``tol``."""
    return a <= b + tol
