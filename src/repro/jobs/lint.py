"""Instance linting: catch trace problems before they become mysteries.

``lint_instance`` inspects a job set (optionally against a ladder) and
returns human-readable warnings for the patterns that most often indicate a
broken trace or a mis-scaled catalogue:

- jobs that do not fit the largest machine (hard error downstream),
- near-zero durations (numerically fragile, blow up mu),
- extreme mu (online guarantees degrade linearly in mu),
- sizes far below the smallest capacity (suspected unit mismatch),
- duplicate (size, arrival, departure) triples (suspected double export).

Used by the CLI before scheduling; returns a list of warning strings
(empty = clean).
"""

from __future__ import annotations

import numpy as np

from ..machines.ladder import Ladder
from .jobset import JobSet

__all__ = ["lint_instance"]


def lint_instance(jobs: JobSet, ladder: Ladder | None = None) -> list[str]:
    """Return a list of warnings (empty when the instance looks healthy).

    Every check reads the set's columns, so linting a trace builds no
    ``Job`` objects.
    """
    warnings: list[str] = []
    if jobs.empty:
        return ["instance is empty"]

    a = jobs.to_arrays()
    min_dur, max_dur = jobs.min_duration, jobs.max_duration
    if min_dur < 1e-6 * max_dur:
        warnings.append(
            f"duration spread is extreme: shortest {min_dur:g} vs longest "
            f"{max_dur:g} (mu = {jobs.mu:.3g}); check the trace's time units"
        )
    elif jobs.mu > 1e4:
        warnings.append(
            f"mu = {jobs.mu:.3g} is very large; online guarantees degrade "
            "linearly in mu"
        )

    # exact duplicates: rows equal to their predecessor in (size, arrival,
    # departure) order; == makes -0.0 and 0.0 one value, as a Counter does
    order = np.lexsort((a.ends, a.starts, a.sizes))
    s, t0, t1 = a.sizes[order], a.starts[order], a.ends[order]
    dupes = int(
        np.count_nonzero((s[1:] == s[:-1]) & (t0[1:] == t0[:-1]) & (t1[1:] == t1[:-1]))
    )
    if dupes:
        warnings.append(
            f"{dupes} jobs are exact duplicates of another (size, arrival, "
            "departure); double export?"
        )

    if ladder is not None:
        oversize = int(np.count_nonzero(a.sizes > ladder.capacity(ladder.m)))
        if oversize:
            warnings.append(
                f"{oversize} jobs exceed the largest capacity "
                f"{ladder.capacity(ladder.m):g} and cannot be scheduled"
            )
        tiny = int(np.count_nonzero(a.sizes < 0.001 * ladder.capacity(1)))
        if tiny > len(jobs) // 2:
            warnings.append(
                "most job sizes are below 0.1% of the smallest capacity; "
                "suspected unit mismatch between trace and catalogue"
            )
    return warnings
