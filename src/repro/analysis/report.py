"""Markdown schedule reports.

``schedule_report`` turns one schedule (plus its instance and lower bound)
into a self-contained markdown document: headline numbers, per-type
breakdown, busiest machines, and an ASCII demand chart.  Exposed on the CLI
as ``bshm schedule ... --report out.md``.
"""

from __future__ import annotations

from ..jobs.jobset import JobSet
from ..lowerbound.bound import lower_bound
from ..schedule.schedule import Schedule
from ..viz.ascii_chart import render_profile
from .metrics import compute_metrics

__all__ = ["schedule_report"]


def schedule_report(
    schedule: Schedule,
    jobs: JobSet,
    *,
    title: str = "BSHM schedule report",
    algorithm: str = "?",
) -> str:
    """Render a markdown report for one schedule."""
    ladder = schedule.ladder
    lb = lower_bound(jobs, ladder).value
    metrics = compute_metrics(schedule)
    lines = [f"# {title}", ""]
    lines.append(f"- algorithm: **{algorithm}**")
    lines.append(
        f"- instance: {len(jobs)} jobs, peak demand {jobs.peak_demand():.3g}, "
        f"mu = {jobs.mu:.3g}"
    )
    lines.append(
        f"- ladder: {ladder.m} types, regime **{ladder.regime.value}** "
        f"(capacities {', '.join(f'{g:g}' for g in ladder.capacities)})"
    )
    lines.append(f"- total cost: **{metrics.cost:.4f}**")
    ratio = metrics.cost / lb if lb > 0 else float("inf")
    lines.append(f"- lower bound (Eq. 1): {lb:.4f} — measured ratio **{ratio:.4f}**")
    lines.append(f"- machines used: {metrics.machines}")
    lines.append(f"- utilization (volume / paid capacity-time): {metrics.utilization:.3f}")
    lines.append("")

    lines.append("## Cost by machine type")
    lines.append("")
    lines.append("| type | capacity | rate | machines | peak busy | cost | share |")
    lines.append("|---|---|---|---|---|---|---|")
    for i in range(1, ladder.m + 1):
        cost = metrics.cost_by_type[i]
        share = cost / metrics.cost if metrics.cost > 0 else 0.0
        lines.append(
            f"| {i} | {ladder.capacity(i):g} | {ladder.rate(i):g} "
            f"| {metrics.machines_by_type[i]} | {metrics.peak_busy_by_type[i]} "
            f"| {cost:.3f} | {share:.1%} |"
        )
    lines.append("")

    lines.append("## Busiest machines")
    lines.append("")
    groups = schedule.by_machine()
    busiest = sorted(
        groups, key=lambda key: -schedule.machine_cost(key)
    )[:10]
    lines.append("| machine | jobs | busy time | cost |")
    lines.append("|---|---|---|---|")
    for key in busiest:
        busy = schedule.busy_set(key).length
        lines.append(
            f"| {key} | {len(groups[key])} | {busy:.3f} "
            f"| {busy * ladder.rate(key.type_index):.3f} |"
        )
    lines.append("")

    lines.append("## Demand profile")
    lines.append("")
    lines.append("```")
    lines.append(render_profile(jobs.demand_profile(), width=68, height=10))
    lines.append("```")
    lines.append("")
    return "\n".join(lines)
