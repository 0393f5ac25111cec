"""repro — Busy-Time Scheduling on Heterogeneous Machines (BSHM).

A full reproduction of Ren & Tang, *Busy-Time Scheduling on Heterogeneous
Machines*, IPDPS 2020: the DEC/INC/general offline approximation algorithms,
the non-clairvoyant online algorithms, the Eq.-(1) lower bound, exact oracles
and a benchmark harness validating every theorem.

Quickstart
----------
>>> import numpy as np
>>> from repro import (Job, JobSet, dec_ladder, dec_offline, lower_bound,
...                    assert_feasible)
>>> jobs = JobSet([Job(size=0.5, arrival=0, departure=4),
...                Job(size=2.0, arrival=1, departure=5)])
>>> ladder = dec_ladder(3)
>>> schedule = dec_offline(jobs, ladder)
>>> assert_feasible(schedule, jobs)
"""

from .core.intervals import Interval, IntervalSet, union_length
from .core.stepfun import StepFunction, pulse, sum_pulses, sum_pulses_reference
from .core.events import Event, EventKind, event_stream, elementary_segments
from .core.sweep import (
    BusyIntervalCache,
    busy_time_reference,
    busy_union_reference,
    demand_profile_reference,
    grouped_busy_time_reference,
    merged_events,
    nested_demand_reference,
    peak_load_reference,
    sweep_busy_time,
    sweep_busy_union,
    sweep_demand_profile,
    sweep_grouped_busy_time,
    sweep_nested_demand,
    sweep_peak_load,
)
from .core.vectorized import (
    DEFAULT_VEC_THRESHOLD,
    dispatch_threshold,
    use_vectorized,
    vec_busy_cost,
    vec_busy_time,
    vec_busy_union,
    vec_demand_profile,
    vec_demand_steps,
    vec_event_steps,
    vec_grouped_busy_time,
    vec_nested_demand,
    vec_peak_load,
    vec_threshold,
)
from .jobs.job import Job
from .jobs.jobset import JobArrays, JobSet
from .jobs.generators.workloads import (
    adversarial_staircase,
    bounded_mu_workload,
    bursty_workload,
    day_night_workload,
    poisson_workload,
    uniform_workload,
)
from .jobs.generators.advanced import (
    flash_crowd_workload,
    mmpp_workload,
    replay_arrays,
    sawtooth_workload,
)
from .jobs.io import (
    read_instance_json,
    read_jobs_csv,
    read_ladder_csv,
    write_instance_json,
    write_jobs_csv,
    write_ladder_csv,
    write_schedule_csv,
)
from .core.interval_tree import StaticIntervalTree
from .machines.types import MachineType
from .machines.ladder import Ladder, Regime, TypeForest
from .machines.catalog import (
    dec_ladder,
    ec2_like_ladder,
    inc_ladder,
    paper_fig2_ladder,
    random_general_ladder,
    single_type_ladder,
)
from .machines.normalization import Normalization, normalize, prune_dominated
from .schedule.schedule import MachineKey, Schedule
from .schedule.validate import (
    FeasibilityError,
    FeasibilityReport,
    assert_feasible,
    validate_schedule,
)
from .lowerbound.config import ConfigSolver, OptimalConfig, optimal_config, solve_configs
from .lowerbound.bound import LowerBoundResult, lower_bound
from .placement.chart import Band, DemandChart, Placement
from .placement.greedy import place_jobs
from .offline.dual_coloring import dual_coloring_schedule
from .offline.uniform import color_tracks, max_concurrency, uniform_track_schedule
from .offline.dec_offline import dec_offline
from .offline.inc_offline import inc_offline
from .offline.general_offline import general_offline
from .online.engine import JobView, OnlineScheduler, run_online
from .online.first_fit import FirstFitScheduler
from .online.dec_online import DecOnlineScheduler
from .online.inc_online import IncOnlineScheduler
from .online.general_online import GeneralOnlineScheduler
from .online.clairvoyant import DurationClassScheduler, run_clairvoyant
from .baselines.naive import CheapestFitGreedy, LargestTypeFirstFit, OneJobPerMachine
from .exact.milp import MilpResult, solve_optimal
from .exact.brute import brute_force_optimal
from .analysis.certificates import CertificateResult, certify_dec_online
from .analysis.sweeps import Sweep, SweepRow
from .analysis.hardness import HardInstance, search_hard_instance
from .analysis.profiling import Profiler
from .analysis.report import schedule_report
from .lowerbound.simple import all_bounds, span_bound, volume_bound
from .jobs.transform import (
    clip_to_window,
    concatenate,
    crop,
    scale_sizes,
    scale_time,
    shift_time,
)
from .jobs.generators.adversary import batch_trap, ff_trap
from .schedule.billing import FLUID, BillingModel, billed_cost, billing_overhead
from .online.windowed import windowed_schedule
from .viz.svg import gantt_svg, placement_svg
from .machines.recommend import Recommendation, recommend_subset
from .exact.lp_relax import lp_relaxation_bound
from .analysis.crossover import CrossoverResult, find_crossover
from .online.journal import Journal, JournalingScheduler, render_journal
from .jobs.lint import lint_instance
from .service.runtime import Admission, SchedulerRuntime, make_scheduler
from .service.metrics import MetricsRegistry
from .service.checkpoint import (
    CheckpointError,
    load_checkpoint,
    record_trace,
    replay_trace,
    restore,
    snapshot,
    write_checkpoint,
    write_trace,
)

__version__ = "1.0.0"

__all__ = [
    "Interval",
    "IntervalSet",
    "union_length",
    "StepFunction",
    "pulse",
    "sum_pulses",
    "sum_pulses_reference",
    "BusyIntervalCache",
    "busy_time_reference",
    "busy_union_reference",
    "demand_profile_reference",
    "grouped_busy_time_reference",
    "merged_events",
    "nested_demand_reference",
    "peak_load_reference",
    "sweep_busy_time",
    "sweep_busy_union",
    "sweep_demand_profile",
    "sweep_grouped_busy_time",
    "sweep_nested_demand",
    "sweep_peak_load",
    "DEFAULT_VEC_THRESHOLD",
    "dispatch_threshold",
    "use_vectorized",
    "vec_busy_cost",
    "vec_busy_time",
    "vec_busy_union",
    "vec_demand_profile",
    "vec_demand_steps",
    "vec_event_steps",
    "vec_grouped_busy_time",
    "vec_nested_demand",
    "vec_peak_load",
    "vec_threshold",
    "Event",
    "EventKind",
    "event_stream",
    "elementary_segments",
    "Job",
    "JobArrays",
    "JobSet",
    "uniform_workload",
    "poisson_workload",
    "bounded_mu_workload",
    "day_night_workload",
    "bursty_workload",
    "adversarial_staircase",
    "MachineType",
    "Ladder",
    "Regime",
    "TypeForest",
    "dec_ladder",
    "inc_ladder",
    "ec2_like_ladder",
    "paper_fig2_ladder",
    "random_general_ladder",
    "single_type_ladder",
    "Normalization",
    "normalize",
    "prune_dominated",
    "MachineKey",
    "Schedule",
    "FeasibilityError",
    "FeasibilityReport",
    "assert_feasible",
    "validate_schedule",
    "ConfigSolver",
    "OptimalConfig",
    "optimal_config",
    "solve_configs",
    "LowerBoundResult",
    "lower_bound",
    "Band",
    "DemandChart",
    "Placement",
    "place_jobs",
    "dual_coloring_schedule",
    "dec_offline",
    "inc_offline",
    "general_offline",
    "JobView",
    "OnlineScheduler",
    "run_online",
    "FirstFitScheduler",
    "DecOnlineScheduler",
    "IncOnlineScheduler",
    "GeneralOnlineScheduler",
    "OneJobPerMachine",
    "LargestTypeFirstFit",
    "CheapestFitGreedy",
    "MilpResult",
    "solve_optimal",
    "brute_force_optimal",
    "flash_crowd_workload",
    "mmpp_workload",
    "replay_arrays",
    "sawtooth_workload",
    "read_instance_json",
    "read_jobs_csv",
    "read_ladder_csv",
    "write_instance_json",
    "write_jobs_csv",
    "write_ladder_csv",
    "write_schedule_csv",
    "StaticIntervalTree",
    "color_tracks",
    "max_concurrency",
    "uniform_track_schedule",
    "DurationClassScheduler",
    "run_clairvoyant",
    "CertificateResult",
    "certify_dec_online",
    "Sweep",
    "SweepRow",
    "HardInstance",
    "search_hard_instance",
    "Profiler",
    "schedule_report",
    "all_bounds",
    "span_bound",
    "volume_bound",
    "clip_to_window",
    "concatenate",
    "crop",
    "scale_sizes",
    "scale_time",
    "shift_time",
    "batch_trap",
    "ff_trap",
    "FLUID",
    "BillingModel",
    "billed_cost",
    "billing_overhead",
    "windowed_schedule",
    "gantt_svg",
    "placement_svg",
    "Recommendation",
    "recommend_subset",
    "lp_relaxation_bound",
    "CrossoverResult",
    "find_crossover",
    "Journal",
    "JournalingScheduler",
    "render_journal",
    "lint_instance",
    "Admission",
    "SchedulerRuntime",
    "make_scheduler",
    "MetricsRegistry",
    "CheckpointError",
    "load_checkpoint",
    "record_trace",
    "replay_trace",
    "restore",
    "snapshot",
    "write_checkpoint",
    "write_trace",
    "__version__",
]
