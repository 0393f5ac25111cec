"""Command-line entry point: ``bshm``.

Subcommands::

    bshm list                     # list experiments
    bshm run E1 [--scale quick]   # run one experiment, print its table
    bshm all [--scale quick]      # run every experiment
    bshm demo                     # 30-second tour: ladder, schedule, figure
    bshm schedule trace.csv --ladder ladder.csv [--algorithm auto]
                                  # schedule a CSV job trace, print the bill,
                                  # optionally write the assignment CSV
    bshm generate --workload day-night --n 200 --out trace.csv
                                  # synthesize a workload (and/or a ladder)
    bshm recommend trace.csv --ladder ladder.csv [--max-types 3]
                                  # which catalogue subset should be enabled?
    bshm serve --ladder-kind dec --m 3 --port 8642
                                  # streaming scheduler service (JSON lines
                                  # over TCP: submit/depart/stats/checkpoint);
                                  # --wal DIR makes it durable
    bshm recover WALDIR           # rebuild state from a WAL directory and
                                  # report it
    bshm replay trace.jsonl [--verify] [--checkpoint ckpt.json]
                                  # re-execute a recorded service trace
    bshm lint trace.csv [--ladder ladder.csv]
                                  # sanity-check a job trace / catalogue pair
    bshm check [paths ...]        # invariant-aware static analysis: AST lint
                                  # rules + whole-program call-graph rules
                                  # over src/ tests/ benchmarks/ by default;
                                  # exit 1 on findings.  --format text|json|
                                  # sarif, --baseline/--write-baseline,
                                  # --diff REF (changed lines only),
                                  # --no-cache/--cache-dir, --list-rules,
                                  # --external, --refresh-schema-manifest
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path

from .experiments import ALL_EXPERIMENTS, run_experiment


def _input_error(path: str, what: str) -> str | None:
    """Why ``path`` cannot be read as ``what`` (None when it can)."""
    p = Path(path)
    if not p.exists():
        return f"{what} {path!r} does not exist"
    if p.is_dir():
        return f"{what} {path!r} is a directory, expected a file"
    if not os.access(p, os.R_OK):
        return f"{what} {path!r} is not readable"
    return None


def _output_error(path: str, what: str) -> str | None:
    """Why ``path`` cannot be written as ``what`` (None when it can)."""
    p = Path(path)
    if p.is_dir():
        return f"{what} {path!r} is a directory, expected a file path"
    parent = p.parent if str(p.parent) else Path(".")
    if not parent.exists():
        return f"directory {str(parent)!r} for {what} does not exist"
    if not parent.is_dir():
        return f"{str(parent)!r} (for {what}) is not a directory"
    if not os.access(parent, os.W_OK):
        return f"directory {str(parent)!r} for {what} is not writable"
    if p.exists() and not os.access(p, os.W_OK):
        return f"{what} {path!r} exists and is not writable"
    return None


def _fail(*problems: str | None) -> int | None:
    """Print the first real problem to stderr and return exit code 2."""
    for problem in problems:
        if problem:
            print(f"error: {problem}", file=sys.stderr)
            return 2
    return None


def _cmd_list() -> int:
    for eid, module in ALL_EXPERIMENTS.items():
        print(f"{eid:4s} {module.TITLE}")
    return 0


def _cmd_run(experiment_id: str, scale: str) -> int:
    result = run_experiment(experiment_id, scale=scale)
    print(result.render())
    return 0 if result.passed else 1


def _cmd_all(scale: str, save: str | None = None) -> int:
    if save:
        from .experiments.persist import save_all

        outcomes = save_all(save, scale=scale)
        for eid, passed in outcomes.items():
            print(f"{eid:4s} {'PASS' if passed else 'FAIL'}")
        print(f"artifacts saved under {save}/")
        return 0 if all(outcomes.values()) else 1
    status = 0
    for eid in ALL_EXPERIMENTS:
        result = run_experiment(eid, scale=scale)
        print(result.render())
        print()
        if not result.passed:
            status = 1
    return status


def _cmd_demo() -> int:
    import numpy as np

    from .jobs.generators.workloads import day_night_workload
    from .lowerbound.bound import lower_bound
    from .machines.catalog import dec_ladder
    from .offline.dec_offline import dec_offline
    from .online.dec_online import DecOnlineScheduler
    from .online.engine import run_online
    from .placement.greedy import place_jobs
    from .viz.ascii_chart import render_placement
    from .viz.gantt import render_gantt

    ladder = dec_ladder(3)
    jobs = day_night_workload(60, np.random.default_rng(0), max_size=ladder.capacity(3))
    lb = lower_bound(jobs, ladder).value
    offline = dec_offline(jobs, ladder)
    online = run_online(jobs, DecOnlineScheduler(ladder))
    print(f"ladder: {ladder}")
    print(f"instance: {len(jobs)} jobs, mu={jobs.mu:.2f}, lower bound {lb:.2f}")
    print(f"DEC-OFFLINE cost {offline.cost():.2f}  (ratio {offline.cost() / lb:.3f})")
    print(f"DEC-ONLINE  cost {online.cost():.2f}  (ratio {online.cost() / lb:.3f})")
    print("\ndemand chart with placed jobs (Fig. 1 style):")
    print(render_placement(place_jobs(jobs), width=72, height=14))
    print("\nmachine gantt (offline schedule, first machines):")
    print(render_gantt(offline, max_machines=12))
    return 0


def _cmd_schedule(
    trace: str,
    ladder_path: str,
    algorithm: str,
    output: str | None,
    report: str | None = None,
) -> int:
    from .jobs.io import read_jobs_csv, read_ladder_csv, write_schedule_csv
    from .lowerbound.bound import lower_bound
    from .machines.ladder import Regime
    from .offline.dec_offline import dec_offline
    from .offline.general_offline import general_offline
    from .offline.inc_offline import inc_offline
    from .online.dec_online import DecOnlineScheduler
    from .online.engine import run_online
    from .online.general_online import GeneralOnlineScheduler
    from .online.inc_online import IncOnlineScheduler
    from .schedule.validate import assert_feasible

    failed = _fail(
        _input_error(trace, "job trace"),
        _input_error(ladder_path, "ladder CSV"),
        _output_error(output, "assignment output") if output else None,
        _output_error(report, "report output") if report else None,
    )
    if failed:
        return failed
    try:
        jobs = read_jobs_csv(trace)
        ladder = read_ladder_csv(ladder_path)
    except (ValueError, csv.Error) as exc:
        return _fail(str(exc))
    from .jobs.lint import lint_instance

    for warning in lint_instance(jobs, ladder):
        print(f"warning: {warning}")
    if not jobs.empty and not ladder.fits(jobs.max_size):
        return _fail(
            f"job size {jobs.max_size:g} exceeds the largest capacity "
            f"{ladder.capacity(ladder.m):g} of {ladder_path}"
        )
    regime = ladder.regime
    if algorithm == "auto":
        algorithm = {
            Regime.DEC: "dec-offline",
            Regime.INC: "inc-offline",
            Regime.GENERAL: "gen-offline",
        }[regime]
    runners = {
        "dec-offline": lambda: dec_offline(jobs, ladder),
        "inc-offline": lambda: inc_offline(jobs, ladder),
        "gen-offline": lambda: general_offline(jobs, ladder),
        "dec-online": lambda: run_online(jobs, DecOnlineScheduler(ladder)),
        "inc-online": lambda: run_online(jobs, IncOnlineScheduler(ladder)),
        "gen-online": lambda: run_online(jobs, GeneralOnlineScheduler(ladder)),
    }
    if algorithm not in runners:
        print(f"unknown algorithm {algorithm!r}; choose from {sorted(runners)}")
        return 2
    schedule = runners[algorithm]()
    assert_feasible(schedule, jobs)
    lb = lower_bound(jobs, ladder).value
    print(f"instance: {len(jobs)} jobs, ladder regime {regime.value}, mu={jobs.mu:.2f}")
    print(f"algorithm: {algorithm}")
    print(f"cost: {schedule.cost():.4f}  (lower bound {lb:.4f}, ratio {schedule.cost()/max(lb,1e-12):.4f})")
    print(f"machines used: {len(schedule.machines())}")
    for i, cost in schedule.cost_by_type().items():
        if cost > 0:
            print(f"  type {i} (g={ladder.capacity(i):g}): {cost:.4f}")
    if output:
        write_schedule_csv(schedule, output)
        print(f"assignment written to {output}")
    if report:
        from .analysis.report import schedule_report

        Path(report).write_text(
            schedule_report(schedule, jobs, algorithm=algorithm)
        )
        print(f"report written to {report}")
    return 0


def _cmd_generate(
    workload: str, n: int, seed: int, out: str, ladder_kind: str | None, ladder_out: str | None, m: int
) -> int:
    import numpy as np

    from .jobs.generators import workloads as w
    from .jobs.generators.advanced import flash_crowd_workload, mmpp_workload
    from .jobs.io import write_jobs_csv, write_ladder_csv
    from .machines import catalog

    failed = _fail(
        _output_error(out, "job trace output"),
        _output_error(ladder_out, "ladder output") if ladder_out else None,
    )
    if failed:
        return failed
    ladder = None
    if ladder_kind:
        makers = {
            "dec": lambda: catalog.dec_ladder(m),
            "inc": lambda: catalog.inc_ladder(m),
            "ec2": lambda: catalog.ec2_like_ladder(m),
            "fig2": catalog.paper_fig2_ladder,
        }
        if ladder_kind not in makers:
            print(f"unknown ladder kind {ladder_kind!r}; choose from {sorted(makers)}")
            return 2
        ladder = makers[ladder_kind]()
        if ladder_out:
            write_ladder_csv(ladder, ladder_out)
            print(f"ladder ({ladder_kind}, m={ladder.m}) written to {ladder_out}")
    gmax = ladder.capacity(ladder.m) if ladder is not None else 1.0
    rng = np.random.default_rng(seed)
    generators = {
        "uniform": lambda: w.uniform_workload(n, rng, max_size=gmax),
        "poisson": lambda: w.poisson_workload(n, rng, max_size=gmax),
        "day-night": lambda: w.day_night_workload(n, rng, max_size=gmax),
        "bursty": lambda: w.bursty_workload(n, rng, max_size=gmax),
        "mmpp": lambda: mmpp_workload(n, rng, max_size=gmax),
        "flash-crowd": lambda: flash_crowd_workload(n, rng, max_size=gmax),
    }
    if workload not in generators:
        print(f"unknown workload {workload!r}; choose from {sorted(generators)}")
        return 2
    jobs = generators[workload]()
    write_jobs_csv(jobs, out)
    print(f"{len(jobs)} {workload} jobs (seed {seed}, max size {gmax:g}) written to {out}")
    return 0


def _cmd_recommend(trace: str, ladder_path: str, max_types: int | None, estimate: str) -> int:
    from .jobs.io import read_jobs_csv, read_ladder_csv
    from .machines.recommend import recommend_subset

    failed = _fail(
        _input_error(trace, "job trace"),
        _input_error(ladder_path, "catalogue CSV"),
    )
    if failed:
        return failed
    try:
        jobs = read_jobs_csv(trace)
        catalogue = read_ladder_csv(ladder_path)
    except (ValueError, csv.Error) as exc:
        return _fail(str(exc))
    rec = recommend_subset(jobs, catalogue, estimate=estimate, max_types=max_types)
    print(f"instance: {len(jobs)} jobs; catalogue: {catalogue.m} types; estimate: {estimate}")
    print(f"recommended types: {list(rec.enabled_indices)}  (cost {rec.cost:.4f})")
    print("top 5 subsets:")
    for combo, cost in rec.ranking[:5]:
        caps = [f"{catalogue.capacity(i):g}" for i in combo]
        print(f"  types {list(combo)} (capacities {', '.join(caps)}): {cost:.4f}")
    return 0


def _cmd_serve(
    host: str,
    port: int,
    scheduler: str,
    ladder_path: str | None,
    ladder_kind: str,
    m: int,
    max_active: int | None,
    trace_out: str | None,
    wal_dir: str | None,
    fsync: str,
    compact_every: int,
    max_inflight: int,
    read_timeout: float | None,
) -> int:
    import asyncio

    from .jobs.io import read_ladder_csv
    from .machines import catalog
    from .machines.ladder import Regime
    from .service.checkpoint import CheckpointError
    from .service.runtime import SCHEDULER_REGISTRY, SchedulerRuntime
    from .service.server import serve_forever
    from .service.wal import WALError, WALWriter, recover

    failed = _fail(
        _input_error(ladder_path, "ladder CSV") if ladder_path else None,
        _output_error(trace_out, "trace output") if trace_out else None,
    )
    if failed:
        return failed
    if ladder_path:
        try:
            ladder = read_ladder_csv(ladder_path)
        except (ValueError, csv.Error) as exc:
            return _fail(str(exc))
    else:
        makers = {
            "dec": lambda: catalog.dec_ladder(m),
            "inc": lambda: catalog.inc_ladder(m),
            "ec2": lambda: catalog.ec2_like_ladder(m),
            "fig2": catalog.paper_fig2_ladder,
        }
        if ladder_kind not in makers:
            print(f"unknown ladder kind {ladder_kind!r}; choose from {sorted(makers)}")
            return 2
        ladder = makers[ladder_kind]()
    if scheduler == "auto":
        scheduler = {
            Regime.DEC: "dec",
            Regime.INC: "inc",
            Regime.GENERAL: "general",
        }[ladder.regime]
    if scheduler not in SCHEDULER_REGISTRY:
        print(
            f"unknown scheduler {scheduler!r}; choose from {sorted(SCHEDULER_REGISTRY)}"
        )
        return 2
    admission: list[str | tuple[str, int]] = ["fits-ladder"]
    if max_active is not None:
        admission.append(("max-active", max_active))

    if wal_dir and Path(wal_dir).is_dir() and (
        any(Path(wal_dir).glob("wal-*.log"))
        or any(Path(wal_dir).glob("snapshot-*.json"))
    ):
        try:
            recovered = recover(wal_dir)
        except CheckpointError as exc:  # WALError and garbled-snapshot errors
            return _fail(f"cannot recover WAL {wal_dir!r}: {exc}")
        runtime = recovered.runtime
        print(
            f"bshm serve: recovered {recovered.describe()} from {wal_dir} "
            "(scheduler/ladder flags superseded by the recovered config)",
            flush=True,
        )
    else:
        runtime = SchedulerRuntime.create(scheduler, ladder, admission=admission)
    wal = None
    if wal_dir:
        try:
            wal = WALWriter(
                wal_dir, runtime, fsync=fsync, compact_every=compact_every
            )
        except WALError as exc:
            return _fail(f"cannot open WAL {wal_dir!r}: {exc}")

    live_scheduler = runtime.config["scheduler"] if runtime.config else scheduler
    live_ladder = runtime.ladder

    def ready(bound_host: str, bound_port: int) -> None:
        durability = f", wal={wal_dir} fsync={fsync}" if wal_dir else ""
        print(
            f"bshm serve: {live_scheduler} scheduler on "
            f"{live_ladder.regime.value} ladder (m={live_ladder.m})"
            f"{durability}, listening on {bound_host}:{bound_port}",
            flush=True,
        )

    try:
        asyncio.run(serve_forever(
            runtime, host, port, wal=wal, max_inflight=max_inflight,
            read_timeout=read_timeout, on_ready=ready,
        ))
    except KeyboardInterrupt:
        print("interrupted", flush=True)
    if trace_out:
        from .service.checkpoint import CheckpointError, write_trace

        try:
            write_trace(runtime, trace_out)
        except CheckpointError as exc:
            print(f"trace not written: {exc}")
        else:
            print(f"trace ({runtime.n_events} events) written to {trace_out}")
    print(
        f"served {runtime.n_events} events; final cost {runtime.cost():.4f}, "
        f"{runtime.n_active} jobs still active"
    )
    return 0


def _cmd_recover(wal_dir: str) -> int:
    from .service.checkpoint import CheckpointError, assignment_digest
    from .service.wal import recover

    if not Path(wal_dir).is_dir():
        return _fail(
            f"{wal_dir!r} is not a WAL directory (expected the directory of "
            "wal-*.log/snapshot-*.json files that bshm serve --wal writes)"
        )

    def note(line: str) -> None:
        print(f"bshm recover: {line}", flush=True)

    try:
        recovered = recover(wal_dir, progress=note)
    except CheckpointError as exc:  # WALError + garbled-snapshot errors
        return _fail(f"cannot recover WAL {wal_dir!r}: {exc}")
    runtime = recovered.runtime
    print(f"bshm recover: {recovered.describe()}")
    print(
        f"clock {runtime.clock:g}; {runtime.n_active} active job(s); "
        f"cost {runtime.cost():.6f}"
    )
    print(f"assignment sha256: {assignment_digest(runtime)}")
    return 0


def _cmd_replay(
    trace: str, checkpoint_out: str | None, verify: bool, to: str | None
) -> int:
    from .online.engine import run_online
    from .service.checkpoint import (
        CheckpointError,
        read_trace,
        replay_trace,
        write_checkpoint,
    )
    from .service.runtime import make_scheduler

    failed = _fail(
        _input_error(trace, "trace"),
        _output_error(checkpoint_out, "checkpoint output") if checkpoint_out else None,
    )
    if failed:
        return failed
    if to:
        from .service.client import ClientError, RetryingClient, replay_events

        host, _, port_text = to.rpartition(":")
        try:
            port = int(port_text)
        except ValueError:
            return _fail(f"--to must be HOST:PORT, got {to!r}")
        try:
            _header, events = read_trace(trace)
        except CheckpointError as exc:
            return _fail(f"cannot replay {trace!r}: {exc}")
        try:
            with RetryingClient(host or "127.0.0.1", port) as client:
                applied = replay_events(client, events)
        except (ClientError, OSError) as exc:
            return _fail(f"replay to {to} failed: {exc}")
        print(f"replayed {applied} events to {to} (retries with backoff)")
        return 0
    try:
        runtime = replay_trace(trace)
    except CheckpointError as exc:
        return _fail(f"cannot replay {trace!r}: {exc}")
    schedule = runtime.schedule()
    print(
        f"replayed {runtime.n_events} events: clock {runtime.clock:g}, "
        f"{len(schedule)} jobs on {len(schedule.machines())} machines, "
        f"{runtime.n_active} still active"
    )
    print(f"streaming cost: {runtime.cost():.6f}")
    if checkpoint_out:
        write_checkpoint(runtime, checkpoint_out)
        print(f"checkpoint written to {checkpoint_out}")
    if verify:
        if runtime.n_active > 0:
            print("verify skipped: open jobs remain (batch replay needs departures)")
        elif runtime.metrics.counter("rejections").value > 0:
            print("verify skipped: trace contains rejected jobs")
        else:
            batch = run_online(
                schedule.jobs,
                make_scheduler(runtime.config["scheduler"], runtime.ladder),
            )
            # compare Schedule.cost() on both sides: same grouped kernel, so
            # the streamed run must match the batch replay bit-for-bit
            if batch.cost() != schedule.cost():
                print(
                    f"VERIFY FAILED: batch cost {batch.cost()!r} != "
                    f"streaming cost {schedule.cost()!r}"
                )
                return 1
            print(f"verify: batch run_online cost matches exactly ({batch.cost():.6f})")
    return 0


def _cmd_lint(trace: str, ladder_path: str | None) -> int:
    from .jobs.io import read_jobs_csv, read_ladder_csv
    from .jobs.lint import lint_instance

    failed = _fail(
        _input_error(trace, "job trace"),
        _input_error(ladder_path, "ladder CSV") if ladder_path else None,
    )
    if failed:
        return failed
    try:
        jobs = read_jobs_csv(trace)
        ladder = read_ladder_csv(ladder_path) if ladder_path else None
    except (ValueError, csv.Error) as exc:
        return _fail(str(exc))  # exit 2: exit 1 means "warnings found"
    warnings = lint_instance(jobs, ladder)
    for warning in warnings:
        print(f"warning: {warning}")
    if warnings:
        print(f"{trace}: {len(warnings)} warning(s)")
        return 1
    against = f" against {ladder_path}" if ladder_path else ""
    print(f"{trace}: clean ({len(jobs)} jobs{against})")
    return 0


def _run_external_analyzers(paths: list[str]) -> int:
    """mypy + ruff when installed; skipping a missing tool is not a failure
    (the container may not ship them — CI does)."""
    import shutil
    import subprocess

    status = 0
    commands = {
        "mypy": ["mypy"],
        "ruff": ["ruff", "check", *paths],
    }
    for tool, cmd in commands.items():
        if shutil.which(tool) is None:
            print(f"check: {tool} not installed; skipping")
            continue
        print(f"check: running {' '.join(cmd)}")
        if subprocess.call(cmd) != 0:
            status = 1
    return status


DEFAULT_CHECK_PATHS = ("src", "tests", "benchmarks")
DEFAULT_BASELINE = "bshm-baseline.json"


def _cmd_check(
    paths: list[str],
    list_rules: bool,
    refresh_schema_manifest: bool,
    external: bool,
    fmt: str = "text",
    output: str | None = None,
    baseline: str | None = None,
    no_baseline: bool = False,
    write_baseline_path: str | None = None,
    diff_base: str | None = None,
    no_cache: bool = False,
    cache_dir: str = ".bshm_cache",
) -> int:
    import json

    from .analysis.static import (
        SCHEMA_MANIFEST_NAME,
        BaselineError,
        all_rules,
        compute_schema_manifest,
        line_text_from_disk,
        render,
        run_check,
        write_baseline,
    )

    if list_rules:
        for rule in all_rules():
            print(f"{rule.id}  {rule.severity.value:7s} {rule.title}")
            print(f"        guards: {rule.rationale}")
        return 0
    service_dir = Path(__file__).resolve().parent / "service"
    if refresh_schema_manifest:
        manifest = compute_schema_manifest(service_dir / "checkpoint.py")
        out = service_dir / SCHEMA_MANIFEST_NAME
        out.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n")
        print(f"schema manifest refreshed: {out}")
        print(
            "reminder: a field change must also bump TRACE_VERSION / "
            "CHECKPOINT_VERSION (docs/invariants.md, BSHM006)"
        )
        return 0
    if not paths:
        paths = [p for p in DEFAULT_CHECK_PATHS if Path(p).exists()] or ["src"]
    failed = _fail(
        *(
            f"path {p!r} does not exist" if not Path(p).exists() else None
            for p in paths
        ),
        _output_error(output, "report output") if output else None,
        "--baseline and --no-baseline are mutually exclusive"
        if baseline and no_baseline
        else None,
    )
    if failed:
        return failed

    if write_baseline_path is not None:
        report = run_check(
            paths, use_cache=not no_cache, cache_dir=cache_dir
        )
        n = write_baseline(write_baseline_path, report.findings, line_text_from_disk)
        print(
            f"bshm check: baseline with {n} finding(s) written to "
            f"{write_baseline_path}"
        )
        return 0

    baseline_path: str | None = baseline
    if baseline_path is None and not no_baseline and Path(DEFAULT_BASELINE).exists():
        baseline_path = DEFAULT_BASELINE
    try:
        report = run_check(
            paths,
            use_cache=not no_cache,
            cache_dir=cache_dir,
            baseline_path=baseline_path,
            diff_base=diff_base,
        )
    except (BaselineError, ValueError) as exc:
        return _fail(str(exc)) or 2
    rendered = render(fmt, report.findings, report.baselined, report.n_files)
    if output:
        Path(output).write_text(rendered + "\n")
        print(f"bshm check: {fmt} report written to {output}")
    else:
        print(rendered)
    status = 1 if report.findings else 0
    if external and _run_external_analyzers(paths) != 0:
        status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bshm",
        description="Busy-time scheduling on heterogeneous machines (IPDPS 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list experiments")
    run_p = sub.add_parser("run", help="run one experiment")
    run_p.add_argument("experiment", help="experiment id, e.g. E1")
    run_p.add_argument("--scale", choices=("quick", "full"), default="full")
    all_p = sub.add_parser("all", help="run every experiment")
    all_p.add_argument("--scale", choices=("quick", "full"), default="full")
    all_p.add_argument("--save", help="persist artifacts under this directory")
    sub.add_parser("demo", help="30-second guided demo")
    sched_p = sub.add_parser("schedule", help="schedule a CSV job trace")
    sched_p.add_argument("trace", help="job trace CSV (size,arrival,departure[,name])")
    sched_p.add_argument("--ladder", required=True, help="ladder CSV (capacity,rate)")
    sched_p.add_argument(
        "--algorithm",
        default="auto",
        help="auto | dec-offline | inc-offline | gen-offline | dec-online | inc-online | gen-online",
    )
    sched_p.add_argument("--output", help="write the assignment CSV here")
    sched_p.add_argument("--report", help="write a markdown report here")
    gen_p = sub.add_parser("generate", help="synthesize a workload / ladder")
    gen_p.add_argument("--workload", default="uniform")
    gen_p.add_argument("--n", type=int, default=100)
    gen_p.add_argument("--seed", type=int, default=0)
    gen_p.add_argument("--out", required=True, help="job trace CSV to write")
    gen_p.add_argument("--ladder", dest="ladder_kind", help="dec | inc | ec2 | fig2")
    gen_p.add_argument("--ladder-out", help="ladder CSV to write")
    gen_p.add_argument("--m", type=int, default=3, help="ladder size")
    rec_p = sub.add_parser("recommend", help="rank catalogue type subsets")
    rec_p.add_argument("trace", help="job trace CSV")
    rec_p.add_argument("--ladder", required=True, help="catalogue CSV")
    rec_p.add_argument("--max-types", type=int, default=None)
    rec_p.add_argument("--estimate", choices=("lower_bound", "schedule"), default="lower_bound")
    serve_p = sub.add_parser("serve", help="streaming scheduler service (JSON lines over TCP)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=8642, help="0 picks an ephemeral port")
    serve_p.add_argument(
        "--scheduler",
        default="auto",
        help="auto | dec | inc | general | first-fit",
    )
    serve_p.add_argument("--ladder", dest="ladder_path", help="ladder CSV (capacity,rate)")
    serve_p.add_argument("--ladder-kind", default="dec", help="dec | inc | ec2 | fig2 (when no --ladder)")
    serve_p.add_argument("--m", type=int, default=3, help="ladder size for --ladder-kind")
    serve_p.add_argument("--max-active", type=int, default=None, help="admission cap on concurrently active jobs")
    serve_p.add_argument("--trace-out", help="record the session trace here on shutdown")
    serve_p.add_argument("--wal", dest="wal_dir", help="write-ahead log directory (recovers it if non-empty)")
    serve_p.add_argument(
        "--fsync", choices=("always", "batch", "never"), default="batch",
        help="WAL durability policy (default: batch)",
    )
    serve_p.add_argument(
        "--compact-every", type=int, default=512,
        help="snapshot+prune the WAL every N events (0 disables; default 512)",
    )
    serve_p.add_argument(
        "--max-inflight", type=int, default=64,
        help="load-shedding threshold on in-flight requests (default 64)",
    )
    serve_p.add_argument(
        "--read-timeout", type=float, default=None,
        help="per-connection idle read timeout in seconds (default: none)",
    )
    recover_p = sub.add_parser(
        "recover", help="rebuild state from a WAL directory and report it"
    )
    recover_p.add_argument("wal_dir", help="WAL directory written by bshm serve --wal")
    replay_p = sub.add_parser("replay", help="re-execute a recorded service trace")
    replay_p.add_argument("trace", help="trace JSONL recorded by the service")
    replay_p.add_argument("--checkpoint", dest="checkpoint_out", help="write a checkpoint JSON here")
    replay_p.add_argument(
        "--verify",
        action="store_true",
        help="assert the streaming cost equals a batch run_online of the same jobs",
    )
    replay_p.add_argument(
        "--to",
        help="HOST:PORT of a live server; stream the trace over TCP with retry/backoff",
    )
    lint_p = sub.add_parser("lint", help="sanity-check a job trace (and catalogue)")
    lint_p.add_argument("trace", help="job trace CSV (size,arrival,departure[,name])")
    lint_p.add_argument("--ladder", dest="ladder_path", help="ladder CSV (capacity,rate)")
    check_p = sub.add_parser(
        "check", help="invariant-aware static analysis (AST lint rules)"
    )
    check_p.add_argument(
        "paths", nargs="*", default=[],
        help="files/directories to analyze (default: src tests benchmarks)",
    )
    check_p.add_argument(
        "--list-rules", action="store_true", help="print the rule catalogue and exit"
    )
    check_p.add_argument(
        "--format", dest="fmt", choices=("text", "json", "sarif"),
        default="text", help="output format (default: text)",
    )
    check_p.add_argument(
        "--output", help="write the report here instead of stdout"
    )
    check_p.add_argument(
        "--baseline",
        help=f"baseline JSON of accepted findings (default: {DEFAULT_BASELINE} "
        "when present)",
    )
    check_p.add_argument(
        "--no-baseline", action="store_true",
        help="ignore any committed baseline (report everything)",
    )
    check_p.add_argument(
        "--write-baseline", dest="write_baseline_path", nargs="?",
        const=DEFAULT_BASELINE, default=None, metavar="PATH",
        help=f"accept all current findings into PATH (default {DEFAULT_BASELINE}) "
        "and exit 0",
    )
    check_p.add_argument(
        "--diff", dest="diff_base", metavar="REF",
        help="only report findings on lines changed since this git ref",
    )
    check_p.add_argument(
        "--no-cache", action="store_true",
        help="disable the content-hash incremental cache",
    )
    check_p.add_argument(
        "--cache-dir", default=".bshm_cache",
        help="incremental cache directory (default: .bshm_cache)",
    )
    check_p.add_argument(
        "--refresh-schema-manifest",
        action="store_true",
        help="regenerate service/schema_manifest.json from checkpoint.py",
    )
    check_p.add_argument(
        "--external",
        action="store_true",
        help="also run mypy and ruff when installed (CI runs them required)",
    )

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiment, args.scale)
    if args.command == "all":
        return _cmd_all(args.scale, args.save)
    if args.command == "demo":
        return _cmd_demo()
    if args.command == "schedule":
        return _cmd_schedule(
            args.trace, args.ladder, args.algorithm, args.output, args.report
        )
    if args.command == "generate":
        return _cmd_generate(
            args.workload, args.n, args.seed, args.out,
            args.ladder_kind, args.ladder_out, args.m,
        )
    if args.command == "recommend":
        return _cmd_recommend(args.trace, args.ladder, args.max_types, args.estimate)
    if args.command == "serve":
        return _cmd_serve(
            args.host, args.port, args.scheduler, args.ladder_path,
            args.ladder_kind, args.m, args.max_active, args.trace_out,
            args.wal_dir, args.fsync, args.compact_every,
            args.max_inflight, args.read_timeout,
        )
    if args.command == "recover":
        return _cmd_recover(args.wal_dir)
    if args.command == "replay":
        return _cmd_replay(args.trace, args.checkpoint_out, args.verify, args.to)
    if args.command == "lint":
        return _cmd_lint(args.trace, args.ladder_path)
    if args.command == "check":
        return _cmd_check(
            args.paths, args.list_rules, args.refresh_schema_manifest,
            args.external, args.fmt, args.output, args.baseline,
            args.no_baseline, args.write_baseline_path, args.diff_base,
            args.no_cache, args.cache_dir,
        )
    return 2


if __name__ == "__main__":
    sys.exit(main())
