"""Outside-in benchmark of the bshm program: serving, crash-restore and
offline certification.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-durable --seed 1 --seconds 30 --trace 0

Runs whole rounds of one workload for about ``--seconds`` seconds, checks
every output against the benchmark's own computations, and prints one JSON
object as the last line of standard output:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the same workload runs
with timing wrappers around the program's layer boundaries and the metrics
are the per-layer ones.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("serve-durable", "serve-mixed", "offline-small", "offline-large")


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if "BSHM_VEC_THRESHOLD" in os.environ:
        print("error: unset BSHM_VEC_THRESHOLD; the benchmark measures the "
              "program's default dispatch", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workdir = ROOT / ".perfbench_runs" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        result = _run(args, workdir, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with_parent = workdir.parent
        if with_parent.is_dir() and not any(with_parent.iterdir()):
            with_parent.rmdir()
    print(json.dumps(result))
    return 0


def _run(args: argparse.Namespace, workdir: Path, started: float) -> dict:
    t0 = time.perf_counter()
    import repro  # noqa: F401  (timed: the program's import is part of set-up)

    import_s = time.perf_counter() - t0
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Recorder()
    budget = max(args.seconds - (time.perf_counter() - started), 0.0)
    if args.workload.startswith("serve"):
        import serve

        out = serve.run(serve.SPECS[args.workload], ROOT, workdir, args.seed, budget, tracer)
    else:
        import offline

        out = offline.run(args.workload, workdir, args.seed, budget, tracer, import_s)
    if tracer is None:
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in out["metrics"].items()}
    else:
        _keep_spans(tracer, workdir, ROOT / ".perfbench_spans" / f"{args.workload}-{args.seed}")
        metrics = {name: {"value": out["metrics"][name], "unit": unit}
                   for name, unit in tracing.PER_LAYER}
    for problem in out["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": not out["problems"],
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": metrics,
    }


def _keep_spans(tracer, workdir: Path, dest: Path) -> None:
    """Write the benchmark process's spans next to the server's, in ``dest``."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    tracer.dump(dest / "benchmark-spans.json")
    for path in workdir.glob("server-spans-*.json"):
        shutil.move(str(path), dest / path.name)


if __name__ == "__main__":
    sys.exit(main())
