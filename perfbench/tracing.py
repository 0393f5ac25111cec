"""Span recorder and the timing wrappers behind ``--trace 1``.

The wrappers sit around public calls into each layer of the program and
are installed from here, outside the program: each target function or
method is replaced, in its module and in every ``repro`` module that
imported it by name, by a wrapper that opens a span, calls the original
and closes the span.  Spans record name, start, end, parent and request
id on ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so a client and a
server process read the same clock), stay in memory and are written out
when the run ends.

A layer's self time is its spans' duration minus the part covered by
child spans.  A target that no longer exists is recorded as missing, and
the metrics that need it are reported as ``null`` instead of failing the
run.

The server handles one connection strictly in order (it reads a line,
answers it, then reads the next), so one stack of open spans is exact for
the serve workloads even though the server runs on asyncio.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterable

# (layer group, span name, module, attribute path).  Several targets may
# share a span name: the object and columnar engines of one step.
TARGETS: list[tuple[str, str, str, str]] = [
    ("server", "server.decode", "repro.service.server", "parse_line"),
    ("runtime", "runtime.submit", "repro.service.runtime", "SchedulerRuntime.submit"),
    ("runtime", "runtime.depart", "repro.service.runtime", "SchedulerRuntime.depart"),
    ("runtime", "runtime.cost", "repro.service.runtime", "SchedulerRuntime.cost"),
    ("runtime", "runtime.schedule", "repro.service.runtime", "SchedulerRuntime.schedule"),
    ("online", "online.place", "repro.online.dec_online", "DecOnlineScheduler.on_arrival"),
    ("online", "online.place", "repro.online.inc_online", "IncOnlineScheduler.on_arrival"),
    ("online", "online.place", "repro.online.general_online", "GeneralOnlineScheduler.on_arrival"),
    ("online", "online.release", "repro.online.dec_online", "DecOnlineScheduler.on_departure"),
    ("online", "online.release", "repro.online.inc_online", "IncOnlineScheduler.on_departure"),
    ("online", "online.release", "repro.online.general_online",
     "GeneralOnlineScheduler.on_departure"),
    ("wal", "wal.append", "repro.service.wal", "WALWriter.append_new"),
    ("wal", "wal.compact", "repro.service.wal", "WALWriter.compact"),
    ("wal", "wal.recover", "repro.service.wal", "recover"),
    ("wal", "wal.replay", "repro.service.checkpoint", "_apply_event"),
    ("state", "state.capture", "repro.service.state", "capture_state"),
    ("state", "state.restore", "repro.service.state", "restore_state"),
    ("jobs", "jobs.read", "repro.jobs.io", "read_jobs_csv"),
    ("jobs", "jobs.read", "repro.jobs.io", "read_ladder_csv"),
    ("jobs", "jobs.write", "repro.jobs.io", "write_schedule_csv"),
    ("jobs", "jobs.columns", "repro.jobs.jobset", "JobSet.to_arrays"),
    ("offline", "offline.solve", "repro.offline.dec_offline", "dec_offline"),
    ("offline", "offline.solve", "repro.offline.inc_offline", "inc_offline"),
    ("offline", "offline.solve", "repro.offline.general_offline", "general_offline"),
    ("offline", "offline.dual", "repro.offline.dual_coloring", "dual_coloring_assign"),
    ("offline", "offline.dual", "repro.offline.columnar_peel", "columnar_dual_assign"),
    ("placement", "placement.altitude", "repro.placement.greedy", "place_jobs"),
    ("placement", "placement.altitude", "repro.placement.columnar", "columnar_altitudes"),
    ("placement", "placement.strip", "repro.placement.strips", "split_into_strips"),
    ("placement", "placement.strip", "repro.placement.columnar", "columnar_strip_slices"),
    ("placement", "placement.color", "repro.placement.strips", "two_color"),
    ("placement", "placement.color", "repro.placement.columnar", "columnar_two_color"),
    ("schedule", "schedule.validate", "repro.schedule.validate", "assert_feasible"),
    ("schedule", "schedule.cost", "repro.schedule.schedule", "Schedule.cost"),
    ("lowerbound", "lowerbound.bound", "repro.lowerbound.bound", "lower_bound"),
    ("lowerbound", "lowerbound.demand", "repro.core.vectorized", "vec_nested_demand"),
    ("lowerbound", "lowerbound.demand", "repro.core.sweep", "sweep_nested_demand"),
    ("lowerbound", "lowerbound.config", "repro.lowerbound.config", "ConfigSolver.solve"),
]

# counted, not timed: which offline engine ran (a span here would take the
# columnar engine's time out of offline.solve)
COUNTERS: list[tuple[str, str, str, str]] = [
    ("offline", "offline.columnar_runs", "repro.offline.columnar_peel", "dec_offline_columnar"),
    ("offline", "offline.columnar_runs", "repro.offline.columnar_peel", "inc_offline_columnar"),
    ("offline", "offline.columnar_runs", "repro.offline.columnar_peel",
     "general_offline_columnar"),
]

#: the request span of the server is opened by ``_respond`` and closed by
#: ``_send``: from the moment a line is read to the moment its ack is written
REQUEST_TARGETS = [
    ("repro.service.server", "JsonLineServer._respond"),
    ("repro.service.server", "JsonLineServer._send"),
]

#: an all-zero demand vector is answered without a search
_ZERO_DEMAND = 1e-9


class Recorder:
    """In-memory spans: ``[name, start, end, parent index, request id]``."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self.rid = -1
        self._stack: list[int] = []
        self._request: int | None = None
        # distinct non-zero demand vectors per ConfigSolver (its cache key),
        # within the lower_bound call that owns the solvers
        self._demands: dict[int, set] = {}

    # -- spans ---------------------------------------------------------------
    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.rid])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError(f"span {self.spans[idx][0]} closed out of order")

    def dump(self, path: Path) -> None:
        doc = {
            "spans": self.spans,
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(json.dumps(doc))
        os.replace(tmp, path)

    # -- installation -----------------------------------------------------------
    def install(self, groups: Iterable[str]) -> None:
        """Wrap every target of the given layer groups."""
        groups = set(groups)
        for group, name, module, attr in TARGETS:
            if group in groups:
                self._patch(module, attr, lambda fn, n=name: self._span(n, fn))
        for group, name, module, attr in COUNTERS:
            if group in groups:
                self._patch(module, attr, lambda fn, n=name: self._counter(n, fn))
        if "server" in groups:
            self._install_request_span()

    def _patch(self, module: str, attr: str, make: Callable[[Callable], Callable]) -> None:
        try:
            mod = importlib.import_module(module)
            owner, _, name = attr.rpartition(".")
            holder = getattr(mod, owner) if owner else mod
            original = getattr(holder, name)
        except (ImportError, AttributeError):
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = make(original)
        setattr(holder, name, wrapped)
        if owner:
            return
        # rebind every `from module import name` copy inside the program
        for other in _repro_modules():
            for key, value in list(vars(other).items()):
                if value is original:
                    setattr(other, key, wrapped)

    def _span(self, name: str, fn: Callable) -> Callable:
        rec = self
        on_args = {
            "lowerbound.config": self._note_demands,
            "lowerbound.bound": self._start_bound,
        }.get(name)
        on_result = self._note_segments if name == "lowerbound.bound" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = rec._stack
            if stack and rec.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)  # a layer calling itself: one span
            if on_args is not None:
                on_args(args)
            idx = rec.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec.end(idx)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _counter(self, name: str, fn: Callable) -> Callable:
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _start_bound(self, args: tuple) -> None:
        self._demands = {}

    def _note_demands(self, args: tuple) -> None:
        solver, demands = args[0], tuple(float(d) for d in args[1])
        self.counts["lowerbound.solve_calls"] += 1
        if demands and demands[0] > _ZERO_DEMAND:
            # the solver lives until its lower_bound call returns, so its
            # id names it uniquely here
            self._demands.setdefault(id(solver), set()).add(demands)

    def _note_segments(self, result: Any) -> None:
        self.counts["lowerbound.segments"] += len(result.segments)
        self.counts["lowerbound.configs_solved"] += sum(map(len, self._demands.values()))
        self._demands = {}

    def _install_request_span(self) -> None:
        try:
            from repro.service.server import JsonLineServer

            respond, send = JsonLineServer._respond, JsonLineServer._send
        except (ImportError, AttributeError):
            self.missing.extend(f"{m}.{a}" for m, a in REQUEST_TARGETS)
            return
        rec = self

        async def _respond(server, line):
            rec.rid += 1
            rec._request = rec.begin("server.request")
            return await respond(server, line)

        async def _send(server, writer, response):
            try:
                await send(server, writer, response)
            finally:
                if rec._request is not None:
                    rec.end(rec._request)
                    rec._request = None

        JsonLineServer._respond = functools.wraps(respond)(_respond)
        JsonLineServer._send = functools.wraps(send)(_send)


def _repro_modules() -> list:
    import sys

    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "repro" or n.startswith("repro."))]


# -- derived metrics ------------------------------------------------------------

#: every per-layer metric, in BENCHMARK.json order, with its unit
PER_LAYER: list[tuple[str, str]] = [
    ("server.requests", "count"), ("server.wait_s", "s"), ("server.decode_s", "s"),
    ("server.self_s", "s"),
    ("runtime.submit_s", "s"), ("runtime.depart_s", "s"), ("runtime.cost_s", "s"),
    ("runtime.schedule_s", "s"),
    ("online.place_s", "s"), ("online.release_s", "s"),
    ("machines.probes_per_decision", "ratio"),
    ("wal.appends", "count"), ("wal.append_s", "s"), ("wal.fsyncs", "count"),
    ("wal.fsync_s", "s"), ("wal.compactions", "count"), ("wal.compact_s", "s"),
    ("wal.recover_load_s", "s"), ("wal.replayed", "count"), ("wal.replay_s", "s"),
    ("wal.store_bytes", "bytes"),
    ("state.capture_s", "s"), ("state.snapshot_bytes", "bytes"), ("state.restore_s", "s"),
    ("jobs.read_s", "s"), ("jobs.write_s", "s"), ("jobs.columns_s", "s"),
    ("offline.solve_s", "s"), ("offline.dual_s", "s"), ("offline.object_runs", "count"),
    ("offline.columnar_runs", "count"),
    ("placement.altitude_s", "s"), ("placement.strip_s", "s"), ("placement.color_s", "s"),
    ("schedule.validate_s", "s"), ("schedule.cost_s", "s"),
    ("lowerbound.demand_s", "s"), ("lowerbound.config_s", "s"), ("lowerbound.segments", "count"),
    ("lowerbound.configs_solved", "count"), ("lowerbound.cache_hit_ratio", "ratio"),
]

#: metrics that count spans of one name
_SPAN_COUNTS = {
    "server.requests": "server.request",
    "wal.compactions": "wal.compact",
    "wal.replayed": "wal.replay",
}

#: metrics fed by the program's own `stats` reply or by files, not by spans
_EXTERNAL = {
    "server.wait_s", "machines.probes_per_decision", "wal.appends", "wal.fsyncs",
    "wal.fsync_s", "wal.store_bytes", "state.snapshot_bytes",
}


def _span_name(metric: str) -> str:
    """The span a per-layer metric is derived from."""
    special = {
        "server.self_s": "server.request",
        "wal.recover_load_s": "wal.recover",
        "offline.object_runs": "offline.solve",
        "offline.columnar_runs": "offline.columnar_runs",
    }
    if metric in special:
        return special[metric]
    if metric in _SPAN_COUNTS:
        return _SPAN_COUNTS[metric]
    if metric.startswith("lowerbound.") and not metric.endswith("_s"):
        return "lowerbound.bound"
    return metric.removesuffix("_s")


def self_times(spans: list[list[Any]]) -> tuple[dict[str, float], dict[str, int]]:
    """Summed self time and span count per span name (open spans skipped)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _rid in spans:
        if parent >= 0 and end is not None:
            child[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    for k, (name, start, end, _parent, _rid) in enumerate(spans):
        if end is not None:
            totals[name] += (end - start) - child[k]
            counts[name] += 1
    return totals, counts


def layer_metrics(docs: list[dict], external: dict[str, float | None], rounds: int) -> dict:
    """Per-round per-layer metrics from span documents (one per process
    and round) and the per-round values read from ``stats`` replies and
    files (``external``; absent means the layer did not run, ``None``
    that the program no longer reports it).

    A metric whose wrap target is missing is ``None``; a layer that does
    not run in the workload reads 0.
    """
    totals: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    extra: dict[str, int] = defaultdict(int)
    missing_spans = set()
    missing_targets = set()
    for doc in docs:
        t, c = self_times(doc["spans"])
        for k, v in t.items():
            totals[k] += v
        for k, v in c.items():
            counts[k] += v
        for k, v in doc["counts"].items():
            extra[k] += v
        missing_targets.update(doc["missing"])
    for _group, name, module, attr in TARGETS + COUNTERS:
        if f"{module}.{attr}" in missing_targets:
            missing_spans.add(name)
    if missing_targets & {f"{m}.{a}" for m, a in REQUEST_TARGETS}:
        missing_spans.add("server.request")

    out: dict[str, float | None] = {}
    for metric, _unit in PER_LAYER:
        if metric in _EXTERNAL:
            out[metric] = external.get(metric, 0.0)
            continue
        if _span_name(metric) in missing_spans:
            out[metric] = None
        elif metric in _SPAN_COUNTS:
            out[metric] = counts[_SPAN_COUNTS[metric]] / rounds
        elif metric == "offline.columnar_runs":
            out[metric] = extra["offline.columnar_runs"] / rounds
        elif metric == "offline.object_runs":
            out[metric] = (counts["offline.solve"] - extra["offline.columnar_runs"]) / rounds
        elif metric == "lowerbound.segments":
            out[metric] = extra["lowerbound.segments"] / rounds
        elif metric == "lowerbound.configs_solved":
            out[metric] = extra["lowerbound.configs_solved"] / rounds
        elif metric == "lowerbound.cache_hit_ratio":
            seg = extra["lowerbound.segments"]
            out[metric] = 1.0 - extra["lowerbound.configs_solved"] / seg if seg else 0.0
        else:
            out[metric] = totals[_span_name(metric)] / rounds
    return out


def load(path: Path) -> dict:
    return json.loads(path.read_text())
