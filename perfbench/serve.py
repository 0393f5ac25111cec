"""The two serve workloads: a live ``bshm serve`` child driven over TCP.

One round starts a fresh server, streams the seeded trace through one
connection as a closed loop with ``WINDOW`` requests outstanding, and
then tears the server down: ``serve-mixed`` by the ``shutdown`` op,
``serve-durable`` by SIGKILL followed by in-process ``bshm recover`` of
its write-ahead log.  Rounds repeat identical work, so per-round figures
are comparable and the run reports their medians.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks
import inputs

#: requests outstanding on the connection; the client sends the next
#: request as soon as an ack comes back (closed loop)
WINDOW = 8

#: in-process recoveries of the killed server's WAL per round
RECOVERIES = 3

#: stretches of the stream whose per-round times are compared (see run())
CHUNKS = 20


@dataclass(frozen=True)
class ServeSpec:
    ladder: str
    algorithm: str  # the paper's name, for the proven ratio
    n_jobs: int
    live: float
    serve_args: tuple[str, ...]
    durable: bool
    query_every: int  # in-band stats + schedule reads every this many events (0: none)


SPECS = {
    "serve-durable": ServeSpec(
        ladder="dec3",
        algorithm="dec-online",
        n_jobs=5000,
        live=100.0,
        # the documented defaults: dec ladder (m=3), --fsync batch,
        # --compact-every 512
        serve_args=(),
        durable=True,
        query_every=0,
    ),
    "serve-mixed": ServeSpec(
        ladder="inc3",
        algorithm="inc-online",
        n_jobs=5000,
        live=30.0,
        serve_args=("--ladder-kind", "inc", "--m", "3"),
        durable=False,
        query_every=500,
    ),
}


@dataclass
class Round:
    setup_s: float
    done_t: list[float]
    ack_ms: list[float]
    query_ms: list[float]
    acks: list[bytes]
    queries: list[tuple[int, str, bytes]]  # (events acked before it, op, reply)
    final_stats: dict
    peak_rss_mb: float
    send_times: list[float] = field(default_factory=list)
    spans: Path | None = None
    store_bytes: int = 0
    snapshot_bytes: int = 0
    restore_s: list[float] = field(default_factory=list)
    recovered: list[tuple[int, float]] = field(default_factory=list)

    @property
    def stream_s(self) -> float:
        return self.done_t[-1]

    def chunk_seconds(self, chunks: int) -> list[float]:
        """Stream seconds spent on each of ``chunks`` equal runs of events."""
        n = len(self.done_t)
        ends = [self.done_t[(j + 1) * n // chunks - 1] for j in range(chunks)]
        return [b - a for a, b in zip([0.0] + ends[:-1], ends)]

    @property
    def failed(self) -> int:
        """Requests answered with an error."""
        replies = self.acks + [reply for _k, _op, reply in self.queries]
        return sum(1 for raw in replies if b'"ok": true' not in raw)

    @property
    def digest(self) -> str:
        """What the checks read: acks, read costs, recovered counts and costs."""
        h = hashlib.sha256()
        for raw in self.acks:
            h.update(raw)
        for k, op, raw in self.queries:
            h.update(f"{k} {op} {json.loads(raw).get('cost')!r}".encode())
        h.update(repr((self.final_stats.get("cost"), self.final_stats.get("events"),
                       self.recovered)).encode())
        return h.hexdigest()


def _peak_rss_mb(pid: int) -> float:
    """VmHWM of a live process, in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Server:
    """A ``bshm serve`` child process and one client connection to it."""

    def __init__(self, root: Path, args: list[str], traced_spans: Path | None) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(root / "src")
        if traced_spans is None:
            cmd = [sys.executable, "-m", "repro.cli", "serve", *args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_traced.py"
            cmd = [sys.executable, str(launcher), str(traced_spans), "serve", *args]
        self.spans = traced_spans
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            stdin=subprocess.DEVNULL,
        )
        assert self.proc.stdout is not None
        banner = ""
        for raw in self.proc.stdout:
            banner = raw.decode()
            if "listening on" in banner:
                break
        else:
            self.kill()
            raise RuntimeError("bshm serve exited before printing its banner")
        self.setup_s = time.perf_counter() - t0
        host, port = re.search(r"listening on (\S+):(\d+)", banner).groups()
        self.sock = socket.create_connection((host, int(port)))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.rfile = self.sock.makefile("rb")

    def request(self, doc: dict) -> dict:
        self.sock.sendall((json.dumps(doc) + "\n").encode())
        return json.loads(self.rfile.readline())

    def dump_spans(self) -> None:
        """Ask the traced launcher to write its spans, and wait for them."""
        assert self.spans is not None
        self.proc.send_signal(signal.SIGUSR1)
        deadline = time.monotonic() + 60
        while not self.spans.exists():
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise RuntimeError("traced server did not write its spans")
            time.sleep(0.01)

    def close_client(self) -> None:
        self.rfile.close()
        self.sock.close()

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})
        self.close_client()
        self.proc.wait(timeout=60)
        self.proc.stdout.close()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        if self.proc.stdout is not None:
            self.proc.stdout.close()


def stream(server: Server, lines: list[bytes], query_every: int, window: int = WINDOW):
    """Send every line with ``window`` outstanding; at each query position
    drain the window, then issue a ``stats`` and a ``schedule`` read alone.

    Returns (stream seconds at each ack with the reads left out, send-to-ack
    ms per line, read ms, raw acks, reads, send time of every request in
    wire order).
    """
    sock, rfile = server.sock, server.rfile
    perf = time.perf_counter
    n = len(lines)
    send_t = [0.0] * n
    ack_ms = [0.0] * n
    done_t = [0.0] * n  # stream seconds when each ack arrived, reads excluded
    acks: list[bytes] = [b""] * n
    wire_sends: list[float] = []
    reads: list[tuple[int, str, bytes]] = []
    read_ms: list[float] = []
    read_s = 0.0
    stops = list(range(query_every, n, query_every)) if query_every else []
    stops.append(n)
    stop_at = 0
    sent = acked = 0
    start = perf()
    while acked < n:
        limit = min(acked + window, stops[stop_at])
        while sent < limit:
            t = perf()
            send_t[sent] = t
            wire_sends.append(t)
            sock.sendall(lines[sent])
            sent += 1
        if acked == sent:  # window drained at a query position
            for op in ("stats", "schedule"):
                t0 = perf()
                wire_sends.append(t0)
                sock.sendall(b'{"op": "%s"}\n' % op.encode())
                reply = rfile.readline()
                dt = perf() - t0
                read_s += dt
                read_ms.append(dt * 1e3)
                reads.append((acked, op, reply))
            stop_at += 1
            continue
        acks[acked] = rfile.readline()
        t = perf()
        ack_ms[acked] = (t - send_t[acked]) * 1e3
        done_t[acked] = t - start - read_s
        acked += 1
    return done_t, ack_ms, read_ms, acks, reads, wire_sends


def _recover(wal_dir: Path) -> tuple[float, int, float]:
    """``bshm recover DIR`` in-process: (seconds, events, printed cost)."""
    from repro.cli import main

    out = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = main(["recover", str(wal_dir)])
    elapsed = time.perf_counter() - t0
    text = out.getvalue()
    if code != 0:
        raise RuntimeError(f"bshm recover exited {code}: {text}")
    events = int(re.search(r"bshm recover: (\d+) events", text).group(1))
    cost = float(re.search(r"; cost (\S+)", text).group(1))
    return elapsed, events, cost


def run_round(spec: ServeSpec, root: Path, workdir: Path, lines: list[bytes],
              traced_spans: Path | None) -> Round:
    args = ["--port", "0", *spec.serve_args]
    wal_dir = workdir / "wal"
    if spec.durable:
        shutil.rmtree(wal_dir, ignore_errors=True)
        args += ["--wal", str(wal_dir)]
    server = Server(root, args, traced_spans)
    try:
        done_t, ack_ms, read_ms, acks, reads, sends = stream(
            server, lines, spec.query_every
        )
        final = server.request({"op": "stats"})
        peak = _peak_rss_mb(server.proc.pid)
        if traced_spans is not None:
            server.dump_spans()
        rnd = Round(
            setup_s=server.setup_s, done_t=done_t, ack_ms=ack_ms, query_ms=read_ms,
            acks=acks, queries=reads, final_stats=final, peak_rss_mb=peak,
            send_times=sends, spans=traced_spans,
        )
        if spec.durable:
            files = [p for p in wal_dir.iterdir() if p.is_file()]
            rnd.store_bytes = sum(p.stat().st_size for p in files)
            snaps = sorted(p for p in files if p.name.startswith("snapshot-"))
            rnd.snapshot_bytes = snaps[-1].stat().st_size if snaps else 0
            server.close_client()
        else:
            server.shutdown()
    finally:
        server.kill()  # SIGKILL: the crash serve-durable restores from
    if spec.durable:
        for _ in range(RECOVERIES):
            elapsed, events, cost = _recover(wal_dir)
            rnd.restore_s.append(elapsed)
            rnd.recovered.append((events, cost))
    return rnd


# -- correctness -------------------------------------------------------------

def _placements(acks: list[bytes], events: list[tuple[str, int]]) -> dict[int, tuple[int, str]]:
    """uid -> (type, machine) from the submit acks; raises on a failed ack."""
    placed: dict[int, tuple[int, str]] = {}
    for raw, (op, uid) in zip(acks, events):
        ack = json.loads(raw)
        if not ack.get("ok") or ack.get("uid") != uid:
            raise checks.CheckFailed(f"{op} of job {uid} was not acked: {ack}")
        if op == "submit":
            if not ack.get("accepted"):
                raise checks.CheckFailed(f"job {uid} was rejected: {ack}")
            placed[uid] = (int(ack["type"]), str(ack["machine"]))
    return placed


def prefix_cost(jobs: inputs.Jobs, events, placed, k: int, rates) -> float:
    """Own busy cost after the first ``k`` events, open jobs closed at the
    clock (the time of event ``k - 1``)."""
    sizes, starts, ends = jobs.sizes.tolist(), jobs.starts.tolist(), jobs.ends.tolist()
    clock = None
    arrived: set[int] = set()
    departed: set[int] = set()
    for op, uid in events[:k]:
        if op == "submit":
            arrived.add(uid)
            clock = starts[uid]
        else:
            departed.add(uid)
            clock = ends[uid]
    prefix = {}
    rows = []
    for uid in arrived:
        end = ends[uid] if uid in departed else clock
        prefix[f"J{uid}"] = (sizes[uid], starts[uid], end)
        rows.append((f"J{uid}", *placed[uid]))
    return checks.busy_cost(prefix, rows, rates)


def check_round(spec: ServeSpec, rnd: Round, jobs: inputs.Jobs, events, lower: float) -> float:
    """Run every check on one round; returns the benchmark's own cost."""
    ladder = inputs.LADDERS[spec.ladder]
    caps = [g for g, _ in ladder]
    rates = [r for _, r in ladder]
    placed = _placements(rnd.acks, events)
    named = jobs.as_dict()
    rows = [(f"J{uid}", t, m) for uid, (t, m) in placed.items()]
    checks.check_placement(named, rows, caps)
    own = checks.busy_cost(named, rows, rates)
    checks.check_cost(rnd.final_stats["cost"], own, "final stats cost")
    if rnd.final_stats.get("events") != len(events):
        raise checks.CheckFailed(f"stats counts {rnd.final_stats.get('events')} events")
    for k, op, raw in rnd.queries:
        reply = json.loads(raw)
        if not reply.get("ok"):
            raise checks.CheckFailed(f"{op} read failed: {reply}")
        checks.check_cost(reply["cost"], prefix_cost(jobs, events, placed, k, rates),
                          f"{op} after {k} events")
    ratio = checks.proven_ratio(spec.algorithm, checks.mu(named))
    checks.check_bounds(checks.volume_bound(named, caps, rates), lower, own, ratio)
    for n_events, cost in rnd.recovered:
        checks.check_recovered(n_events, len(events), cost, own, cost_decimals=6)
    return own


# -- the workload ------------------------------------------------------------

def _percentile(values: list[float], p: float) -> float:
    return float(np.percentile(np.asarray(values), p))


def _counter(stats: dict, name: str) -> float | None:
    entry = stats.get("metrics", {}).get(name)
    return None if entry is None else entry.get("value")


def _layer_metrics(rounds: list[Round], tracer, durable: bool) -> dict:
    """Per-round per-layer figures of a traced run."""
    import tracing

    docs = [tracing.load(r.spans) for r in rounds]
    wait = 0.0
    for rnd, doc in zip(rounds, docs):
        for span in doc["spans"]:
            # only the stream's requests count: the closing stats request
            # may still be open when the spans are written
            if span[4] >= len(rnd.send_times):
                span[2] = None
            elif span[0] == "server.request":
                wait += span[1] - rnd.send_times[span[4]]
    docs.append({"spans": tracer.spans, "counts": tracer.counts, "missing": tracer.missing})
    last = rounds[-1].final_stats
    probes, arrivals = _counter(last, "placement_probes"), _counter(last, "arrivals")
    external = {
        "server.wait_s": wait / len(rounds),
        "machines.probes_per_decision": probes / arrivals if probes is not None and arrivals else None,
    }
    if durable:  # without a WAL these layers do not run and read 0
        fsync = last.get("metrics", {}).get("fsync_latency")
        external.update({
            "wal.appends": _counter(last, "wal_appends"),
            "wal.fsyncs": _counter(last, "wal_fsyncs"),
            "wal.fsync_s": fsync["count"] * fsync["mean"] / 1e3 if fsync else None,
            "wal.store_bytes": float(rounds[-1].store_bytes),
            "state.snapshot_bytes": float(rounds[-1].snapshot_bytes),
        })
    return tracing.layer_metrics(docs, external, len(rounds))


def run(spec: ServeSpec, root: Path, workdir: Path, seed: int, seconds: float,
        tracer=None) -> dict:
    from repro import Job, JobSet, Ladder, MachineType, lower_bound

    if tracer is not None:
        tracer.install(("wal", "state"))  # the in-process recoveries
    rng = np.random.default_rng([seed, 1])
    ladder = inputs.LADDERS[spec.ladder]
    jobs = inputs.poisson_jobs(rng, spec.n_jobs, spec.live, ladder)
    lines, events = inputs.request_lines(jobs)

    started = time.perf_counter()
    rounds: list[Round] = []
    while True:
        spans = (workdir / f"server-spans-{len(rounds)}.json") if tracer else None
        t0 = time.perf_counter()
        rounds.append(run_round(spec, root, workdir, lines, spans))
        took = time.perf_counter() - t0
        if time.perf_counter() - started + took > seconds:
            break

    # outside the timed part: the Eq.-(1) bound of the whole served instance
    instance = JobSet(
        Job(s, a, d, name=f"J{k}")
        for k, (s, a, d) in enumerate(zip(jobs.sizes.tolist(), jobs.starts.tolist(),
                                            jobs.ends.tolist()))
    )
    lower = lower_bound(instance, Ladder(MachineType(g, r) for g, r in ladder)).value
    failed = sum(r.failed for r in rounds)
    problems: list[str] = []
    own_cost = math.nan
    checked: set[str] = set()
    for rnd in rounds:
        if rnd.digest in checked:  # rounds with identical replies pass alike
            continue
        checked.add(rnd.digest)
        try:
            own_cost = check_round(spec, rnd, jobs, events, lower)
        except checks.CheckFailed as exc:
            problems.append(str(exc))

    attempted = sum(len(r.acks) + len(r.queries) + len(r.restore_s) for r in rounds)
    for k, r in enumerate(rounds):
        print(f"round {k}: setup {r.setup_s:.3f}s, {len(lines) / r.stream_s:.0f} events/s, "
              f"ack p50 {_percentile(r.ack_ms, 50):.3f} ms p99 {_percentile(r.ack_ms, 99):.3f} ms"
              + (f", restore {statistics.median(r.restore_s):.3f}s" if r.restore_s else ""),
              file=sys.stderr)
    if tracer is not None:
        return {"metrics": _layer_metrics(rounds, tracer, spec.durable), "attempted": attempted,
                "failed": failed, "problems": problems}
    # The host's speed drifts by +-15% over seconds.  So the stream time is
    # the sum over CHUNKS stretches of the stream of each stretch's median
    # time across rounds (a slow spell costs one stretch of one round, not
    # a whole round), and the median latency pools every round's acks.
    chunk_s = [r.chunk_seconds(CHUNKS) for r in rounds]
    stream_s = sum(statistics.median(c[j] for c in chunk_s) for j in range(CHUNKS))
    ack_all = [x for r in rounds for x in r.ack_ms]
    metrics = {
        "setup_s": (statistics.median(r.setup_s for r in rounds), "s"),
        "throughput_per_s": (len(lines) / stream_s, "1/s"),
        "latency_p50_ms": (_percentile(ack_all, 50), "ms"),
        "peak_rss_mb": (statistics.median(r.peak_rss_mb for r in rounds), "MB"),
        "cost_over_lb": (own_cost / lower, "ratio"),
    }
    # Figures of this workload alone, on standard error: the manifest's
    # end-to-end metrics are those every workload reports.
    extra = [f"ack p99 {statistics.median(_percentile(r.ack_ms, 99) for r in rounds):.4f} ms "
             "(median over rounds)"]
    if spec.query_every:
        extra.append(f"query p50 {_percentile([x for r in rounds for x in r.query_ms], 50):.4f} ms")
    if spec.durable:
        extra.append(f"restore {statistics.median(x for r in rounds for x in r.restore_s):.4f} s")
        extra.append(f"store {statistics.median(r.store_bytes for r in rounds) / 1e6:.4f} MB")
    print("workload figures: " + ", ".join(extra), file=sys.stderr)
    return {"metrics": metrics, "attempted": attempted, "failed": failed,
            "problems": problems}
