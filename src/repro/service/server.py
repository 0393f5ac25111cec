"""The asyncio JSON-lines scheduler server behind ``bshm serve``.

Wire protocol: one JSON document per line in each direction.  Requests
carry an ``op`` field; responses always carry ``ok``, and failed responses
carry a structured ``error`` object — ``{"code", "message", "retryable",
...}`` per the taxonomy in :mod:`repro.service.errors`.  The scheduler
state is a single :class:`~repro.service.runtime.SchedulerRuntime` shared
by all connections (handlers are synchronous, so the event loop serializes
them and the time-monotonicity contract is enforced globally).

Ops::

    {"op": "submit", "size": 2.5, "t": 10.0, "name"?: str, "uid"?: int}
        -> {"ok": true, "uid": 7, "accepted": true, "machine": "T2[A/1]",
            "type": 2}   (or "accepted": false with "reason")
    {"op": "depart", "uid": 7, "t": 14.0}        -> {"ok": true, "uid": 7}
    {"op": "advance", "t": 20.0}                 -> {"ok": true, "clock": 20.0}
    {"op": "stats"}      -> {"ok": true, "clock", "active", "cost", "metrics"}
    {"op": "schedule"}   -> {"ok": true, "cost", "jobs", "machines"}
    {"op": "checkpoint", "path"?: str}
        -> {"ok": true, "path": ...} or {"ok": true, "snapshot": {...}}
    {"op": "shutdown"}   -> {"ok": true, "bye": true}   (graceful drain)

Robustness properties (see ``docs/operations.md``):

- **Durability.**  With a :class:`~repro.service.wal.WALWriter` attached,
  every mutating request is applied to the runtime and appended to the WAL
  *before* the acknowledgement is written, so an acked event is on the
  durable prefix (subject to the fsync policy).  If the WAL cannot
  persist, the request is answered with ``storage-error`` and the server
  fail-stops via a drain — it never keeps acking writes it cannot make
  durable.
- **Overload shedding.**  At most ``max_inflight`` requests may be in
  flight; beyond that, requests are answered immediately with the
  retryable ``overloaded`` error (and a ``retry_after_ms`` hint) instead
  of queueing without bound.
- **Graceful drain.**  ``shutdown`` requests, SIGTERM and SIGINT all
  trigger the same path: stop accepting connections, let in-flight
  requests finish (new ones get the retryable ``draining`` error), fsync
  the WAL and write a final snapshot, then disconnect.
- **Connection hygiene.**  Reads are bounded in both time
  (``read_timeout``) and size (``max_line_bytes``); clients that vanish
  mid-exchange (``ConnectionResetError`` / ``BrokenPipeError``) are
  cleaned up without touching the shared runtime.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
from typing import TYPE_CHECKING, Callable

from .checkpoint import snapshot, write_checkpoint
from .errors import OverloadError, ServiceError
from .faults import FaultInjector, InjectedFault
from .runtime import AdmissionError, SchedulerRuntime
from .storage.base import StorageError
from .storage.writer import StoreWriter
from .wal import WALError, WALWriter

if TYPE_CHECKING:  # pragma: no cover
    from .metrics import MetricsRegistry

__all__ = [
    "JsonLineServer",
    "RequestHandler",
    "SchedulerServer",
    "parse_line",
    "serve_forever",
]

#: default cap on request line length (bytes), and on in-flight requests
DEFAULT_MAX_LINE_BYTES = 1 << 16
DEFAULT_MAX_INFLIGHT = 64

#: failures the durable layer raises when it can no longer persist —
#: the server fail-stops identically whichever backend is attached
PERSISTENCE_ERRORS = (WALError, StorageError)

#: reply lines: sorted keys with the default ``", "``/``": "`` spacing,
#: from one prebuilt encoder rather than a new one per ``json.dumps``
_encode_reply = json.JSONEncoder(sort_keys=True).encode


def parse_line(line: str) -> "tuple[dict | None, dict | None]":
    """Parse one request line into ``(request, None)`` or ``(None, error)``.

    The error half is a complete failed-response document, so callers
    (the single-loop handler and the shard router alike) reject malformed
    lines with byte-identical responses.
    """
    if not line.strip():
        return None, ServiceError("bad-request", "empty request").to_wire()
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        return None, ServiceError(
            "bad-request", f"malformed JSON: {exc}"
        ).to_wire()
    if not isinstance(request, dict):
        return None, ServiceError(
            "bad-request", "request must be a JSON object"
        ).to_wire()
    return request, None


class RequestHandler:
    """The scheduler ops behind the wire protocol, transport-free.

    One request dict in, one response dict out, never raising — this is
    the part of :class:`SchedulerServer` a shard worker process reuses, so
    a sharded service answers every op byte-identically to the single-loop
    server by construction.
    """

    def __init__(self, runtime: SchedulerRuntime) -> None:
        self.runtime = runtime

    def handle_line(self, line: str) -> dict:
        """Process one request line synchronously (also used by tests).

        Never raises: every failure becomes a structured error response.
        """
        request, error = parse_line(line)
        if request is None:
            return error if error is not None else ServiceError(
                "bad-request", "empty request"
            ).to_wire()
        return self.handle_request(request)

    def handle_request(self, request: dict) -> dict:
        """Dispatch one parsed request to its op handler (never raises)."""
        op = request.get("op")
        handler = getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        if handler is None:
            return ServiceError("unknown-op", f"unknown op {op!r}").to_wire()
        try:
            return handler(request)  # type: ignore[no-any-return]
        except ServiceError as exc:
            return exc.to_wire()
        except (AdmissionError, ValueError, TypeError, KeyError) as exc:
            return ServiceError(
                "invalid-request", f"{type(exc).__name__}: {exc}"
            ).to_wire()

    # -- ops ----------------------------------------------------------------
    def _op_submit(self, request: dict) -> dict:
        uid = request.get("uid")
        if uid is not None and self.runtime.knows_uid(int(uid)):
            # a redo of an acked submit (client retried across a reconnect);
            # dedicated code so replaying clients can treat it as success
            raise ServiceError(
                "duplicate-uid",
                f"job uid {int(uid)} was already submitted",
                uid=int(uid),
            )
        admission = self.runtime.submit(
            float(request["size"]),
            float(request["t"]),
            name=request.get("name"),
            uid=uid,
        )
        out: dict = {"ok": True, "uid": admission.uid, "accepted": admission.accepted}
        if admission.machine is not None:
            out["machine"] = str(admission.machine)
            out["type"] = admission.machine.type_index
        else:
            out["reason"] = admission.reason
        return out

    def _op_depart(self, request: dict) -> dict:
        self.runtime.depart(int(request["uid"]), float(request["t"]))
        return {"ok": True, "uid": int(request["uid"])}

    def _op_advance(self, request: dict) -> dict:
        self.runtime.advance(float(request["t"]))
        return {"ok": True, "clock": self.runtime.clock}

    def _op_stats(self, request: dict) -> dict:
        clock = self.runtime.clock
        return {
            "ok": True,
            "clock": None if not math.isfinite(clock) else clock,
            "active": self.runtime.n_active,
            "events": self.runtime.n_events,
            "cost": self.runtime.cost(),
            "busy_by_type": {
                str(i): n for i, n in self.runtime.busy_machines_by_type().items()
            },
            "metrics": self.runtime.metrics.as_dict(),
        }

    def _op_schedule(self, request: dict) -> dict:
        sched = self.runtime.schedule()
        return {
            "ok": True,
            "cost": sched.cost(),
            "jobs": len(sched),
            "machines": len(sched.machines()),
        }

    def _op_checkpoint(self, request: dict) -> dict:
        path = request.get("path")
        if path:
            write_checkpoint(self.runtime, path)
            return {"ok": True, "path": str(path)}
        return {"ok": True, "snapshot": snapshot(self.runtime)}

    def _op_shutdown(self, request: dict) -> dict:
        return {"ok": True, "bye": True}


class JsonLineServer:
    """The transport half of the service: newline-delimited JSON over TCP.

    Owns everything protocol-agnostic — connection lifecycle, read
    timeouts, line limits, the in-flight overload guard, graceful drain —
    and leaves two hooks to subclasses: :meth:`_dispatch` (one request
    line to one response dict) and :meth:`_drain_persistence` (make state
    durable during drain).  :class:`SchedulerServer` plugs a runtime + WAL
    into those hooks; :class:`repro.service.shard.ShardRouter` plugs in a
    worker fleet — both get identical wire behaviour for free.
    """

    def __init__(
        self,
        *,
        metrics: "MetricsRegistry",
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        read_timeout: float | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self._transport_metrics = metrics
        self._max_inflight = max_inflight
        self._read_timeout = read_timeout
        self._max_line_bytes = max_line_bytes
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        self._draining = False
        self._drained = False
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._conn_tasks: set[asyncio.Task] = set()
        metrics.counter("shed_requests")  # visible at zero in stats

    # -- subclass hooks -----------------------------------------------------
    async def _dispatch(self, line: str) -> dict:
        """Turn one request line into one response dict (never raises)."""
        raise NotImplementedError

    async def _drain_persistence(self) -> None:
        """Make state durable while draining (after in-flight settles)."""

    # -- lifecycle ----------------------------------------------------------
    async def start(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Bind and start serving; returns the actual ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._handle, host, port, limit=self._max_line_bytes
        )
        sock_host, sock_port = self._server.sockets[0].getsockname()[:2]
        return sock_host, sock_port

    def request_shutdown(self) -> None:
        """Signal-safe trigger for a graceful drain (SIGTERM/SIGINT hook)."""
        self._shutdown.set()

    async def wait_shutdown(self) -> None:
        """Block until shutdown is requested, then drain gracefully."""
        await self._shutdown.wait()
        await self.drain()

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, finish in-flight requests,
        make state durable, drop connections."""
        if self._drained:
            return
        self._drained = True
        self._draining = True
        self._shutdown.set()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self._idle.wait()  # every accepted request has been answered
        await self._drain_persistence()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def close(self) -> None:
        """Alias kept for tests/tools: drain and release the listener."""
        await self.drain()

    # -- request handling ---------------------------------------------------
    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._serve_connection(reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client vanished mid-exchange; shared state is untouched
        except InjectedFault:
            pass  # chaos harness severed this connection on purpose
        except asyncio.CancelledError:
            pass  # drain is force-dropping lingering connections
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            with contextlib.suppress(ConnectionError, OSError):
                await writer.wait_closed()

    async def _serve_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        while not self._shutdown.is_set():
            try:
                if self._read_timeout is not None:
                    line = await asyncio.wait_for(
                        reader.readline(), self._read_timeout
                    )
                else:
                    line = await reader.readline()
            except asyncio.TimeoutError:
                await self._send(
                    writer,
                    ServiceError(
                        "idle-timeout",
                        f"no request within {self._read_timeout:g}s; closing",
                    ).to_wire(),
                )
                return
            except (asyncio.LimitOverrunError, ValueError):
                # readline overran the stream limit; the tail of the
                # oversized line is unrecoverable, so answer and hang up
                await self._send(
                    writer,
                    ServiceError(
                        "line-too-long",
                        f"request exceeds {self._max_line_bytes} bytes",
                    ).to_wire(),
                )
                return
            if not line:
                return
            response = await self._respond(line.decode("utf-8", "replace"))
            await self._send(writer, response)
            if response.get("bye"):
                self._shutdown.set()
                return

    async def _send(self, writer: asyncio.StreamWriter, response: dict) -> None:
        writer.write((_encode_reply(response) + "\n").encode())
        await writer.drain()

    async def _respond(self, line: str) -> dict:
        """Drain + overload guards around the subclass dispatch hook."""
        if self._draining:
            return ServiceError(
                "draining", "server is shutting down; retry elsewhere"
            ).to_wire()
        if self._inflight >= self._max_inflight:
            self._transport_metrics.counter("shed_requests").inc()
            return OverloadError(
                f"{self._inflight} requests in flight (limit "
                f"{self._max_inflight}); retry later"
            ).to_wire()
        self._inflight += 1
        self._idle.clear()
        try:
            return await self._dispatch(line)
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()


class SchedulerServer(RequestHandler, JsonLineServer):
    """One runtime exposed over newline-delimited JSON on TCP."""

    def __init__(
        self,
        runtime: SchedulerRuntime,
        *,
        wal: "WALWriter | StoreWriter | None" = None,
        faults: FaultInjector | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        read_timeout: float | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        RequestHandler.__init__(self, runtime)
        JsonLineServer.__init__(
            self,
            metrics=runtime.metrics,
            max_inflight=max_inflight,
            read_timeout=read_timeout,
            max_line_bytes=max_line_bytes,
        )
        self.wal = wal
        self._faults = faults

    async def _drain_persistence(self) -> None:
        """Make the WAL/store durable: fsync + final snapshot + close."""
        if self.wal is not None:
            try:
                self.wal.sync()
                self.wal.compact()
                self.wal.close()
            except PERSISTENCE_ERRORS:
                # fail-stop path: durability already failed once; shutdown
                # must still complete so the process can be restarted.
                self.wal.abandon()

    async def _dispatch(self, line: str) -> dict:
        """Fault hook + handler + WAL append, in ack order."""
        if self._faults is not None:
            await self._faults.apoint("server.request")
        response = self.handle_line(line)
        if self.wal is not None and response.get("ok"):
            try:
                self.wal.append_new()
            except PERSISTENCE_ERRORS as exc:
                # the event is applied in memory but not durable: tell
                # the client it failed and fail-stop the service.
                asyncio.get_running_loop().call_soon(self._shutdown.set)
                self._draining = True
                return ServiceError(
                    "storage-error", f"write-ahead log failed: {exc}"
                ).to_wire()
        return response

def _install_signal_handlers(
    loop: asyncio.AbstractEventLoop, server: JsonLineServer
) -> list[signal.Signals]:
    installed: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, server.request_shutdown)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
            continue
        installed.append(sig)
    return installed


async def serve_forever(
    runtime: SchedulerRuntime,
    host: str = "127.0.0.1",
    port: int = 0,
    *,
    wal: "WALWriter | StoreWriter | None" = None,
    faults: FaultInjector | None = None,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    read_timeout: float | None = None,
    max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    on_ready: Callable[[str, int], None] | None = None,
) -> None:
    """Start a server and run until shutdown (client op, SIGTERM or SIGINT),
    then drain gracefully.

    ``on_ready(host, port)`` is called once the socket is bound — the CLI
    uses it to print the ephemeral port before blocking.
    """
    server = SchedulerServer(
        runtime,
        wal=wal,
        faults=faults,
        max_inflight=max_inflight,
        read_timeout=read_timeout,
        max_line_bytes=max_line_bytes,
    )
    loop = asyncio.get_running_loop()
    installed = _install_signal_handlers(loop, server)
    try:
        bound_host, bound_port = await server.start(host, port)
        if on_ready is not None:
            on_ready(bound_host, bound_port)
        await server.wait_shutdown()
    finally:
        for sig in installed:
            with contextlib.suppress(ValueError, RuntimeError):
                loop.remove_signal_handler(sig)
