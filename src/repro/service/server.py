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

- **Pipelined batches.**  Each time a connection wakes up it takes every
  complete request line already received, up to ``max_inflight``, and
  answers them as one batch: the lines run through the guards and
  handlers in order, the events they applied are appended to the WAL in
  one write with at most one policy fsync, and the replies leave in one
  write.  Replies keep request order and the bytes one request at a
  time gets, except the fsync counters of a ``stats`` read, which count
  the fsyncs group commit saves; a ``shutdown`` ends the batch.
- **Durability.**  With a :class:`~repro.service.wal.WALWriter` attached,
  every mutating request is applied to the runtime and appended to the WAL
  *before* any reply of its batch is written, so an acked event is on the
  durable prefix (subject to the fsync policy) and no reply, reads
  included, leaves before the events ahead of it are logged.  If the WAL
  cannot persist, the batch's success replies become ``storage-error``
  and the server fail-stops via a drain — it never keeps acking writes it
  cannot make durable.
- **Overload shedding.**  At most ``max_inflight`` requests may be in
  flight, each line of a batch counting as one; beyond that, requests are
  answered immediately with the retryable ``overloaded`` error (and a
  ``retry_after_ms`` hint) instead of queueing without bound.
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
from typing import Callable

from .checkpoint import snapshot, write_checkpoint
from .errors import OverloadError, ServiceError
from .faults import FaultInjector, InjectedFault
from .runtime import AdmissionError, SchedulerRuntime
from .wal import WALError, WALWriter

__all__ = [
    "SchedulerServer",
    "parse_line",
    "serve_forever",
]

#: default cap on request line length (bytes), and on in-flight requests
#: (also the most request lines one batch takes)
DEFAULT_MAX_LINE_BYTES = 1 << 16
DEFAULT_MAX_INFLIGHT = 64

#: bytes asked of the socket per read
_READ_BYTES = 1 << 16

#: the ops that apply an event; any other op answers for the events before it
_EVENT_OPS = frozenset({"submit", "depart", "advance"})

#: reply lines: sorted keys with the default ``", "``/``": "`` spacing,
#: from one prebuilt encoder rather than a new one per ``json.dumps``
_encode_reply = json.JSONEncoder(sort_keys=True).encode


def parse_line(line: str) -> dict:
    """Parse one request line into its request object.

    Raises :class:`ServiceError` (``bad-request``) for an empty line,
    malformed JSON or JSON that is not an object.
    """
    if not line.strip():
        raise ServiceError("bad-request", "empty request")
    try:
        request = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ServiceError("bad-request", f"malformed JSON: {exc}") from None
    if not isinstance(request, dict):
        raise ServiceError("bad-request", "request must be a JSON object")
    return request


def _wire_uid(value: object) -> int:
    """A job uid from the wire: a JSON integer, never a float or a bool."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"uid must be a JSON integer, got {value!r}")
    return value


def _wire_number(request: dict, field: str) -> float:
    """A size or time from the wire: a JSON number, never a string or a bool."""
    value = request[field]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{field} must be a JSON number, got {value!r}")
    return float(value)


class SchedulerServer:
    """One runtime exposed over newline-delimited JSON on TCP.

    :meth:`handle_line` and :meth:`handle_request` are the scheduler ops,
    one request in and one response dict out, never raising; they need
    no socket, so tests drive them directly.  The rest is the transport:
    connection lifecycle, request batching, read timeouts, line limits,
    the in-flight overload guard, the append-before-ack WAL step and
    graceful drain.
    """

    def __init__(
        self,
        runtime: SchedulerRuntime,
        *,
        wal: WALWriter | None = None,
        faults: FaultInjector | None = None,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        read_timeout: float | None = None,
        max_line_bytes: int = DEFAULT_MAX_LINE_BYTES,
    ) -> None:
        if max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.runtime = runtime
        self.wal = wal
        self._faults = faults
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
        runtime.metrics.counter("shed_requests")  # visible at zero in stats

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
        fsync the WAL and write a final snapshot, drop connections."""
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
        if self.wal is not None:
            try:
                self.wal.sync()
                self.wal.compact()
                self.wal.close()
            except WALError:
                # fail-stop path: durability already failed once; shutdown
                # must still complete so the process can be restarted.
                self.wal.abandon()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)

    async def close(self) -> None:
        """Alias kept for tests/tools: drain and release the listener."""
        await self.drain()

    # -- requests -----------------------------------------------------------
    def handle_line(self, line: str) -> dict:
        """Process one request line synchronously (also used by tests).

        Never raises: every failure becomes a structured error response.
        """
        try:
            request = parse_line(line)
        except ServiceError as exc:
            return exc.to_wire()
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
        if uid is not None:
            uid = _wire_uid(uid)
            if self.runtime.knows_uid(uid):
                # a redo of an acked submit (client retried across a
                # reconnect); dedicated code so replaying clients can treat
                # it as success
                raise ServiceError(
                    "duplicate-uid", f"job uid {uid} was already submitted", uid=uid
                )
        admission = self.runtime.submit(
            _wire_number(request, "size"),
            _wire_number(request, "t"),
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
        uid = _wire_uid(request["uid"])
        self.runtime.depart(uid, _wire_number(request, "t"))
        return {"ok": True, "uid": uid}

    def _op_advance(self, request: dict) -> dict:
        self.runtime.advance(_wire_number(request, "t"))
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

    # -- connections --------------------------------------------------------
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
        loop = asyncio.get_running_loop()
        pending = bytearray()  # received bytes not yet cut into request lines
        eof = False
        deadline: float | None = None  # for the next complete line
        while not self._shutdown.is_set():
            lines, overlong = self._cut_lines(pending, eof)
            if lines:
                replies = await self._respond(lines)
                await self._send(writer, replies)
                if replies[-1].get("bye"):
                    self._shutdown.set()
                    return
                deadline = None
            elif overlong:
                # the tail of the oversized line is unrecoverable: the lines
                # before it are answered, then the connection closes
                await self._send(writer, [ServiceError(
                    "line-too-long", f"request exceeds {self._max_line_bytes} bytes"
                ).to_wire()])
                return
            elif eof:
                return
            else:
                try:
                    if self._read_timeout is None:
                        chunk = await reader.read(_READ_BYTES)
                    else:
                        if deadline is None:
                            deadline = loop.time() + self._read_timeout
                        chunk = await asyncio.wait_for(
                            reader.read(_READ_BYTES), deadline - loop.time()
                        )
                except asyncio.TimeoutError:
                    await self._send(writer, [ServiceError(
                        "idle-timeout",
                        f"no request within {self._read_timeout:g}s; closing",
                    ).to_wire()])
                    return
                pending += chunk
                eof = not chunk

    def _cut_lines(self, pending: bytearray, eof: bool) -> tuple[list[str], bool]:
        """Cut up to ``max_inflight`` complete request lines (newline kept)
        off the front of ``pending``; at EOF an unterminated tail is the
        last line.  The flag says an over-long line stops the cut: one
        longer than ``max_line_bytes``, or an unterminated tail already
        longer.
        """
        lines: list[str] = []
        start = 0
        overlong = False
        while len(lines) < self._max_inflight:
            end = pending.find(b"\n", start)
            stop = len(pending) if end < 0 else end
            if stop - start > self._max_line_bytes:
                overlong = True
                break
            if end < 0:
                if eof and stop > start:
                    lines.append(pending[start:].decode("utf-8", "replace"))
                    start = stop
                break
            lines.append(pending[start:end + 1].decode("utf-8", "replace"))
            start = end + 1
        del pending[:start]
        return lines, overlong

    async def _send(self, writer: asyncio.StreamWriter, replies: list[dict]) -> None:
        """Write a batch's replies, one line each, with one write and one drain."""
        writer.write("".join([_encode_reply(r) + "\n" for r in replies]).encode())
        await writer.drain()

    async def _respond(self, lines: list[str]) -> list[dict]:
        """Answer a batch of request lines, in order.

        Each line passes the drain and overload guards and the fault hook,
        then runs its handler.  The events the batch applied are appended
        to the WAL in one write before the caller sends any reply, so no
        reply leaves before the events ahead of it are logged.  The append
        runs early only before an op that applies no event (a read or a
        ``shutdown``, which answers for every event before it) and where a
        snapshot is due, so reads and snapshots see the same log as with
        one request at a time.  A ``shutdown`` ends the batch.
        """
        replies: list[dict] = []
        admitted = 0
        try:
            for line in lines:
                if self._draining:
                    replies.append(ServiceError(
                        "draining", "server is shutting down; retry elsewhere"
                    ).to_wire())
                    continue
                if self._inflight >= self._max_inflight:
                    self.runtime.metrics.counter("shed_requests").inc()
                    replies.append(OverloadError(
                        f"{self._inflight} requests in flight (limit "
                        f"{self._max_inflight}); retry later"
                    ).to_wire())
                    continue
                self._inflight += 1
                admitted += 1
                self._idle.clear()
                if self._faults is not None:
                    await self._faults.apoint("server.request")
                try:
                    request = parse_line(line)
                except ServiceError as exc:
                    replies.append(exc.to_wire())
                    continue
                if request.get("op") not in _EVENT_OPS:
                    failed = self._commit(replies)
                    if failed is not None:
                        replies.append(failed)
                        continue
                replies.append(self.handle_request(request))
                if replies[-1].get("bye"):
                    break
                if self.wal is not None and self.wal.compaction_due:
                    self._commit(replies)
            self._commit(replies)
            if self._faults is not None:
                await self._faults.apoint("server.ack")
            return replies
        finally:
            self._inflight -= admitted
            if self._inflight == 0:
                self._idle.set()

    def _commit(self, replies: list[dict]) -> dict | None:
        """Append every applied event not yet logged to the WAL.

        If the log cannot persist, the server fail-stops and every success
        reply of the batch becomes the returned ``storage-error`` reply: it
        never acks an event it could not make durable.
        """
        if self.wal is None or self.wal.n_appended == self.runtime.n_events:
            return None
        try:
            self.wal.append_new()
        except WALError as exc:
            asyncio.get_running_loop().call_soon(self._shutdown.set)
            self._draining = True
            failed = ServiceError(
                "storage-error", f"write-ahead log failed: {exc}"
            ).to_wire()
            replies[:] = [failed if reply.get("ok") else reply for reply in replies]
            return failed
        return None


#: the name perfbench's request-span wrap still targets
JsonLineServer = SchedulerServer


def _install_signal_handlers(
    loop: asyncio.AbstractEventLoop, server: SchedulerServer
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
    wal: WALWriter | None = None,
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
