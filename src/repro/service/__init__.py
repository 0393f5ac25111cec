"""repro.service — the streaming scheduler runtime.

Everything outside this package speaks the batch language of
:class:`~repro.jobs.jobset.JobSet`; this package speaks the *service*
language of one event at a time:

- :mod:`~repro.service.runtime` — :class:`SchedulerRuntime`, the
  incremental online engine (``submit`` / ``depart`` / ``advance``) with
  admission control and a running busy-cost accumulator,
- :mod:`~repro.service.checkpoint` — versioned JSON snapshots and the
  newline-delimited trace format with byte-identical record/replay,
- :mod:`~repro.service.metrics` — counters, gauges and histograms sampled
  by the runtime,
- :mod:`~repro.service.server` — the asyncio JSON-lines server behind
  ``bshm serve`` (overload shedding, graceful drain, structured errors),
- :mod:`~repro.service.state` — full-state snapshots (exact float loads,
  no event replay) backing WAL compaction, encoded incrementally by
  :class:`SnapshotEncoder`,
- :mod:`~repro.service.wal` — the durable write-ahead log with CRC
  framing, torn-tail recovery and snapshot+delta restore,
- :mod:`~repro.service.faults` — deterministic seed-driven fault
  injection for chaos testing the above,
- :mod:`~repro.service.errors` — the structured wire-error taxonomy,
- :mod:`~repro.service.client` — a retrying client with exponential
  backoff used by ``bshm replay --to``,
- :mod:`~repro.service.storage` — the pluggable event-log persistence
  contract (:class:`StateStore`) with in-memory and SQLite backends and
  snapshot + O(delta) restore,
- :mod:`~repro.service.shard` — the sharded multi-worker service: a
  router hash-routing jobs by machine-type pool to N worker processes,
  each with its own runtime and store (``bshm serve --workers N``).

The batch :func:`~repro.online.engine.run_online` is a thin adapter over
:class:`SchedulerRuntime`, so online algorithms, experiments and the live
service all share one code path.
"""

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .runtime import (
    SCHEDULER_REGISTRY,
    Admission,
    AdmissionError,
    SchedulerRuntime,
    make_scheduler,
    max_active_policy,
    size_fits_policy,
)
from .checkpoint import (
    CheckpointError,
    load_checkpoint,
    read_trace,
    record_trace,
    replay_trace,
    restore,
    snapshot,
    write_checkpoint,
    write_trace,
    TRACE_VERSION,
)
from .client import ClientError, RetryingClient, replay_events
from .errors import OverloadError, ServiceError, error_payload
from .faults import FaultInjector, FaultPlan, FaultPoint, InjectedFault
from .server import (
    JsonLineServer,
    RequestHandler,
    SchedulerServer,
    serve_forever,
)
from .shard import (
    LocalWorkerHandle,
    ShardError,
    ShardRouter,
    ShardWorker,
    WorkerHandle,
    WorkerSpec,
    serve_sharded,
    start_worker_fleet,
)
from .state import SnapshotEncoder, capture_state, restore_state
from .storage import (
    MemoryStore,
    RecoveredStore,
    SQLiteStore,
    StateStore,
    StorageError,
    StoreWriter,
    open_store,
    restore_from_store,
    shard_store_spec,
)
from .wal import RecoveredState, WALError, WALWriter, recover

__all__ = [
    "Admission",
    "AdmissionError",
    "CheckpointError",
    "ClientError",
    "Counter",
    "FaultInjector",
    "FaultPlan",
    "FaultPoint",
    "Gauge",
    "Histogram",
    "InjectedFault",
    "JsonLineServer",
    "LocalWorkerHandle",
    "MemoryStore",
    "MetricsRegistry",
    "OverloadError",
    "RecoveredState",
    "RecoveredStore",
    "RequestHandler",
    "RetryingClient",
    "SCHEDULER_REGISTRY",
    "SQLiteStore",
    "SchedulerRuntime",
    "SchedulerServer",
    "ServiceError",
    "ShardError",
    "ShardRouter",
    "ShardWorker",
    "SnapshotEncoder",
    "StateStore",
    "StorageError",
    "StoreWriter",
    "TRACE_VERSION",
    "WALError",
    "WALWriter",
    "WorkerHandle",
    "WorkerSpec",
    "capture_state",
    "error_payload",
    "load_checkpoint",
    "make_scheduler",
    "max_active_policy",
    "open_store",
    "read_trace",
    "record_trace",
    "recover",
    "replay_events",
    "replay_trace",
    "restore",
    "restore_from_store",
    "restore_state",
    "serve_forever",
    "serve_sharded",
    "shard_store_spec",
    "size_fits_policy",
    "snapshot",
    "start_worker_fleet",
    "write_checkpoint",
    "write_trace",
]
