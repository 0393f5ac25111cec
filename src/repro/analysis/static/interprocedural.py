"""Interprocedural rules: invariants that cross module boundaries.

These rules run over the whole-program :class:`~.project.Project` and
its conservative :class:`~.callgraph.CallGraph` instead of a single
file's AST:

- :class:`OracleReachability` (BSHM008) — a ``*_reference`` oracle
  kernel reachable, transitively, from a hot-path entry point.  This is
  BSHM003's same-file heuristic upgraded to true reachability: BSHM003
  bans the direct call/import; BSHM008 walks the call graph from the
  serving entry points (``serve_forever``, ``run_online``,
  ``SchedulerRuntime.submit/depart/advance``) and flags any oracle the
  closure can reach through helpers.
- :class:`NondeterminismTaint` (BSHM009) — a value produced by an
  unseeded RNG, a wall-clock read, ``id()`` or set iteration flowing
  into a replay-critical sink (WAL appends, checkpoint and trace
  serialization), *across function boundaries*: a helper that returns
  a tainted value taints every call site, to a fixpoint over the call
  graph.
- :class:`DurabilityOrdering` (BSHM011) — a service code path that emits
  a success acknowledgement where the durable append is not ordered
  before it: either an ack reached with no append on any path so far, or
  an append executed *after* the ack on the same path.  This is the
  fsync-before-ack contract of ``docs/operations.md`` made mechanical.

Suppressions work exactly as for the file rules: ``# bshm:
ignore[<RULE>]`` on the diagnostic's line (project-rule diagnostics
anchor at the offending def, sink call, or ack).
"""

from __future__ import annotations

from typing import Any, Iterator

from .callgraph import CallGraph, build_callgraph, iter_call_events
from .diagnostics import Diagnostic
from .project import Project
from .rules import Rule, register_rule

__all__ = [
    "HOT_ENTRY_NAMES",
    "ProjectRule",
    "OracleReachability",
    "NondeterminismTaint",
    "DurabilityOrdering",
    "check_project",
]


class ProjectRule(Rule):
    """A rule that inspects the whole project, not one file.

    ``check`` (the per-file hook) never runs; the engine calls
    :meth:`check_project` once per analysis with the shared project and
    call graph.
    """

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        raise NotImplementedError

    def project_diag(
        self, path: str, line: int, col: int, message: str
    ) -> Diagnostic:
        return Diagnostic(
            path=path,
            line=line,
            col=col + 1,
            rule_id=self.id,
            message=message,
            severity=self.severity,
        )


def check_project(project: Project) -> list[Diagnostic]:
    """Run every registered project rule over one project (unsuppressed;
    the runner applies per-file suppressions)."""
    from .rules import all_rules

    graph = build_callgraph(project)
    findings: list[Diagnostic] = []
    for rule in all_rules():
        if isinstance(rule, ProjectRule):
            findings.extend(rule.check_project(project, graph))
    return sorted(findings)


# ---------------------------------------------------------------------------
# BSHM008 — oracle kernels reachable from hot-path entry points
# ---------------------------------------------------------------------------

#: functions that anchor the serving/online hot path, wherever they live
HOT_ENTRY_NAMES = frozenset({"serve_forever", "run_online"})
#: methods that are hot-path entries on runtime-like classes
_HOT_ENTRY_METHODS = frozenset({"submit", "depart", "advance"})


def hot_entry_points(project: Project) -> list[str]:
    """Fully-qualified hot-path entry functions present in the project."""
    entries: list[str] = []
    for qual, fn in project.functions.items():
        if fn["name"] in HOT_ENTRY_NAMES and fn["cls"] is None:
            entries.append(qual)
        elif (
            fn["name"] in _HOT_ENTRY_METHODS
            and fn["cls"] is not None
            and fn["cls"].endswith("Runtime")
        ):
            entries.append(qual)
    return sorted(entries)


@register_rule
class OracleReachability(ProjectRule):
    """A ``*_reference`` oracle transitively reachable from a hot path.

    BSHM003 catches the direct call; this rule catches the laundered
    one — a helper (or a chain of helpers) that ends at a quadratic
    oracle kernel, silently reintroducing the per-time-point complexity
    the sweep kernels removed from the serving path.  The call graph is
    conservative (unknown receivers match by method name), so a finding
    means "no type information rules this path out", and a suppression
    must argue why the path is dead.
    """

    id = "BSHM008"
    title = "oracle kernel reachable from a hot-path entry point"
    rationale = "serving paths stay sweep-kernel-only; oracles are test-only"
    scopes = None

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        entries = hot_entry_points(project)
        if not entries:
            return
        tree = graph.reachable(entries)
        for qual in sorted(tree):
            fn = project.functions.get(qual)
            if fn is None or not fn["name"].endswith("_reference"):
                continue
            path = graph.path_to(tree, qual)
            if any(
                project.functions[q]["name"].endswith("_reference")
                for q in path[:-1]
                if q in project.functions
            ):
                continue  # inner twin of an already-reported oracle
            chain = " -> ".join(q.split(".")[-1] for q in path)
            yield self.project_diag(
                fn["path"],
                fn["line"],
                0,
                f"oracle kernel {fn['name']!r} is reachable from hot-path "
                f"entry point {path[0]!r} via {chain}; the serving path "
                "must stay on the sweep kernels (see BSHM003 for the "
                "direct-call form)",
            )


# ---------------------------------------------------------------------------
# BSHM009 — nondeterminism taint reaching replay-critical sinks
# ---------------------------------------------------------------------------

#: wall-clock reads (mirrors BSHM004's set)
_WALL_CLOCK = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
    }
)
_DATETIME_NOW = frozenset({"now", "utcnow", "today"})

#: calls whose results are deterministic even over unordered inputs
_CLEANSERS = frozenset({"sorted", "len"})

#: replay-critical sink call names: durable appends, checkpoint/trace
#: serialization
SINK_NAMES = frozenset(
    {"append_new", "write_checkpoint", "write_trace", "record_trace"}
)


def _is_source_call(fn_entry: dict[str, Any]) -> bool:
    """Is this call facts entry a nondeterminism source by itself?"""
    fn = fn_entry["fn"]
    nargs = fn_entry.get("nargs", 0)
    name = fn.lstrip(".")
    parts = name.split(".")
    last = parts[-1]
    if name in _WALL_CLOCK:
        return True
    if last in _DATETIME_NOW and any(p in ("datetime", "date") for p in parts[:-1]):
        return True
    if name == "id" and nargs == 1:
        return True
    if len(parts) >= 2 and parts[-2] == "random":
        if last != "default_rng":
            return True
        return nargs == 0
    if last == "default_rng" and nargs == 0:
        return True
    return False


def _summary_tainted(
    summary: dict[str, Any], tainted_vars: set[str], tainted_fns: set[str],
    resolve: "_Resolver",
) -> bool:
    """Is an expression summary tainted?  A cleanser anywhere in the
    expression is (coarsely) taken to launder it — ``sorted(s)`` over a
    set is exactly the blessed idiom."""
    fns = summary.get("fns", ())
    if any(f["fn"].lstrip(".").split(".")[-1] in _CLEANSERS for f in fns):
        return False
    if any(v in tainted_vars for v in summary.get("vars", ())):
        return True
    for f in fns:
        if _is_source_call(f):
            return True
        if resolve(f["fn"]) & tainted_fns:
            return True
    return False


class _Resolver:
    """Memoized call-string -> callee-qual-set resolution for one function."""

    def __init__(self, graph: CallGraph, module: str, cls: str | None) -> None:
        self._graph = graph
        self._module = module
        self._cls = cls
        self._memo: dict[str, frozenset[str]] = {}

    def __call__(self, fn: str) -> frozenset[str]:
        hit = self._memo.get(fn)
        if hit is None:
            hit = frozenset(self._graph.resolve_call(self._module, self._cls, fn))
            self._memo[fn] = hit
        return hit


def _walk_taint(
    block: list[dict[str, Any]],
    tainted: set[str],
    tainted_fns: set[str],
    resolve: _Resolver,
    sink_hits: list[dict[str, Any]] | None,
) -> bool:
    """Propagate taint through one block; returns True if a tainted value
    reaches a ``return``.  ``sink_hits`` collects sink calls fed taint."""
    returns_tainted = False
    for event in block:
        kind = event["k"]
        if kind == "call":
            if sink_hits is not None and event["fn"].lstrip(".").split(".")[
                -1
            ] in SINK_NAMES:
                for arg in event["args"]:
                    if _summary_tainted(arg, tainted, tainted_fns, resolve):
                        sink_hits.append(event)
                        break
        elif kind == "assign":
            if _summary_tainted(event, tainted, tainted_fns, resolve):
                tainted.update(event["targets"])
            else:
                for target in event["targets"]:
                    tainted.discard(target)
        elif kind == "ret":
            if _summary_tainted(event, tainted, tainted_fns, resolve):
                returns_tainted = True
        elif kind == "branch":
            merged: set[str] = set()
            for arm in event["arms"]:
                arm_tainted = set(tainted)
                if _walk_taint(arm, arm_tainted, tainted_fns, resolve, sink_hits):
                    returns_tainted = True
                merged |= arm_tainted
            tainted |= merged
        elif kind == "loop":
            if event["set_iter"]:
                tainted.update(event["targets"])
            elif _summary_tainted(event["iter"], tainted, tainted_fns, resolve):
                tainted.update(event["targets"])
            # two passes so taint introduced late in the body reaches uses
            # at the top on the next iteration
            for _ in range(2):
                if _walk_taint(
                    event["body"], tainted, tainted_fns, resolve, sink_hits
                ):
                    returns_tainted = True
    return returns_tainted


@register_rule
class NondeterminismTaint(ProjectRule):
    """Nondeterministic values reaching replay-critical sinks.

    BSHM004 bans the *calls* in deterministic scopes; this rule follows
    the *values*: a helper anywhere in the package that returns
    ``time.time()`` (or an unseeded RNG draw, ``id()``, a set-ordered
    list) taints its call sites, and any tainted argument handed to a
    WAL append or a checkpoint/trace serializer is a replay hazard no
    matter how many modules it crossed.
    """

    id = "BSHM009"
    title = "nondeterministic value reaches a replay-critical sink"
    rationale = "byte-identical replay: sinks must see deterministic inputs"
    scopes = None

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        # fixpoint: which functions return tainted values?
        tainted_fns: set[str] = set()
        resolvers = {
            qual: _Resolver(graph, fn["module"], fn["cls"])
            for qual, fn in project.functions.items()
        }
        changed = True
        rounds = 0
        while changed and rounds < 20:
            changed = False
            rounds += 1
            for qual, fn in project.functions.items():
                if qual in tainted_fns:
                    continue
                if _walk_taint(
                    fn["body"], set(), tainted_fns, resolvers[qual], None
                ):
                    tainted_fns.add(qual)
                    changed = True
        for qual in sorted(project.functions):
            fn = project.functions[qual]
            sink_hits: list[dict[str, Any]] = []
            _walk_taint(fn["body"], set(), tainted_fns, resolvers[qual], sink_hits)
            seen: set[tuple[int, int]] = set()
            for event in sink_hits:
                key = (event["line"], event["col"])
                if key in seen:
                    continue  # the loop walker passes twice by design
                seen.add(key)
                sink = event["fn"].lstrip(".").split(".")[-1]
                yield self.project_diag(
                    fn["path"],
                    event["line"],
                    event["col"],
                    f"nondeterministic value flows into replay-critical "
                    f"sink {sink!r} (in {fn['name']}); values reaching the "
                    "journal/WAL/checkpoint must be deterministic functions "
                    "of the event stream",
                )


# ---------------------------------------------------------------------------
# BSHM011 — durability-contract ordering: append before ack
# ---------------------------------------------------------------------------

#: direct durable-append call names (WALWriter)
APPEND_NAMES = frozenset({"append_new"})
#: call names that transmit a response to the client
_ACK_CALL_NAMES = frozenset({"_send"})
#: calls whose result is a client-visible response document
_HANDLER_NAMES = frozenset({"handle_line", "handle_request"})
#: an ack whose payload is built from these is an *error* response — the
#: durability contract only covers success acks
_ERROR_MARKERS = frozenset(
    {"to_wire", "error_payload", "ServiceError", "OverloadError"}
)

_NO, _MAYBE, _YES = 0, 1, 2


def _durable_functions(project: Project, graph: CallGraph) -> set[str]:
    """Functions that (transitively) perform a durable append."""
    direct = {
        qual
        for qual, fn in project.functions.items()
        if any(
            ev["fn"].lstrip(".").split(".")[-1] in APPEND_NAMES
            for ev in iter_call_events(fn["body"])
        )
    }
    # propagate up the call graph: callers of durable functions are durable
    callers: dict[str, set[str]] = {}
    for caller, edges in graph.edges.items():
        for edge in edges:
            callers.setdefault(edge.callee, set()).add(caller)
    durable = set(direct)
    queue = list(direct)
    while queue:
        cur = queue.pop()
        for caller in callers.get(cur, ()):
            if caller not in durable:
                durable.add(caller)
                queue.append(caller)
    return durable


class _DurableCallPred:
    """Does a callee string resolve exclusively to durable functions?

    Requiring *every* conservative target to be durable keeps CHA noise
    (``.apply`` matching unrelated methods) from counting as an append.
    """

    def __init__(self, resolver: _Resolver, durable: frozenset[str]) -> None:
        self._resolver = resolver
        self._durable = durable

    def __call__(self, callee: str) -> bool:
        targets = self._resolver(callee)
        return bool(targets) and targets <= self._durable


class _OrderState:
    __slots__ = ("appended", "acked_lines")

    def __init__(self, appended: int = _NO) -> None:
        self.appended = appended
        self.acked_lines: list[int] = []


def _walk_order(
    block: list[dict[str, Any]],
    state: _OrderState,
    response_vars: set[str],
    is_durable_call: "Any",
    problems: list[tuple[int, int, str]],
) -> bool:
    """Walk one block tracking append-vs-ack order.  Returns True when the
    block terminates the path (return/raise)."""
    for event in block:
        kind = event["k"]
        if kind == "call":
            name = event["fn"].lstrip(".").split(".")[-1]
            durable = name in APPEND_NAMES or is_durable_call(event["fn"])
            if durable:
                if state.acked_lines:
                    problems.append(
                        (
                            event["line"],
                            event["col"],
                            "durable append executes after the success "
                            "acknowledgement on this path; an acked event "
                            "must already be on the durable prefix",
                        )
                    )
                state.appended = _YES
            elif name in _ACK_CALL_NAMES:
                is_error_response = any(
                    f["fn"].lstrip(".").split(".")[-1] in _ERROR_MARKERS
                    for arg in event["args"]
                    for f in arg.get("fns", ())
                )
                if is_error_response:
                    continue
                if state.appended == _NO:
                    problems.append(
                        (
                            event["line"],
                            event["col"],
                            "success response sent with no durable append "
                            "on any path before it; apply-append-ack is the "
                            "required order",
                        )
                    )
                state.acked_lines.append(event["line"])
        elif kind == "assign":
            handler_result = any(
                f["fn"].lstrip(".").split(".")[-1] in _HANDLER_NAMES
                for f in event["fns"]
            )
            if handler_result:
                response_vars.update(event["targets"])
        elif kind == "ret":
            is_ack = event["success"] or any(
                v in response_vars for v in event["vars"]
            )
            if is_ack:
                if state.appended == _NO:
                    problems.append(
                        (
                            event["line"],
                            0,
                            "success response returned with no durable "
                            "append on any path before it; apply-append-ack "
                            "is the required order",
                        )
                    )
                state.acked_lines.append(event["line"])
            return True
        elif kind == "raise":
            return True
        elif kind == "branch":
            live_states: list[_OrderState] = []
            for arm in event["arms"]:
                arm_state = _OrderState(state.appended)
                arm_state.acked_lines = list(state.acked_lines)
                terminated = _walk_order(
                    arm, arm_state, response_vars, is_durable_call, problems
                )
                if not terminated:
                    live_states.append(arm_state)
            if not live_states:
                return True
            if any(s.appended != _NO for s in live_states):
                state.appended = max(s.appended for s in live_states)
                if not all(s.appended == _YES for s in live_states):
                    state.appended = _MAYBE
            for s in live_states:
                for line in s.acked_lines:
                    if line not in state.acked_lines:
                        state.acked_lines.append(line)
        elif kind == "loop":
            body_state = _OrderState(state.appended)
            body_state.acked_lines = list(state.acked_lines)
            _walk_order(
                event["body"], body_state, response_vars, is_durable_call, problems
            )
            if body_state.appended != _NO:
                state.appended = max(state.appended, _MAYBE)
            for line in body_state.acked_lines:
                if line not in state.acked_lines:
                    state.acked_lines.append(line)
    return False


@register_rule
class DurabilityOrdering(ProjectRule):
    """Success acks must be ordered after the durable append.

    Scope: functions in ``service/`` that perform (or transitively
    reach) a WAL append.  Two shapes fire: an ack emitted on
    a path where *no* append has run yet, and an append that runs
    *after* the ack on the same path.  A conditional append (``if wal is
    not None: append``) counts as satisfying the contract — servers
    without durability attached have no ordering obligation.
    """

    id = "BSHM011"
    title = "success ack not ordered after the durable append"
    rationale = "fsync-before-ack durability contract, docs/operations.md"
    scopes = ("service",)

    def check_project(
        self, project: Project, graph: CallGraph
    ) -> Iterator[Diagnostic]:
        durable = _durable_functions(project, graph)
        for qual in sorted(project.functions):
            fn = project.functions[qual]
            if not fn["module"].startswith("repro.service"):
                continue
            if qual not in durable or fn["name"] == "<module>":
                continue
            pred = _DurableCallPred(
                _Resolver(graph, fn["module"], fn["cls"]), frozenset(durable)
            )
            # gate with the same strict predicate the walk uses: a call
            # with one durable target among many is CHA noise, and walking
            # such a function would flag acks it has no contract over
            has_direct_or_called_append = any(
                ev["fn"].lstrip(".").split(".")[-1] in APPEND_NAMES
                or pred(ev["fn"])
                for ev in iter_call_events(fn["body"])
            )
            if not has_direct_or_called_append:
                continue
            problems: list[tuple[int, int, str]] = []
            _walk_order(fn["body"], _OrderState(), set(), pred, problems)
            for line, col, message in problems:
                yield self.project_diag(
                    fn["path"], line, col, f"{message} (in {fn['name']})"
                )
