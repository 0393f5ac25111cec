"""Whole-program facts: the package parsed once into an analysis IR.

The per-file AST rules (BSHM001-007) see one module at a time, so an
invariant violation that crosses a module boundary — an oracle called
transitively from the serving path, an unseeded RNG value flowing into
the write-ahead log — is invisible to them.  This module parses every
source file into :func:`extract_module_facts`: a plain JSON-serializable
dict capturing exactly what the interprocedural rules need —

- the module's import aliases (absolute and relative, resolved to
  absolute dotted names),
- its classes (method names, base names),
- its functions, each with a nested *event tree* summarizing the body:
  calls (with per-argument variable/call summaries), assignments,
  returns, raises, branches and loops, in control-flow order.

Facts being plain dicts is load-bearing: the incremental cache
(``.bshm_cache/``) persists them per file keyed by content hash, so a
warm run rebuilds the project symbol table and call graph without
re-parsing a single unchanged file — that is where the >=5x warm
speedup pinned by ``BENCH_check.json`` comes from.

A :class:`Project` aggregates the facts of every non-test module into
the symbol table the call graph (:mod:`.callgraph`) and the
interprocedural rules (:mod:`.interprocedural`) resolve against.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from .rules import dotted_name, module_parts

__all__ = [
    "FACTS_VERSION",
    "Project",
    "build_project",
    "extract_module_facts",
    "module_name",
    "project_from_sources",
]

#: bump when the facts schema changes; stale caches are discarded on mismatch
FACTS_VERSION = 1

#: event kinds in a function body block (documentation of the IR)
EVENT_KINDS = ("call", "assign", "ret", "raise", "branch", "loop")


def module_name(path: str) -> str:
    """Absolute dotted module name for a source path.

    ``src/repro/core/sweep.py`` -> ``repro.core.sweep``; package
    ``__init__.py`` files name the package itself.  Ad-hoc snippet paths
    (``core/foo.py``) resolve as if rooted at the package, so rule tests
    can fabricate modules without a checkout.
    """
    parts = list(module_parts(path))
    if not parts:
        return "repro"
    last = parts[-1]
    if last.endswith(".py"):
        last = last[:-3]
    if last == "__init__":
        parts = parts[:-1]
    else:
        parts[-1] = last
    if parts and parts[0] == "repro":
        parts = parts[1:]
    return ".".join(["repro", *parts])


def _is_package(path: str) -> bool:
    parts = module_parts(path)
    return bool(parts) and parts[-1] == "__init__.py"


def _callee_str(func: ast.expr) -> str:
    """The callee as written: ``a.b.c``, ``name``, or ``.attr`` when the
    base is not a plain name chain (call result, subscript, ...)."""
    dotted = dotted_name(func)
    if dotted is not None:
        return dotted
    if isinstance(func, ast.Attribute):
        return "." + func.attr
    return "?"


_SKIP_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _summarize_expr(node: ast.expr | None) -> dict[str, Any]:
    """``{"vars": [dotted names read], "fns": [{"fn", "nargs"}]}`` for one
    expression, skipping nested function/class bodies."""
    out_vars: list[str] = []
    out_fns: list[dict[str, Any]] = []
    if node is not None:
        _walk_expr(node, out_vars, out_fns)
    return {"vars": out_vars, "fns": out_fns}


def _walk_expr(
    node: ast.AST, out_vars: list[str], out_fns: list[dict[str, Any]]
) -> None:
    if isinstance(node, ast.Call):
        out_fns.append(
            {
                "fn": _callee_str(node.func),
                "nargs": len(node.args) + len(node.keywords),
            }
        )
        if isinstance(node.func, ast.Attribute) and dotted_name(node.func) is None:
            _walk_expr(node.func.value, out_vars, out_fns)
        for arg in node.args:
            _walk_expr(arg, out_vars, out_fns)
        for kw in node.keywords:
            _walk_expr(kw.value, out_vars, out_fns)
        return
    if isinstance(node, ast.Name):
        out_vars.append(node.id)
        return
    if isinstance(node, ast.Attribute):
        dotted = dotted_name(node)
        if dotted is not None:
            out_vars.append(dotted)
        else:
            _walk_expr(node.value, out_vars, out_fns)
        return
    if isinstance(node, _SKIP_NESTED):
        return
    for child in ast.iter_child_nodes(node):
        _walk_expr(child, out_vars, out_fns)


def _collect_calls(node: ast.AST | None) -> list[dict[str, Any]]:
    """Every call in ``node`` as a ``call`` event (outer before inner),
    with per-argument summaries for the taint rules."""
    events: list[dict[str, Any]] = []
    if node is None:
        return events
    for sub in ast.walk(node):
        if isinstance(sub, _SKIP_NESTED):
            continue
        if not isinstance(sub, ast.Call):
            continue
        args = [_summarize_expr(a) for a in sub.args]
        args.extend(_summarize_expr(kw.value) for kw in sub.keywords)
        events.append(
            {
                "k": "call",
                "fn": _callee_str(sub.func),
                "line": sub.lineno,
                "col": sub.col_offset,
                "nargs": len(sub.args) + len(sub.keywords),
                "args": args,
            }
        )
    return events


def _walk_calls_shallow(node: ast.AST) -> Iterator[ast.Call]:
    """ast.walk that does not descend into nested defs/lambdas."""
    stack: list[ast.AST] = [node]
    while stack:
        cur = stack.pop()
        if isinstance(cur, _SKIP_NESTED):
            continue
        if isinstance(cur, ast.Call):
            yield cur
        stack.extend(ast.iter_child_nodes(cur))


def _calls_in(*nodes: ast.AST | None) -> list[dict[str, Any]]:
    events: list[dict[str, Any]] = []
    for node in nodes:
        if node is None:
            continue
        for call in _walk_calls_shallow(node):
            args = [_summarize_expr(a) for a in call.args]
            args.extend(_summarize_expr(kw.value) for kw in call.keywords)
            events.append(
                {
                    "k": "call",
                    "fn": _callee_str(call.func),
                    "line": call.lineno,
                    "col": call.col_offset,
                    "nargs": len(call.args) + len(call.keywords),
                    "args": args,
                }
            )
    events.sort(key=lambda e: (e["line"], e["col"]))
    return events


def _target_names(target: ast.expr) -> list[str]:
    if isinstance(target, ast.Name):
        return [target.id]
    if isinstance(target, ast.Attribute):
        dotted = dotted_name(target)
        return [dotted] if dotted is not None else []
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[str] = []
        for elt in target.elts:
            out.extend(_target_names(elt))
        return out
    if isinstance(target, ast.Starred):
        return _target_names(target.value)
    return []


def _is_set_expr(node: ast.expr) -> bool:
    """Iteration order of this expression is hash-order (a set)."""
    if isinstance(node, ast.Set):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_success_dict(node: ast.expr | None) -> bool:
    """A ``{"ok": True, ...}`` literal — a wire-protocol success ack."""
    if not isinstance(node, ast.Dict):
        return False
    for key, value in zip(node.keys, node.values):
        if (
            isinstance(key, ast.Constant)
            and key.value == "ok"
            and isinstance(value, ast.Constant)
            and value.value is True
        ):
            return True
    return False


def _build_block(stmts: Iterable[ast.stmt]) -> list[dict[str, Any]]:
    """The event tree for one statement block."""
    events: list[dict[str, Any]] = []
    for stmt in stmts:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue  # nested defs get their own FunctionFacts
        if isinstance(stmt, ast.Return):
            events.extend(_calls_in(stmt.value))
            summary = _summarize_expr(stmt.value)
            events.append(
                {
                    "k": "ret",
                    "line": stmt.lineno,
                    "success": _is_success_dict(stmt.value),
                    **summary,
                }
            )
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            events.extend(_calls_in(value))
            if isinstance(stmt, ast.Assign):
                targets: list[str] = []
                for t in stmt.targets:
                    targets.extend(_target_names(t))
            else:
                targets = _target_names(stmt.target)
            summary = _summarize_expr(value)
            if isinstance(stmt, ast.AugAssign):
                summary["vars"] = summary["vars"] + targets
            events.append(
                {"k": "assign", "targets": targets, "line": stmt.lineno, **summary}
            )
        elif isinstance(stmt, ast.If):
            events.extend(_calls_in(stmt.test))
            events.append(
                {
                    "k": "branch",
                    "arms": [_build_block(stmt.body), _build_block(stmt.orelse)],
                }
            )
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            events.extend(_calls_in(stmt.iter))
            events.append(
                {
                    "k": "loop",
                    "line": stmt.lineno,
                    "col": stmt.col_offset,
                    "body": _build_block(stmt.body),
                    "targets": _target_names(stmt.target),
                    "set_iter": _is_set_expr(stmt.iter),
                    "iter": _summarize_expr(stmt.iter),
                }
            )
            events.extend(_build_block(stmt.orelse))
        elif isinstance(stmt, ast.While):
            events.extend(_calls_in(stmt.test))
            events.append(
                {
                    "k": "loop",
                    "line": stmt.lineno,
                    "col": stmt.col_offset,
                    "body": _build_block(stmt.body),
                    "targets": [],
                    "set_iter": False,
                    "iter": {"vars": [], "fns": []},
                }
            )
            events.extend(_build_block(stmt.orelse))
        elif isinstance(stmt, ast.Try):
            arms = [_build_block([*stmt.body, *stmt.orelse])]
            arms.extend(_build_block(h.body) for h in stmt.handlers)
            events.append({"k": "branch", "arms": arms})
            events.extend(_build_block(stmt.finalbody))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                events.extend(_calls_in(item.context_expr))
            events.extend(_build_block(stmt.body))
        elif isinstance(stmt, ast.Raise):
            events.extend(_calls_in(stmt.exc, stmt.cause))
            events.append({"k": "raise", "line": stmt.lineno})
        elif isinstance(stmt, ast.Match):
            events.extend(_calls_in(stmt.subject))
            events.append(
                {
                    "k": "branch",
                    "arms": [*(_build_block(c.body) for c in stmt.cases), []],
                }
            )
        else:
            events.extend(_calls_in(stmt))
    return events


def _resolve_relative(module: str, is_pkg: bool, level: int, target: str | None) -> str:
    """Absolute module for a ``from ...x import y`` with ``level`` dots."""
    parts = module.split(".")
    if not is_pkg:
        parts = parts[:-1]
    if level > 1:
        parts = parts[: max(0, len(parts) - (level - 1))]
    if target:
        parts.extend(target.split("."))
    return ".".join(parts)


class _FunctionCollector:
    """Collects FunctionFacts for every def in a module, nesting-aware."""

    def __init__(self) -> None:
        self.functions: list[dict[str, Any]] = []
        self.classes: dict[str, dict[str, Any]] = {}

    def collect(self, tree: ast.Module) -> None:
        self._visit_body(tree.body, prefix="", cls=None)
        module_body = _build_block(tree.body)
        self.functions.append(
            {
                "qual": "<module>",
                "name": "<module>",
                "line": 1,
                "cls": None,
                "is_async": False,
                "body": module_body,
            }
        )

    def _visit_body(
        self, stmts: Iterable[ast.stmt], prefix: str, cls: str | None
    ) -> None:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                self.functions.append(
                    {
                        "qual": qual,
                        "name": stmt.name,
                        "line": stmt.lineno,
                        "cls": cls,
                        "is_async": isinstance(stmt, ast.AsyncFunctionDef),
                        "body": _build_block(stmt.body),
                    }
                )
                self._visit_body(stmt.body, prefix=f"{qual}.", cls=cls)
            elif isinstance(stmt, ast.ClassDef):
                bases = [b for b in (dotted_name(x) for x in stmt.bases) if b]
                methods = [
                    s.name
                    for s in stmt.body
                    if isinstance(s, (ast.FunctionDef, ast.AsyncFunctionDef))
                ]
                self.classes[f"{prefix}{stmt.name}"] = {
                    "line": stmt.lineno,
                    "bases": bases,
                    "methods": methods,
                }
                self._visit_body(
                    stmt.body, prefix=f"{prefix}{stmt.name}.", cls=f"{prefix}{stmt.name}"
                )
            elif isinstance(stmt, (ast.If, ast.Try)):
                # defs behind version/feature guards still exist
                self._visit_body(getattr(stmt, "body", []), prefix, cls)
                self._visit_body(getattr(stmt, "orelse", []), prefix, cls)
                for handler in getattr(stmt, "handlers", []):
                    self._visit_body(handler.body, prefix, cls)


def extract_module_facts(source: str, path: str) -> dict[str, Any] | None:
    """Parse one file into its ModuleFacts dict (None on syntax error)."""
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    mod = module_name(path)
    is_pkg = _is_package(path)
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imports[name] = alias.name if alias.asname else alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            base = (
                _resolve_relative(mod, is_pkg, node.level, node.module)
                if node.level
                else (node.module or "")
            )
            for alias in node.names:
                if alias.name == "*":
                    continue
                imports[alias.asname or alias.name] = f"{base}:{alias.name}"
    collector = _FunctionCollector()
    collector.collect(tree)
    return {
        "version": FACTS_VERSION,
        "module": mod,
        "path": path,
        "is_package": is_pkg,
        "imports": imports,
        "classes": collector.classes,
        "functions": collector.functions,
    }


@dataclass
class Project:
    """The package-wide symbol table over every module's facts."""

    #: module name -> ModuleFacts
    modules: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: fully-qualified function name -> FunctionFacts (+ "module"/"path")
    functions: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: fully-qualified class name -> class facts (+ "module")
    classes: dict[str, dict[str, Any]] = field(default_factory=dict)
    #: simple function name -> fully-qualified candidates (CHA matching)
    by_name: dict[str, list[str]] = field(default_factory=dict)

    def add_module(self, facts: dict[str, Any]) -> None:
        mod = facts["module"]
        self.modules[mod] = facts
        for fn in facts["functions"]:
            if fn["qual"] == "<module>":
                qual = f"{mod}.<module>"
            else:
                qual = f"{mod}.{fn['qual']}"
            entry = dict(fn)
            entry["module"] = mod
            entry["path"] = facts["path"]
            self.functions[qual] = entry
            self.by_name.setdefault(fn["name"], []).append(qual)
        for cname, cfacts in facts["classes"].items():
            entry = dict(cfacts)
            entry["module"] = mod
            entry["path"] = facts["path"]
            self.classes[f"{mod}.{cname}"] = entry

    # -- symbol resolution ---------------------------------------------------
    def resolve_symbol(
        self, module: str, name: str, _seen: frozenset[tuple[str, str]] = frozenset()
    ) -> str | None:
        """Resolve ``name`` in ``module``'s scope to a fully-qualified
        function or class, chasing import aliases and re-exports."""
        if (module, name) in _seen or module not in self.modules:
            return None
        seen = _seen | {(module, name)}
        facts = self.modules[module]
        for cand in (f"{module}.{name}",):
            if cand in self.functions or cand in self.classes:
                return cand
        target = facts["imports"].get(name)
        if target is None:
            return None
        if ":" in target:
            src_mod, sym = target.split(":", 1)
            if src_mod in self.modules:
                return self.resolve_symbol(src_mod, sym, seen)
            # ``from repro.machines import fleet`` spelling: the "symbol"
            # may itself be a submodule
            if f"{src_mod}.{sym}" in self.modules:
                return f"{src_mod}.{sym}:<module>"
            return None
        if target in self.modules:
            return f"{target}:<module>"
        return None

    def class_method(self, class_qual: str, method: str) -> str | None:
        """``Cls.method`` resolution, walking base classes in-project."""
        seen: set[str] = set()
        queue = [class_qual]
        while queue:
            cur = queue.pop(0)
            if cur in seen or cur not in self.classes:
                continue
            seen.add(cur)
            cls = self.classes[cur]
            if method in cls["methods"]:
                # the method qual is the class qual + method under its module
                mod = cls["module"]
                local = cur[len(mod) + 1 :]
                return f"{mod}.{local}.{method}"
            for base in cls["bases"]:
                resolved = self.resolve_symbol(cls["module"], base.split(".")[0])
                if resolved and "." in base:
                    # e.g. ``module.Base``: re-resolve the tail
                    tail = base.split(".", 1)[1]
                    if resolved.endswith(":<module>"):
                        resolved = self.resolve_symbol(
                            resolved.split(":", 1)[0], tail
                        )
                if resolved and resolved in self.classes:
                    queue.append(resolved)
        return None


def build_project(facts_iter: Iterable[dict[str, Any] | None]) -> Project:
    """Aggregate per-module facts (skipping unparseable files)."""
    project = Project()
    for facts in facts_iter:
        if facts is not None:
            project.add_module(facts)
    return project


def project_from_sources(sources: dict[str, str]) -> Project:
    """Test helper: a Project from ``{path: source}`` in-memory files."""
    return build_project(
        extract_module_facts(src, path) for path, src in sources.items()
    )
