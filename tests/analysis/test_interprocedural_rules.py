"""Fires / suppressed / negative tests for the interprocedural rules
(BSHM008 oracle reachability, BSHM009 nondeterminism taint, BSHM011
durability ordering).

File-level fires use :func:`project_from_sources` + ``check_project``
directly; suppression tests go through :func:`run_check` on a temporary
package tree, because per-line suppressions for project rules are the
runner's job.
"""

import textwrap
from pathlib import Path

from repro.analysis.static import check_project, project_from_sources, run_check


def project_of(sources: dict[str, str]):
    return project_from_sources(
        {p: textwrap.dedent(s) for p, s in sources.items()}
    )


def ids(findings):
    return [d.rule_id for d in findings]


def run_tmp(tmp_path: Path, sources: dict[str, str]):
    """Materialize ``{relpath: source}`` under tmp and run the full check."""
    for rel, src in sources.items():
        p = tmp_path / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))
    return run_check([tmp_path], use_cache=False)


# ---------------------------------------------------------------------------
# BSHM008 — oracle reachability
# ---------------------------------------------------------------------------

class TestOracleReachability:
    HOT_ORACLE = {
        "src/repro/fake/kernels.py": """
        def cost_reference(jobs):
            return sum(jobs)

        def estimate(jobs):
            return cost_reference(jobs)
        """,
        "src/repro/fake/engine.py": """
        from .kernels import estimate

        def run_online(jobs, scheduler):
            return estimate(jobs)
        """,
    }

    def test_fires_through_helper_chain(self):
        findings = check_project(project_of(self.HOT_ORACLE))
        assert ids(findings) == ["BSHM008"]
        assert "run_online" in findings[0].message

    def test_runtime_method_entry_fires(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/rt.py": """
                    def place_reference(jobs):
                        return sorted(jobs)

                    class SchedulerRuntime:
                        def submit(self, job):
                            return place_reference([job])
                    """
                }
            )
        )
        assert ids(findings) == ["BSHM008"]

    def test_unreached_oracle_is_clean(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/mod.py": """
                    def cost_reference(jobs):
                        return sum(jobs)

                    def serve_forever(runtime):
                        return runtime.cost()
                    """
                }
            )
        )
        assert findings == []

    def test_no_entry_points_is_clean(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/mod.py": """
                    def cost_reference(jobs):
                        return sum(jobs)

                    def caller(jobs):
                        return cost_reference(jobs)
                    """
                }
            )
        )
        assert findings == []

    def test_suppressed_on_decorated_def(self, tmp_path):
        # end-to-end satellite-1 regression: the comment-only ignore must
        # hop the decorator and land on the def the diagnostic anchors at
        report = run_tmp(
            tmp_path,
            {
                "src/repro/fake/mod.py": """
                import functools

                # differential harness wired into the demo path on purpose
                # bshm: ignore[BSHM008, BSHM003]
                @functools.lru_cache
                def cost_reference(jobs):
                    return 1

                def run_online(jobs, scheduler):
                    return cost_reference(jobs)  # bshm: ignore[BSHM003]
                """,
            },
        )
        assert ids(report.findings) == []


# ---------------------------------------------------------------------------
# BSHM009 — nondeterminism taint into replay sinks
# ---------------------------------------------------------------------------

class TestNondeterminismTaint:
    def test_cross_function_wall_clock_taint_fires(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/helpers.py": """
                    import time

                    def stamp():
                        return time.time()
                    """,
                    "src/repro/fake/writer.py": """
                    from .helpers import stamp

                    def persist(wal, event):
                        t = stamp()
                        wal.append_new({"event": event, "t": t})
                    """,
                }
            )
        )
        assert ids(findings) == ["BSHM009"]
        assert "append_new" in findings[0].message

    def test_unseeded_rng_to_trace_fires(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/recorder.py": """
                    import numpy as np

                    def record(runtime, path):
                        salt = np.random.default_rng().integers(10)
                        write_trace(runtime, f"{path}.{salt}")
                    """
                }
            )
        )
        assert ids(findings) == ["BSHM009"]
        assert "write_trace" in findings[0].message

    def test_set_iteration_taint_fires(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/mod.py": """
                    def drain(wal, pending):
                        for uid in {1, 2, 3}:
                            wal.append_new(uid)
                    """
                }
            )
        )
        assert ids(findings) == ["BSHM009"]

    def test_sorted_launders_the_taint(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/mod.py": """
                    import time

                    def persist(wal, pending):
                        t = time.time()
                        wal.append_new(sorted(pending))
                    """
                }
            )
        )
        assert findings == []

    def test_seeded_rng_is_clean(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/fake/mod.py": """
                    import numpy as np

                    def persist(wal):
                        draw = np.random.default_rng(0).integers(10)
                        wal.append_new(draw)
                    """
                }
            )
        )
        assert findings == []

    def test_suppressed(self, tmp_path):
        report = run_tmp(
            tmp_path,
            {
                "src/repro/fake/mod.py": """
                import time  # bshm: ignore[BSHM004]

                def persist(wal, event):
                    t = time.time()  # bshm: ignore[BSHM004]
                    wal.append_new(t)  # bshm: ignore[BSHM009]
                """,
            },
        )
        assert ids(report.findings) == []


# ---------------------------------------------------------------------------
# BSHM011 — durability ordering (append before ack)
# ---------------------------------------------------------------------------

class TestDurabilityOrdering:
    def test_append_after_ack_fires(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/service/handler.py": """
                    class Handler:
                        def handle_request(self, wal, req):
                            resp = {"ok": True, "uid": req["uid"]}
                            self._send(resp)
                            wal.append_new(req)
                    """
                }
            )
        )
        assert ids(findings) == ["BSHM011", "BSHM011"]
        messages = " / ".join(d.message for d in findings)
        assert "no durable append" in messages
        assert "after the success acknowledgement" in messages

    def test_success_return_with_no_append_on_path_fires(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/service/handler.py": """
                    class Handler:
                        def handle_request(self, wal, req):
                            if req.get("mutating"):
                                wal.append_new(req)
                                return {"ok": True}
                            return {"ok": True}
                    """
                }
            )
        )
        assert ids(findings) == ["BSHM011"]

    def test_conditional_append_then_ack_is_clean(self):
        # the real _respond shape: servers without a WAL attached have no
        # ordering obligation, so `if wal is not None: append` satisfies it
        findings = check_project(
            project_of(
                {
                    "src/repro/service/handler.py": """
                    class Handler:
                        def handle_request(self, wal, req):
                            result = self.apply(req)
                            if wal is not None:
                                wal.append_new(req)
                            return {"ok": True, "result": result}
                    """
                }
            )
        )
        assert findings == []

    def test_error_response_needs_no_append(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/service/handler.py": """
                    class Handler:
                        def handle_request(self, wal, req):
                            if not req:
                                self._send(ServiceError("empty").to_wire())
                                return
                            wal.append_new(req)
                            return {"ok": True}
                    """
                }
            )
        )
        assert findings == []

    def test_outside_service_is_clean(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/core/handler.py": """
                    class Handler:
                        def handle_request(self, wal, req):
                            self._send({"ok": True})
                            wal.append_new(req)
                    """
                }
            )
        )
        assert findings == []

    def test_read_only_op_without_append_is_clean(self):
        findings = check_project(
            project_of(
                {
                    "src/repro/service/handler.py": """
                    class Handler:
                        def op_stats(self, req):
                            return {"ok": True, "clock": self.runtime.clock}
                    """
                }
            )
        )
        assert findings == []

    def test_suppressed(self, tmp_path):
        report = run_tmp(
            tmp_path,
            {
                "src/repro/service/handler.py": """
                class Handler:
                    def handle_request(self, wal, req):
                        # replication acks early by design here
                        self._send({"ok": True})  # bshm: ignore[BSHM011]
                        wal.append_new(req)  # bshm: ignore[BSHM011]
                """,
            },
        )
        assert ids(report.findings) == []
