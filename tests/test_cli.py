"""Tests for the ``bshm`` command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro import dec_ladder, uniform_workload
from repro.jobs.io import write_jobs_csv, write_ladder_csv


@pytest.fixture
def trace_files(tmp_path):
    rng = np.random.default_rng(2)
    ladder = dec_ladder(3)
    jobs = uniform_workload(20, rng, max_size=ladder.capacity(3))
    trace = tmp_path / "trace.csv"
    lad = tmp_path / "ladder.csv"
    write_jobs_csv(jobs, trace)
    write_ladder_csv(ladder, lad)
    return str(trace), str(lad)


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E15" in out

    def test_run_quick(self, capsys):
        assert main(["run", "E9", "--scale", "quick"]) == 0
        assert "status: PASS" in capsys.readouterr().out

    def test_run_unknown_experiment(self):
        with pytest.raises(KeyError):
            main(["run", "E99"])

    def test_schedule_auto(self, trace_files, capsys, tmp_path):
        trace, ladder = trace_files
        out_csv = str(tmp_path / "assign.csv")
        assert main(["schedule", trace, "--ladder", ladder, "--output", out_csv]) == 0
        out = capsys.readouterr().out
        assert "dec-offline" in out  # auto picked the DEC algorithm
        assert "ratio" in out
        assert (tmp_path / "assign.csv").exists()

    def test_schedule_explicit_algorithm(self, trace_files, capsys):
        trace, ladder = trace_files
        assert main(["schedule", trace, "--ladder", ladder, "--algorithm", "gen-online"]) == 0
        assert "gen-online" in capsys.readouterr().out

    def test_schedule_unknown_algorithm(self, trace_files, capsys):
        trace, ladder = trace_files
        assert main(["schedule", trace, "--ladder", ladder, "--algorithm", "magic"]) == 2

    def test_generate_and_recommend(self, tmp_path, capsys):
        trace = str(tmp_path / "t.csv")
        lad = str(tmp_path / "l.csv")
        assert (
            main(
                [
                    "generate", "--workload", "poisson", "--n", "25",
                    "--out", trace, "--ladder", "dec", "--ladder-out", lad,
                ]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["recommend", trace, "--ladder", lad]) == 0
        out = capsys.readouterr().out
        assert "recommended types" in out

    def test_generate_unknown_workload(self, tmp_path):
        assert (
            main(["generate", "--workload", "nope", "--out", str(tmp_path / "x.csv")])
            == 2
        )

    def test_demo(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "DEC-OFFLINE" in out
        assert "demand chart" in out


class TestCliPathValidation:
    """Bad paths exit with code 2 and a clear error — never a traceback."""

    def test_schedule_missing_trace(self, trace_files, capsys):
        _, ladder = trace_files
        assert main(["schedule", "/no/such/trace.csv", "--ladder", ladder]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "trace" in err

    def test_schedule_missing_ladder(self, trace_files, capsys):
        trace, _ = trace_files
        assert main(["schedule", trace, "--ladder", "/no/such/ladder.csv"]) == 2
        assert "ladder" in capsys.readouterr().err

    def test_schedule_unwritable_output(self, trace_files, capsys):
        trace, ladder = trace_files
        code = main(
            ["schedule", trace, "--ladder", ladder,
             "--output", "/no/such/dir/assign.csv"]
        )
        assert code == 2
        assert "directory" in capsys.readouterr().err

    def test_generate_unwritable_out(self, capsys):
        code = main(
            ["generate", "--workload", "poisson", "--n", "5",
             "--out", "/no/such/dir/t.csv"]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_recommend_missing_trace(self, trace_files, capsys):
        _, ladder = trace_files
        assert main(["recommend", "/no/such/trace.csv", "--ladder", ladder]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_missing_trace(self, capsys):
        assert main(["replay", "/no/such/trace.jsonl"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliReplay:
    def test_replay_roundtrip_with_verify(self, tmp_path, capsys):
        from repro.core.events import EventKind, event_stream
        from repro.service.checkpoint import write_trace
        from repro.service.runtime import SchedulerRuntime

        rng = np.random.default_rng(5)
        ladder = dec_ladder(3)
        jobs = uniform_workload(15, rng, max_size=ladder.capacity(3))
        rt = SchedulerRuntime.create("dec", ladder)
        for ev in event_stream(jobs):
            if ev.kind is EventKind.ARRIVE:
                rt.submit(ev.job.size, ev.job.arrival, name=ev.job.name, uid=ev.job.uid)
            else:
                rt.depart(ev.job.uid, ev.job.departure)
        trace = tmp_path / "run.jsonl"
        write_trace(rt, trace)

        ckpt = tmp_path / "ckpt.json"
        assert main(["replay", str(trace), "--verify", "--checkpoint", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert "verify: batch run_online cost matches exactly" in out
        assert ckpt.exists()

    def test_replay_corrupt_trace(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        assert main(["replay", str(bad)]) == 2
        assert "cannot replay" in capsys.readouterr().err


class TestCliLint:
    def test_lint_clean(self, trace_files, capsys):
        trace, ladder = trace_files
        assert main(["lint", trace, "--ladder", ladder]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and ladder in out

    def test_lint_without_ladder(self, trace_files, capsys):
        trace, _ = trace_files
        assert main(["lint", trace]) == 0
        assert "clean" in capsys.readouterr().out

    def test_lint_warns_on_duplicates(self, tmp_path, capsys):
        from repro.jobs.io import write_jobs_csv
        from repro.jobs.jobset import Job, JobSet

        jobs = JobSet([Job(1.0, 0.0, 2.0), Job(1.0, 0.0, 2.0)])
        trace = tmp_path / "dupes.csv"
        write_jobs_csv(jobs, trace)
        assert main(["lint", str(trace)]) == 1
        out = capsys.readouterr().out
        assert "duplicates" in out and "1 warning(s)" in out

    def test_lint_missing_trace(self, capsys):
        assert main(["lint", "/no/such/trace.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_lint_missing_ladder(self, trace_files, capsys):
        trace, _ = trace_files
        assert main(["lint", trace, "--ladder", "/no/such/ladder.csv"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliBadInput:
    """A malformed trace or ladder, or a job no machine fits, exits 2 with
    one ``error:`` line — never a traceback (``lint`` keeps exit 1 for
    "warnings found")."""

    @pytest.fixture
    def bad_files(self, tmp_path, trace_files):
        short = tmp_path / "short.csv"
        short.write_text("size,arrival,departure\n1.0,3\n")
        bad_ladder = tmp_path / "bad-ladder.csv"
        bad_ladder.write_text("capacity,rate\n3\n")
        big = tmp_path / "big.csv"
        big.write_text("size,arrival,departure\n50,0,1\n")
        return str(short), str(bad_ladder), str(big)

    @pytest.mark.parametrize("command", ["schedule", "lint", "recommend"])
    def test_malformed_trace(self, command, trace_files, bad_files, capsys):
        _, ladder = trace_files
        short, _, _ = bad_files
        assert main([command, short, "--ladder", ladder]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "short.csv:2: bad job row" in err

    @pytest.mark.parametrize("command", ["schedule", "lint", "recommend"])
    def test_malformed_ladder(self, command, trace_files, bad_files, capsys):
        trace, _ = trace_files
        _, bad_ladder, _ = bad_files
        assert main([command, trace, "--ladder", bad_ladder]) == 2
        assert "bad-ladder.csv:2: bad type row" in capsys.readouterr().err

    def test_serve_malformed_ladder(self, bad_files, capsys):
        _, bad_ladder, _ = bad_files
        assert main(["serve", "--ladder", bad_ladder, "--port", "0"]) == 2
        assert "error: " in capsys.readouterr().err

    def test_schedule_job_larger_than_every_machine(self, trace_files, bad_files, capsys):
        _, ladder = trace_files
        _, _, big = bad_files
        assert main(["schedule", big, "--ladder", ladder]) == 2
        err = capsys.readouterr().err
        assert "error: job size 50 exceeds the largest capacity 9" in err


class TestCliCheck:
    def test_check_src_is_clean(self, capsys):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        assert main(["check", str(src)]) == 0
        assert "clean" in capsys.readouterr().out

    def test_check_reports_findings(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a, b):\n    return a.arrival <= b.departure\n")
        assert main(["check", str(bad)]) == 1
        out = capsys.readouterr().out
        assert "BSHM001" in out and "1 finding(s)" in out

    def test_check_missing_path(self, capsys):
        assert main(["check", "/no/such/dir"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_check_list_rules(self, capsys):
        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("BSHM001", "BSHM006", "BSHM008", "BSHM012"):
            assert rule_id in out

    def test_check_default_scope_covers_tests_and_benchmarks(
        self, tmp_path, monkeypatch, capsys
    ):
        for rel in ("src/repro/core/a.py", "tests/core/test_a.py", "benchmarks/bench_a.py"):
            p = tmp_path / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--no-cache"]) == 0
        assert "3 files clean" in capsys.readouterr().out

    def test_check_sarif_output(self, tmp_path, capsys):
        import json

        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a, b):\n    return a.arrival <= b.departure\n")
        assert main(["check", "--no-cache", "--format", "sarif", str(bad)]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["version"] == "2.1.0"
        assert doc["runs"][0]["results"][0]["ruleId"] == "BSHM001"

    def test_check_json_output_to_file(self, tmp_path, capsys):
        import json

        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a, b):\n    return a.arrival <= b.departure\n")
        out = tmp_path / "report.json"
        assert (
            main(
                ["check", "--no-cache", "--format", "json",
                 "--output", str(out), str(bad)]
            )
            == 1
        )
        doc = json.loads(out.read_text())
        assert [d["rule_id"] for d in doc["findings"]] == ["BSHM001"]

    def test_check_write_baseline_then_green(self, tmp_path, monkeypatch, capsys):
        bad = tmp_path / "src" / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a, b):\n    return a.arrival <= b.departure\n")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--no-cache", "--write-baseline"]) == 0
        assert "baseline with 1 finding(s)" in capsys.readouterr().out
        # the committed default baseline is picked up automatically
        assert main(["check", "--no-cache"]) == 0
        assert "baselined" in capsys.readouterr().out
        # opting out reinstates the failure
        assert main(["check", "--no-cache", "--no-baseline"]) == 1

    def test_check_cache_dir_round_trip(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "core" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("def f(a, b):\n    return a.arrival <= b.departure\n")
        cache_dir = tmp_path / "cachehere"
        argv = ["check", "--cache-dir", str(cache_dir), str(bad)]
        assert main(argv) == 1
        assert (cache_dir / "cache.json").exists()
        assert main(argv) == 1  # warm run reports the same findings
        out = capsys.readouterr().out
        assert "BSHM001" in out

    def test_check_diff_bad_ref(self, tmp_path, monkeypatch, capsys):
        src = tmp_path / "src"
        src.mkdir()
        (src / "a.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--no-cache", "--diff", "no-such-ref"]) == 2
        assert "error:" in capsys.readouterr().err


class TestCliRecover:
    """``bshm recover`` over a WAL directory, and the garbled or foreign
    targets that must exit 2 with a message, never a traceback."""

    @pytest.fixture
    def wal_dir(self, tmp_path):
        from repro import SchedulerRuntime
        from repro.core.events import EventKind, event_stream
        from repro.service.wal import WALWriter

        rng = np.random.default_rng(4)
        ladder = dec_ladder(3)
        jobs = uniform_workload(15, rng, max_size=ladder.capacity(3))
        rt = SchedulerRuntime.create("dec", ladder, admission=["fits-ladder"])
        wal = WALWriter(tmp_path / "wal", rt, fsync="always")
        for ev in event_stream(jobs):
            if ev.kind is EventKind.ARRIVE:
                rt.submit(ev.job.size, ev.job.arrival, uid=ev.job.uid)
            else:
                rt.depart(ev.job.uid, ev.job.departure)
            wal.append_new()
        wal.close()
        return tmp_path / "wal"

    def test_recover_wal_dir_with_progress(self, wal_dir, capsys):
        assert main(["recover", str(wal_dir)]) == 0
        out = capsys.readouterr().out
        assert "bshm recover: segment wal-" in out  # per-segment progress
        assert "assignment sha256:" in out

    def test_recover_unknown_path_exits_2(self, tmp_path, capsys):
        assert main(["recover", str(tmp_path / "missing")]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "is not a WAL directory" in err

    def test_recover_garbled_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "stuff.txt").write_text("not a wal")
        assert main(["recover", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "no recoverable data" in err

    def test_recover_garbled_snapshot_exits_2_without_traceback(
        self, tmp_path, capsys
    ):
        # regression: valid-JSON-but-garbled snapshots raised CheckpointError
        # straight through main() as a traceback instead of a clean exit 2
        snap = tmp_path / "snapshot-0000000000000005.json"
        snap.write_text('{"kind": "bshm-state", "clock": "oops"}')
        assert main(["recover", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: cannot recover WAL" in err

    def test_recover_foreign_sqlite_file_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.db"
        junk.write_text("not a database")
        for target in (str(junk), f"sqlite:{junk}"):
            assert main(["recover", target]) == 2
            err = capsys.readouterr().err
            assert "error:" in err and "is not a WAL directory" in err


class TestCliServeFlags:
    """Flag validation for the durable serve front (no sockets)."""

    @pytest.mark.parametrize("flag", [["--workers", "2"], ["--storage", "memory"]])
    def test_removed_scale_out_flags_are_unknown(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["serve", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_serve_recovery_of_garbled_wal_exits_2(self, tmp_path, capsys):
        # regression: the serve-side recovery path leaked CheckpointError too
        wal = tmp_path / "wal"
        wal.mkdir()
        (wal / "snapshot-0000000000000005.json").write_text(
            '{"kind": "bshm-state", "clock": "oops"}'
        )
        assert main(["serve", "--wal", str(wal)]) == 2
        assert "error: cannot recover WAL" in capsys.readouterr().err
