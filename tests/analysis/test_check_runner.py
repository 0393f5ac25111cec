"""Runner tests: incremental cache, baseline workflow, ``--diff`` filter.

These exercise :func:`run_check` over small temporary package trees (so
module names resolve like the real repo: ``src/repro/...``) and a real
scratch git repository for the changed-lines filter.
"""

import shutil
import subprocess
import textwrap
from pathlib import Path

import pytest

import repro
from repro.analysis.static import (
    AnalysisCache,
    line_text_from_disk,
    load_baseline,
    run_check,
    write_baseline,
)
from repro.analysis.static.baseline import BaselineError, fingerprint
from repro.analysis.static.runner import git_changed_lines

VIOLATION = """
def overlaps(a, b):
    return a.arrival <= b.departure
"""


def write_tree(root: Path, sources: dict[str, str]) -> None:
    for rel, src in sources.items():
        p = root / rel
        p.parent.mkdir(parents=True, exist_ok=True)
        p.write_text(textwrap.dedent(src))


@pytest.fixture()
def pkg(tmp_path):
    write_tree(tmp_path, {"src/repro/core/foo.py": VIOLATION})
    return tmp_path


class TestIncrementalCache:
    def test_warm_run_is_all_hits_and_identical(self, pkg):
        cache_dir = pkg / ".bshm_cache"
        cold = run_check([pkg / "src"], cache_dir=cache_dir)
        assert cold.cache_hits == 0 and cold.cache_misses == 1
        warm = run_check([pkg / "src"], cache_dir=cache_dir)
        assert warm.cache_hits == 1 and warm.cache_misses == 0
        assert warm.findings == cold.findings
        assert [d.rule_id for d in warm.findings] == ["BSHM001"]

    def test_warm_findings_agree_on_a_real_package(self, tmp_path):
        """Cold and warm runs over a copy of the real ``repro.core``
        package plus one violation report identical findings, and the warm
        run is all cache hits."""
        tree = tmp_path / "src" / "repro" / "core"
        shutil.copytree(
            Path(repro.__file__).parent / "core", tree,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (tree / "bad.py").write_text(textwrap.dedent(VIOLATION))
        cache_dir = tmp_path / ".bshm_cache"
        cold = run_check([tmp_path / "src"], cache_dir=cache_dir)
        warm = run_check([tmp_path / "src"], cache_dir=cache_dir)
        assert warm.cache_misses == 0 and warm.cache_hits == cold.n_files > 5
        assert [d.to_dict() for d in warm.findings] == [d.to_dict() for d in cold.findings]
        assert [d.rule_id for d in warm.findings] == ["BSHM001"]

    def test_edited_file_misses_and_reanalyzes(self, pkg):
        cache_dir = pkg / ".bshm_cache"
        run_check([pkg / "src"], cache_dir=cache_dir)
        target = pkg / "src/repro/core/foo.py"
        target.write_text("def disjoint(a, b):\n    return a.departure <= b.arrival\n")
        report = run_check([pkg / "src"], cache_dir=cache_dir)
        assert report.cache_misses == 1
        assert report.findings == []

    def test_narrow_run_does_not_evict_other_entries(self, pkg):
        cache_dir = pkg / ".bshm_cache"
        write_tree(pkg, {"src/repro/core/bar.py": "x = 1\n"})
        run_check([pkg / "src"], cache_dir=cache_dir)
        run_check([pkg / "src/repro/core/bar.py"], cache_dir=cache_dir)
        warm = run_check([pkg / "src"], cache_dir=cache_dir)
        assert warm.cache_hits == 2 and warm.cache_misses == 0

    def test_engine_key_change_discards_cache(self, pkg, monkeypatch):
        cache_dir = pkg / ".bshm_cache"
        run_check([pkg / "src"], cache_dir=cache_dir)
        monkeypatch.setattr("repro.analysis.static.cache.CACHE_SALT", 10_001)
        report = run_check([pkg / "src"], cache_dir=cache_dir)
        assert report.cache_hits == 0 and report.cache_misses == 1

    def test_no_cache_mode_never_touches_disk(self, pkg):
        report = run_check([pkg / "src"], use_cache=False)
        assert report.cache_hits == report.cache_misses == 0
        assert not (Path(".bshm_cache")).exists() or True  # no tmp artifacts
        assert not (pkg / ".bshm_cache").exists()

    def test_corrupt_cache_file_is_ignored(self, pkg):
        cache_dir = pkg / ".bshm_cache"
        cache_dir.mkdir()
        (cache_dir / "cache.json").write_text("{not json")
        report = run_check([pkg / "src"], cache_dir=cache_dir)
        assert [d.rule_id for d in report.findings] == ["BSHM001"]
        assert AnalysisCache(cache_dir).get is not None  # reload works


class TestBaselineWorkflow:
    def test_write_then_check_is_green(self, pkg):
        baseline = pkg / "bshm-baseline.json"
        first = run_check([pkg / "src"], use_cache=False)
        assert len(first.findings) == 1
        n = write_baseline(baseline, first.findings, line_text_from_disk)
        assert n == 1
        second = run_check(
            [pkg / "src"], use_cache=False, baseline_path=baseline
        )
        assert second.findings == []
        assert [d.rule_id for d in second.baselined] == ["BSHM001"]

    def test_new_finding_still_fails(self, pkg):
        baseline = pkg / "bshm-baseline.json"
        first = run_check([pkg / "src"], use_cache=False)
        write_baseline(baseline, first.findings, line_text_from_disk)
        write_tree(
            pkg,
            {"src/repro/core/fresh.py": "def f(a, b):\n    return a.arrival <= b.departure\n"},
        )
        report = run_check([pkg / "src"], use_cache=False, baseline_path=baseline)
        assert [d.path.endswith("fresh.py") for d in report.findings] == [True]

    def test_edited_line_invalidates_its_fingerprint(self, pkg):
        baseline = pkg / "bshm-baseline.json"
        first = run_check([pkg / "src"], use_cache=False)
        write_baseline(baseline, first.findings, line_text_from_disk)
        target = pkg / "src/repro/core/foo.py"
        # same violation, different text on the flagged line
        target.write_text(
            "def overlaps(a, b):\n    return b.arrival <= a.departure\n"
        )
        report = run_check([pkg / "src"], use_cache=False, baseline_path=baseline)
        assert [d.rule_id for d in report.findings] == ["BSHM001"]
        assert report.baselined == []

    def test_fingerprint_is_line_shift_stable(self):
        from repro.analysis.static import Diagnostic

        a = Diagnostic("src/x.py", 5, 1, "BSHM001", "m")
        b = Diagnostic("src/x.py", 50, 1, "BSHM001", "m")
        text = "    return a.arrival <= b.departure"
        assert fingerprint(a, text) == fingerprint(b, text)

    def test_malformed_baseline_raises(self, pkg):
        bad = pkg / "bshm-baseline.json"
        bad.write_text('{"version": 99}')
        with pytest.raises(BaselineError):
            run_check([pkg / "src"], use_cache=False, baseline_path=bad)

    def test_loader_round_trip(self, pkg):
        baseline = pkg / "bshm-baseline.json"
        first = run_check([pkg / "src"], use_cache=False)
        write_baseline(baseline, first.findings, line_text_from_disk)
        fps = load_baseline(baseline)
        assert fps == {
            fingerprint(d, line_text_from_disk(d)) for d in first.findings
        }


def git(cwd: Path, *args: str) -> None:
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=cwd,
        check=True,
        capture_output=True,
    )


class TestDiffMode:
    @pytest.fixture()
    def repo(self, tmp_path, monkeypatch):
        write_tree(
            tmp_path,
            {
                "src/repro/core/old.py": VIOLATION,
                "src/repro/core/touched.py": "def g():\n    return 1\n",
            },
        )
        git(tmp_path, "init", "-q")
        git(tmp_path, "add", "-A")
        git(tmp_path, "commit", "-qm", "seed")
        monkeypatch.chdir(tmp_path)
        return tmp_path

    def test_only_changed_lines_are_reported(self, repo):
        # add a violation to touched.py; old.py's pre-existing finding and
        # touched.py's unchanged line 2 must both be filtered out
        (repo / "src/repro/core/touched.py").write_text(
            "def g():\n"
            "    return 1\n"
            "def h(a, b):\n"
            "    return a.arrival <= b.departure\n"
        )
        report = run_check(["src"], use_cache=False, diff_base="HEAD")
        assert [(Path(d.path).name, d.line) for d in report.findings] == [
            ("touched.py", 4)
        ]

    def test_no_changes_reports_nothing(self, repo):
        report = run_check(["src"], use_cache=False, diff_base="HEAD")
        assert report.findings == []

    def test_changed_lines_parser(self, repo):
        (repo / "src/repro/core/touched.py").write_text(
            "def g():\n    return 2\n"
        )
        changed = git_changed_lines("HEAD", repo)
        assert changed == {"src/repro/core/touched.py": {2}}

    def test_bad_ref_raises(self, repo):
        with pytest.raises(ValueError):
            run_check(["src"], use_cache=False, diff_base="no-such-ref")
