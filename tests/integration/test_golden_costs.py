"""Golden-cost regression tests for the headline experiments E1–E5.

``golden_e1e5.json`` pins the per-row cost, lower bound and ratio of every
(algorithm, workload, m) cell at quick scale, captured from the pre-sweep
seed implementation on the fixed :func:`repro.experiments.harness.rng_for`
seeds.  Any change to cost accounting, placement tie-breaking or generator
determinism shows up here as a drift from the recorded numbers.

Tolerances: the recorded values are already rounded (cost/LB to 3 decimals,
ratio to 4 — see ``AlgorithmRun.row``), so the comparison allows one unit in
the last recorded digit on top of genuine float noise.

The numbers were recorded before the vectorized kernels and the columnar
peel engines became the only production path; each experiment replays
once, on that path, and must still land on them.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).parent / "golden_e1e5.json").read_text())

MODULES = {
    "E1": "repro.experiments.e01_dec_offline",
    "E2": "repro.experiments.e02_dec_online",
    "E3": "repro.experiments.e03_inc_offline",
    "E4": "repro.experiments.e04_inc_online",
    "E5": "repro.experiments.e05_general",
}

COST_TOL = 2e-3  # recorded to 3 decimals
RATIO_TOL = 2e-4  # recorded to 4 decimals


@pytest.mark.parametrize("eid", sorted(GOLDEN))
def test_golden_costs(eid):
    result = importlib.import_module(MODULES[eid]).run(scale="quick")
    golden = GOLDEN[eid]
    assert result.passed == golden["passed"]
    assert len(result.rows) == len(golden["rows"])
    for row, want in zip(result.rows, golden["rows"]):
        cell = f"{eid}/{want['algorithm']}/{want['workload']}"
        assert row["algorithm"] == want["algorithm"], cell
        assert row["workload"] == want["workload"], cell
        assert row["cost"] == pytest.approx(want["cost"], abs=COST_TOL), cell
        assert row["LB"] == pytest.approx(want["LB"], abs=COST_TOL), cell
        assert row["ratio"] == pytest.approx(want["ratio"], abs=RATIO_TOL), cell


def test_golden_file_shape():
    """The committed golden file covers exactly E1–E5 with non-empty rows."""
    assert sorted(GOLDEN) == sorted(MODULES)
    for eid, golden in GOLDEN.items():
        assert golden["rows"], eid
        for row in golden["rows"]:
            assert {"algorithm", "workload", "cost", "LB", "ratio"} <= row.keys()
