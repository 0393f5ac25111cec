"""Tests for trace/ladder/schedule I/O.

The column reader and writer are pinned against the row-wise oracles of
``tests/jobs/reference.py``: the same columns, uids, names and error
messages in, the same bytes out.
"""

import csv
import hashlib
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from repro import (
    Job,
    JobSet,
    MachineKey,
    Schedule,
    dec_ladder,
    dec_offline,
    general_offline,
    inc_ladder,
    inc_offline,
    paper_fig2_ladder,
    uniform_workload,
)
from repro.jobs.io import (
    read_instance_json,
    read_jobs_csv,
    read_ladder_csv,
    write_instance_json,
    write_jobs_csv,
    write_ladder_csv,
    write_schedule_csv,
)
from tests.jobs.reference import read_jobs_csv_reference, write_schedule_csv_reference
from tests.property.settings import tiered


@pytest.fixture
def jobs(rng):
    return uniform_workload(25, rng, max_size=9.0)


class TestJobsCsv:
    def test_roundtrip(self, tmp_path, jobs):
        path = tmp_path / "trace.csv"
        write_jobs_csv(jobs, path)
        loaded = read_jobs_csv(path)
        assert len(loaded) == len(jobs)
        original = sorted((j.size, j.arrival, j.departure, j.name) for j in jobs)
        restored = sorted((j.size, j.arrival, j.departure, j.name) for j in loaded)
        assert original == restored

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError, match="columns"):
            read_jobs_csv(path)

    def test_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("size,arrival,departure\n1.0,0.0,oops\n")
        with pytest.raises(ValueError, match=":2:"):
            read_jobs_csv(path)

    def test_invalid_job_caught(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("size,arrival,departure\n1.0,5.0,3.0\n")  # departs before arrival
        with pytest.raises(ValueError):
            read_jobs_csv(path)

    def test_short_row_is_a_bad_row(self, tmp_path):
        """A row with too few fields is reported with row context, not as
        a bare ``TypeError`` from ``float(None)``."""
        path = tmp_path / "short.csv"
        path.write_text("size,arrival,departure\n1.0,3\n")
        with pytest.raises(ValueError, match=r"short\.csv:2: bad job row .*no value for departure"):
            read_jobs_csv(path)

    def test_error_names_the_physical_line(self, tmp_path):
        """Blank lines count: the bad row below sits on line 5, not on the
        third row."""
        path = tmp_path / "blank.csv"
        path.write_text("size,arrival,departure\n\n1.0,0.0,2.0\n\n1.0,0.0,oops\n")
        with pytest.raises(ValueError, match=r"blank\.csv:5: bad job row"):
            read_jobs_csv(path)

    def test_row_k_takes_the_kth_uid(self, tmp_path):
        """The reader takes one uid block: row ``k`` gets the uid the
        ``k``-th ``Job()`` would, named rows keep their names and unnamed
        ones are ``J<uid>``."""
        path = tmp_path / "trace.csv"
        path.write_text(
            "size,arrival,departure,name\n1.0,5.0,6.0,late\n1.0,0.0,1.0,\n2.0,0.0,3.0,early\n"
        )
        before = Job(1.0, 0.0, 1.0).uid
        jobs = read_jobs_csv(path)
        assert Job(1.0, 0.0, 1.0).uid == before + 4
        assert [(j.uid - before, j.name) for j in jobs] == [
            (2, f"J{before + 2}"),
            (3, "early"),
            (1, "late"),
        ]

    def test_columns_hold_the_trace_until_jobs_are_asked_for(self, tmp_path, jobs):
        path = tmp_path / "trace.csv"
        write_jobs_csv(jobs, path)
        loaded = read_jobs_csv(path)
        a = loaded.to_arrays()
        assert len(loaded) == len(jobs) and loaded.max_size == jobs.max_size
        assert a.starts.tolist() == [j.arrival for j in loaded]
        assert list(loaded.names) == [j.name for j in loaded]


# ---------------------------------------------------------------------------
# the column reader against the row-wise oracle
# ---------------------------------------------------------------------------

_NAMES = st.text(
    alphabet=st.sampled_from(list("ab ,\"'\r\n\té€😀0")), max_size=6
)
_JUNK = st.sampled_from(["", "oops", " 1.5 ", "1_0", "nan", "inf", "-inf", "-0.0", "0", "1e-05"])


@st.composite
def _trace_files(draw):
    """(header, rows, line terminator) of a trace that may be malformed:
    missing or repeated columns, blank lines, short and long rows, bad
    cells, invalid jobs and names that need quoting."""
    columns = list(draw(st.permutations(["size", "arrival", "departure"])))
    if draw(st.booleans()):
        columns.insert(draw(st.integers(0, len(columns))), "name")
    if draw(st.integers(0, 9)) == 0:
        columns.append("extra")
    if draw(st.integers(0, 9)) == 0:
        columns.append(draw(st.sampled_from(["size", "arrival", "departure", "name"])))
    if draw(st.integers(0, 19)) == 0:
        columns.remove(draw(st.sampled_from(["size", "arrival", "departure"])))
    rows = []
    for _ in range(draw(st.integers(0, 8))):
        shape = draw(st.integers(0, 19))
        if shape == 0:
            rows.append([])  # a blank line
            continue
        size = draw(st.floats(1e-3, 10.0))
        arrival = draw(st.sampled_from([0.0, -0.0, 1.0, 2.5]) | st.floats(0.0, 50.0))
        departure = arrival + draw(st.floats(0.01, 20.0))
        values = {"size": repr(size), "arrival": repr(arrival), "departure": repr(departure),
                  "name": draw(_NAMES), "extra": "x"}
        row = [values[c] for c in columns]
        if shape == 1 and row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_JUNK)
        elif shape == 2:
            row = row[: draw(st.integers(1, max(1, len(row) - 1)))]
        elif shape == 3:
            row = row + ["more"]
        rows.append(row)
    return columns, rows, draw(st.sampled_from(["\r\n", "\n"]))


def _outcome(read, path):
    """Columns, uids relative to the first and names (``J<uid>`` as
    ``J*``) of a read, or its error message."""
    try:
        jobs = read(path)
    except ValueError as exc:
        return ("error", str(exc))
    a = jobs.to_arrays()
    uids = a.uids.tolist()
    base = min(uids, default=0)
    return (
        [list(map(repr, col.tolist())) for col in (a.starts, a.ends, a.sizes)],
        [uid - base for uid in uids],
        ["J*" if name == f"J{uid}" else name for name, uid in zip(jobs.names, uids)],
    )


@tiered(150)
@given(_trace_files())
def test_reader_matches_the_row_wise_oracle(trace):
    columns, rows, terminator = trace
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator=terminator)
            writer.writerow(columns)
            writer.writerows(rows)
        assert _outcome(read_jobs_csv, path) == _outcome(read_jobs_csv_reference, path)


def test_reader_matches_the_oracle_on_an_empty_file(tmp_path):
    for text in ("", "\n", "size,arrival,departure\n"):
        path = tmp_path / "t.csv"
        path.write_text(text)
        assert _outcome(read_jobs_csv, path) == _outcome(read_jobs_csv_reference, path)


class TestLadderCsv:
    def test_short_row_is_a_bad_row(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("capacity,rate\n3\n")
        with pytest.raises(ValueError, match=r"short\.csv:2: bad type row .*no value for rate"):
            read_ladder_csv(path)

    def test_error_names_the_physical_line(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_text("capacity,rate\n\n1,1\n\nx,2\n")
        with pytest.raises(ValueError, match=r"blank\.csv:5: bad type row"):
            read_ladder_csv(path)

    def test_roundtrip(self, tmp_path, dec3):
        path = tmp_path / "ladder.csv"
        write_ladder_csv(dec3, path)
        loaded = read_ladder_csv(path)
        assert loaded == dec3

    def test_missing_columns(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\n1,2\n")
        with pytest.raises(ValueError, match="capacity,rate"):
            read_ladder_csv(path)


class TestScheduleCsv:
    def test_write(self, tmp_path, jobs, dec3):
        sched = dec_offline(jobs, dec3)
        path = tmp_path / "out.csv"
        write_schedule_csv(sched, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "job,size,arrival,departure,type,machine"
        assert len(lines) == len(jobs) + 1


    def test_unnamed_trace_writes_the_oracle_bytes(self, tmp_path, dec3):
        path = tmp_path / "trace.csv"
        path.write_text("size,arrival,departure\n0.5,0.0,4.0\n2.0,1.0,3.0\n0.5,0.0,1e-05\n")
        sched = dec_offline(read_jobs_csv(path), dec3)
        write_schedule_csv(sched, tmp_path / "a.csv")
        write_schedule_csv_reference(sched, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


_SPECIAL_FLOATS = [1e-05, 1e16, 5e-324, 0.1 + 0.2, 0.0, -0.0, 1.0, 2.5e-300, 1e300, 123456.789]
_TIMES = st.sampled_from(_SPECIAL_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_SIZES = st.sampled_from([f for f in _SPECIAL_FLOATS if f > 0]) | st.floats(
    min_value=5e-324, allow_nan=False, allow_infinity=False
)


@st.composite
def _schedules(draw):
    """Schedules whose names, numbers and machine labels exercise every
    quoting and float-formatting case of ``csv.writer``."""
    jobs = {}
    for _ in range(draw(st.integers(0, 10))):
        t0, t1 = sorted([draw(_TIMES), draw(_TIMES)])
        assume(t0 < t1)
        name = draw(st.none() | _NAMES | st.integers() | st.floats())
        job = Job(draw(_SIZES), t0, t1, name=name)
        tag = draw(st.tuples(st.sampled_from(["m", "a,b", 'q"x', "é\n"]), st.integers(0, 2)))
        jobs[job] = MachineKey(draw(st.integers(1, 3)), tag)
    return Schedule(dec_ladder(3), jobs)


@tiered(150)
@given(_schedules())
def test_writer_matches_the_csv_writer_bytes(sched):
    with tempfile.TemporaryDirectory() as tmp:
        ours, oracle = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        write_schedule_csv(sched, ours)
        write_schedule_csv_reference(sched, oracle)
        assert ours.read_bytes() == oracle.read_bytes()


# ---------------------------------------------------------------------------
# assignment digests: seeded instances through the whole CSV path, pinned
# ---------------------------------------------------------------------------

def _named_workload(n: int, max_size: float, seed: int) -> JobSet:
    """``n`` named jobs (names, not uids, go into the CSV), ~30 live."""
    rng = np.random.default_rng(seed)
    arrivals = rng.uniform(0.0, n / 2.0, size=n)
    durations = rng.uniform(5.0, 25.0, size=n)
    sizes = rng.uniform(0.05, max_size, size=n)
    return JobSet(
        Job(size=float(s), arrival=float(a), departure=float(a + d), name=f"P{k}")
        for k, (a, d, s) in enumerate(zip(arrivals, durations, sizes))
    )


@pytest.mark.parametrize(
    "solve, ladder, seed, digest",
    [
        (dec_offline, dec_ladder(5), 11,
         "eaa8510110b5d35becfdffc2cf405104aa8b841b2ddb2f5684405eecd23ab624"),
        (inc_offline, inc_ladder(5), 12,
         "d02d2c860de543fd1c83611432ec2607af1db8aa3f33167cbe8abf65612992d9"),
        (general_offline, paper_fig2_ladder(), 13,
         "c8831397b86e3764bb0580b8bf31322d50ee77c5b421edb14e2cd3d2298af2ee"),
    ],
    ids=["dec", "inc", "gen"],
)
def test_assignment_csv_digest(tmp_path, solve, ladder, seed, digest):
    """Trace CSV in, assignment CSV out: the bytes of the row-wise path."""
    write_jobs_csv(_named_workload(2000, ladder.capacity(ladder.m), seed), tmp_path / "t.csv")
    sched = solve(read_jobs_csv(tmp_path / "t.csv"), ladder)
    write_schedule_csv(sched, tmp_path / "a.csv")
    assert hashlib.sha256((tmp_path / "a.csv").read_bytes()).hexdigest() == digest


class TestInstanceJson:
    def test_roundtrip(self, tmp_path, jobs, dec3):
        path = tmp_path / "instance.json"
        write_instance_json(jobs, dec3, path)
        loaded_jobs, loaded_ladder = read_instance_json(path)
        assert loaded_ladder == dec3
        assert len(loaded_jobs) == len(jobs)
        assert sorted(j.size for j in loaded_jobs) == sorted(j.size for j in jobs)
