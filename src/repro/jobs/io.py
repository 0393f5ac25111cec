"""Instance and schedule I/O: CSV traces in, CSV/JSON reports out.

Formats:

- **Job trace CSV** — header ``size,arrival,departure[,name]``; one job per
  row.  This is the interchange format of the ``bshm schedule`` CLI and the
  natural target for converting real cluster traces.
- **Ladder CSV** — header ``capacity,rate``; one machine type per row.
- **Schedule CSV** — ``job,size,arrival,departure,type,machine``; written by
  :func:`write_schedule_csv` for downstream analysis.
- **Instance JSON** — a single document with jobs + ladder, round-trippable
  via :func:`write_instance_json` / :func:`read_instance_json`.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from ..jobs.job import Job, reserve_uids
from ..jobs.jobset import JobSet
from ..machines.ladder import Ladder
from ..machines.types import MachineType
from ..schedule.schedule import Schedule

__all__ = [
    "read_jobs_csv",
    "write_jobs_csv",
    "read_ladder_csv",
    "write_ladder_csv",
    "write_schedule_csv",
    "write_instance_json",
    "read_instance_json",
]


_JOB_COLUMNS = ("size", "arrival", "departure")
_LADDER_COLUMNS = ("capacity", "rate")


def read_jobs_csv(path: str | Path) -> JobSet:
    """Load a job trace; raises ValueError with row context on bad data.

    The trace is parsed column by column into a :class:`JobSet` held as
    columns: row ``k`` gets the uid the ``k``-th ``Job()`` would get, an
    unnamed row is named ``J<uid>``, and no ``Job`` is built until one is
    asked for.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or not set(_JOB_COLUMNS) <= set(header):
            raise ValueError(
                f"trace must have columns {sorted(_JOB_COLUMNS)}, got {header}"
            )
        rows = list(filter(None, reader))  # csv.DictReader skips blank rows too
    n = len(rows)
    # a repeated column name reads its last column, as csv.DictReader does
    column = {name: i for i, name in enumerate(header)}
    shortest = min(map(len, rows), default=len(header))
    if shortest > max(column[c] for c in _JOB_COLUMNS):
        try:
            sizes, starts, ends = (
                np.fromiter(map(float, [row[column[c]] for row in rows]), np.float64, n)
                for c in _JOB_COLUMNS
            )
            uids = reserve_uids(n)
            names = _names(rows, column.get("name"), shortest, uids)
            return JobSet.from_columns(
                starts, ends, sizes, np.arange(uids.start, uids.stop), names
            )
        except ValueError:
            pass
    # a short row, a bad cell or an invalid job: re-read row by row for the
    # first error and the line it is on
    with open(path, newline="") as fh:
        for _ in _checked_rows(csv.DictReader(fh), path, "job", _JOB_COLUMNS, _check_job):
            pass
    raise AssertionError(f"{path}: the column and row checks disagree")


def _names(rows: list[list[str]], i: int | None, shortest: int, uids: range) -> list[str]:
    """The name column, ``J<uid>`` where a row has no name."""
    if i is None:
        return [f"J{uid}" for uid in uids]
    if shortest > i:
        names = [row[i] for row in rows]
    else:
        names = [row[i] if len(row) > i else "" for row in rows]
    if all(names):
        return names
    return [name or f"J{uid}" for name, uid in zip(names, uids)]


def _check_job(size: float, arrival: float, departure: float) -> None:
    Job(size, arrival, departure, uid=0)  # validates without taking a uid


def _checked_rows(
    reader: csv.DictReader,
    path: str | Path,
    what: str,
    columns: tuple[str, ...],
    make: Callable[..., object],
) -> Iterator:
    """``make(*values)`` for each row, ``values`` being the row's
    ``columns`` as floats.  A row that is short or fails raises
    ``ValueError("<path>:<line>: bad <what> row <row>: <reason>")``, where
    ``line`` is the physical line on which the row ends."""
    for row in reader:
        try:
            missing = [c for c in columns if row[c] is None]
            if missing:
                raise ValueError(f"no value for {', '.join(missing)}")
            yield make(*(float(row[c]) for c in columns))
        except ValueError as exc:
            raise ValueError(
                f"{path}:{reader.reader.line_num}: bad {what} row {row}: {exc}"
            ) from exc


def write_jobs_csv(jobs: JobSet, path: str | Path) -> None:
    """Write a job trace CSV (columns size,arrival,departure,name)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["size", "arrival", "departure", "name"])
        for job in jobs:
            writer.writerow([job.size, job.arrival, job.departure, job.name])


def read_ladder_csv(path: str | Path) -> Ladder:
    """Load a machine ladder from CSV (columns capacity,rate)."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or not set(_LADDER_COLUMNS) <= set(reader.fieldnames):
            raise ValueError("ladder CSV must have columns capacity,rate")
        types = list(_checked_rows(reader, path, "type", _LADDER_COLUMNS, MachineType))
    return Ladder(types)


def write_ladder_csv(ladder: Ladder, path: str | Path) -> None:
    """Write a ladder CSV (columns capacity,rate)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["capacity", "rate"])
        for t in ladder.types:
            writer.writerow([t.capacity, t.rate])


#: characters that make csv.writer's QUOTE_MINIMAL quote a field
_QUOTED = (",", '"', "\r", "\n")


def write_schedule_csv(schedule: Schedule, path: str | Path) -> None:
    """Write one row per job: its data plus the machine it runs on.

    Rows follow the jobs' canonical ``(arrival, uid)`` order and are
    formatted column by column, byte for byte as ``csv.writer`` writes
    them: floats as ``repr``, minimal quoting, CRLF line ends.  Each
    machine's label is formatted once.
    """
    jobs = schedule.jobs
    a = jobs.to_arrays()
    keys = schedule.machine_table
    types = [_csv_field(key.type_index) for key in keys]
    labels = [_csv_field(str(key)) for key in keys]
    ids = schedule.machine_ids().tolist()
    rows = zip(
        _text_column(jobs.names),
        map(repr, a.sizes.tolist()),
        map(repr, a.starts.tolist()),
        map(repr, a.ends.tolist()),
        map(types.__getitem__, ids),
        map(labels.__getitem__, ids),
    )
    body = "\r\n".join(map(",".join, rows))
    with open(path, "w", newline="") as fh:
        fh.write("job,size,arrival,departure,type,machine\r\n")
        if body:
            fh.write(body + "\r\n")


def _csv_field(value: object) -> str:
    """One field as ``csv.writer``'s default dialect writes it."""
    if isinstance(value, str):
        text = value
    elif value is None:
        text = ""
    else:
        text = repr(value) if isinstance(value, float) else str(value)
    if any(c in text for c in _QUOTED):
        return '"' + text.replace('"', '""') + '"'
    return text


def _text_column(values: Sequence[object]) -> Sequence[str]:
    """A column of fields, converted and quoted only where it needs it."""
    try:
        joined = "".join(values)  # type: ignore[arg-type]
    except TypeError:  # not every value is a str
        return [_csv_field(v) for v in values]
    if any(c in joined for c in _QUOTED):
        return [_csv_field(v) for v in values]
    return values  # type: ignore[return-value]


def write_instance_json(jobs: JobSet, ladder: Ladder, path: str | Path) -> None:
    """Write jobs + ladder as one round-trippable JSON document."""
    doc = {
        "ladder": [{"capacity": t.capacity, "rate": t.rate} for t in ladder.types],
        "jobs": [
            {
                "size": j.size,
                "arrival": j.arrival,
                "departure": j.departure,
                "name": j.name,
            }
            for j in jobs
        ],
    }
    Path(path).write_text(json.dumps(doc, indent=2))


def read_instance_json(path: str | Path) -> tuple[JobSet, Ladder]:
    """Load ``(jobs, ladder)`` from an instance JSON document."""
    doc = json.loads(Path(path).read_text())
    ladder = Ladder(
        MachineType(t["capacity"], t["rate"]) for t in doc["ladder"]
    )
    jobs = JobSet(
        Job(j["size"], j["arrival"], j["departure"], name=j.get("name"))
        for j in doc["jobs"]
    )
    return jobs, ladder
