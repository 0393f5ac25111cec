"""Test oracles for the CSV trace reader and the assignment writer.

:func:`repro.jobs.io.read_jobs_csv` parses a trace column by column and
:func:`repro.jobs.io.write_schedule_csv` formats an assignment column by
column.  These are the row-wise versions they replaced: one
``csv.DictReader`` row and one validated ``Job`` per line in, one sorted
``(Job, MachineKey)`` pair and one ``csv.writer`` row per job out.  The
reader carries the two row-context fixes (a short row is a bad row, and the
line is the physical line ``reader.line_num``), so the column reader must
match it on columns, uids, names and error messages, and the column writer
must match the writer byte for byte.
"""

from __future__ import annotations

import csv
from pathlib import Path

from repro import Job, JobSet, Schedule

JOB_COLUMNS = ("size", "arrival", "departure")


def read_jobs_csv_reference(path: str | Path) -> JobSet:
    """Load a job trace row by row."""
    jobs = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = set(JOB_COLUMNS)
        if reader.fieldnames is None or not required <= set(reader.fieldnames):
            raise ValueError(
                f"trace must have columns {sorted(required)}, got {reader.fieldnames}"
            )
        for row in reader:
            try:
                missing = [c for c in JOB_COLUMNS if row[c] is None]
                if missing:
                    raise ValueError(f"no value for {', '.join(missing)}")
                jobs.append(
                    Job(
                        size=float(row["size"]),
                        arrival=float(row["arrival"]),
                        departure=float(row["departure"]),
                        name=row.get("name") or None,
                    )
                )
            except ValueError as exc:
                raise ValueError(
                    f"{path}:{reader.reader.line_num}: bad job row {row}: {exc}"
                ) from exc
    return JobSet(jobs)


def write_schedule_csv_reference(schedule: Schedule, path: str | Path) -> None:
    """Write one ``csv.writer`` row per job, sorted by ``(arrival, uid)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["job", "size", "arrival", "departure", "type", "machine"])
        for job, key in sorted(
            schedule.assignment.items(), key=lambda kv: (kv[0].arrival, kv[0].uid)
        ):
            writer.writerow(
                [job.name, job.size, job.arrival, job.departure, key.type_index, str(key)]
            )
