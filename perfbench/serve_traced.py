"""Traced ``bshm serve``: install the timing wrappers, then enter the CLI.

Usage: ``python3 perfbench/serve_traced.py SPANS.json serve [serve flags]``.
On SIGUSR1 the recorded spans are written to ``SPANS.json`` (atomically),
so the benchmark can collect them before it kills the server.
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402

SERVER_GROUPS = ("server", "runtime", "online", "wal", "state", "schedule")


def main() -> int:
    spans_out = Path(sys.argv[1])
    recorder = tracing.Recorder()
    recorder.install(SERVER_GROUPS)
    signal.signal(signal.SIGUSR1, lambda _sig, _frame: recorder.dump(spans_out))
    from repro.cli import main as cli_main

    return cli_main(sys.argv[2:])


if __name__ == "__main__":
    sys.exit(main())
