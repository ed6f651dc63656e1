"""Run ``repro serve`` with the layer wrappers installed (traced pass).

Usage: ``python3 serve_launcher.py TRACE_DIR serve [repro serve flags]``.
The spans of the daemon process are written to TRACE_DIR when it drains
and exits; forked search workers append theirs as they go.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import tracing  # noqa: E402


def main() -> int:
    tracer = tracing.install(Path(sys.argv[1]))
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump()


if __name__ == "__main__":
    raise SystemExit(main())
