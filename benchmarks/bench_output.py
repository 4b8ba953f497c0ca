"""Where the benchmark suites write their reports.

Every suite writes its JSON report into the untracked ``.bench_out/``
directory at the repository root, never over the committed ``BENCH_PR*.json``
files.  A committed report is re-recorded on purpose with an explicit copy,
e.g. ``cp .bench_out/BENCH_PR2.json BENCH_PR2.json``.
"""

from __future__ import annotations

import json
from pathlib import Path

#: The untracked report directory (listed in ``.gitignore``).
BENCH_OUT = Path(__file__).resolve().parent.parent / ".bench_out"


def write_report(path: Path, report: dict) -> None:
    """Write ``report`` as indented JSON to ``path``, creating its directory."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
