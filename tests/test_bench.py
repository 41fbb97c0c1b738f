"""The benchmark's smoke run: every workload's output matches its digest."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_digests_match():
    """Runs every bench workload at toy size and compares each operation's
    canonical output (reports, verdicts, DOT text) with the recorded smoke
    digests, so any change in report bytes fails here."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert "smoke: ok" in proc.stdout
