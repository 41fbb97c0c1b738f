"""The scope scripts refuse a missing size with a usage line and exit 2,
as the command line does with bad input."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src"


@pytest.mark.parametrize("script", ["small_scope.py", "rotation_scope.py", "positions_scope.py"])
def test_no_size_prints_usage_and_exits_2(script):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(TESTS / script)],
        capture_output=True, text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith(f"usage: python tests/{script} N")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr
