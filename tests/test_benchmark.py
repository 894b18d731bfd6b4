"""The benchmark harness still runs against the package.

``bench/`` wraps package functions by name for its traced mode, so a
rename or removal in ``src/`` can break it without failing any other test.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_smoke_passes():
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    lines = completed.stdout.strip().splitlines()
    assert lines and lines[-1] == '{"smoke": "ok"}', completed.stderr
