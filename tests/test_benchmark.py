"""The benchmark harness still runs against the package.

``bench/`` wraps package functions by name for its traced mode, so a
rename or removal in ``src/`` can break it without failing any other test.
"""

from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

from mscoupling.graph import ServiceGraph

ROOT = Path(__file__).resolve().parent.parent


def test_traced_names_exist_in_package():
    """Every name ``bench/spans.py`` wraps still exists, so a rename fails here and names the attribute."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr in [*spans.SPANS, *spans.COUNTED]
        if not hasattr(importlib.import_module(f"{spans.PACKAGE}.{module}"), attr)
    ]
    missing += [f"graph.ServiceGraph.{attr}" for attr in (*spans.GRAPH_COUNTED, "build") if not hasattr(ServiceGraph, attr)]
    assert missing == []


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
