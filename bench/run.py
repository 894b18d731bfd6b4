"""Seeded, offline benchmark of the ``mscoupling`` command line.

Run from the repository root::

    python3 bench/run.py --workload analyze-hub600 --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --smoke

``run.py`` generates the workload's inputs from ``--seed`` and then runs a
closed loop with one client: each run is a fresh interpreter with
``PYTHONPATH=src`` that calls ``mscoupling.cli.main(argv)`` into a fresh,
empty output directory, and the next run starts only after the previous
one ended and its output passed the check against the oracle.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced runs with traced ones (see ``spans.py``) and reports the
per-layer metrics; the traced runs must agree exactly on every count.
``--smoke`` runs every workload at a tiny size in both modes and checks
the result schema against ``BENCHMARK.json`` and the output check, not
the timings.

The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import pace
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 3  # before the loop and again after every run
MIN_RUNS = 3
DEADLINE_S = 170  # every invocation must end within 180 s

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "pairs_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics: times come from the traced runs, counts must repeat exactly.
PER_LAYER = {
    "ingest.load_project.s": "s",
    "ingest.parse.self_s": "s",
    "ingest.build_graph.self_s": "s",
    "ingest.records": "count",
    "graph.build.self_s": "s",
    "graph.edges": "count",
    "graph.connected_pairs": "count",
    "graph.max_node_degree.calls": "count",
    "graph.node_degree.calls": "count",
    "graph.articulation_services.calls": "count",
    "metrics.project_summary.self_s": "s",
    "metrics.pair_matrix.s": "s",
    "metrics.pair_matrix.calls": "count",
    "metrics.service_table.s": "s",
    "metrics.service_table.calls": "count",
    "metrics.structural_coupling.calls": "count",
    "metrics.pair_evals_per_pair": "ratio",
    "report.emit_pair_matrix_csv.self_s": "s",
    "report.emit_service_metrics_csv.self_s": "s",
    "report.emit_summary_csv.self_s": "s",
    "report.emit_dot.self_s": "s",
    "report.emit_svg.self_s": "s",
    "report.classify.calls": "count",
    "cli.write.s": "s",
    "cli.write.files": "count",
    "cli.write.bytes": "B",
    "cli.corpus.project_s.p50": "s",
    "cli.corpus.project_s.p95": "s",
    "cli.cpu_util": "ratio",
    "cli.main.self_s": "s",
    "trace.overhead_frac": "ratio",
    "src.lines": "count",
    "api.names": "count",
    "input.services": "count",
    "input.siy": "count",
}
# Counts made by the traced program; every traced run must repeat them exactly.
COUNTS = tuple(
    name for name, unit in PER_LAYER.items() if unit in ("count", "B") and not name.startswith(("src.", "api.", "input."))
) + ("metrics.pair_metrics.calls",)


class Runner:
    """Spawns the child interpreter; one at a time, never past the deadline."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
        self.runs = 0

    def spawn(self, mode: str, argv=()) -> tuple[dict | None, str]:
        """Returns the child's result (None when it failed) and its stdout."""
        self.runs += 1
        result_path = self.work / f"result-{self.runs}.json"
        started = time.monotonic()
        try:
            proc = subprocess.run(
                [sys.executable, str(CHILD), str(result_path), mode, *argv],
                cwd=ROOT,
                env=self.env,
                capture_output=True,
                text=True,
                timeout=max(1.0, self.deadline - started),
            )
        except subprocess.TimeoutExpired:
            print(f"run {self.runs}: timed out", file=sys.stderr)
            return None, ""
        if proc.returncode != 0 or not result_path.is_file():
            print(f"run {self.runs}: child exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return None, proc.stdout
        result = json.loads(result_path.read_text(encoding="utf-8"))
        result_path.unlink()
        result["setup_s"] = result["ready"] - started
        return result, proc.stdout

    def run_case(self, case: workloads.Case, mode: str) -> dict | None:
        """One checked run; None when it failed or its output is wrong."""
        out_dir = self.work / f"out-{self.runs + 1}"
        result, stdout = self.spawn(mode, [*case.argv, "--out", str(out_dir)])
        try:
            if result is None:
                return None
            try:
                problems = check.check_run(case, out_dir, result["code"], stdout)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                print(f"run {self.runs}: output check failed: {'; '.join(problems[:5])}", file=sys.stderr)
                return None
            return result
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)


def _setup_samples(runner: Runner, count: int) -> list[float]:
    samples = []
    for _ in range(count):
        result, _ = runner.spawn("setup")
        if result is not None:
            samples.append(result["setup_s"])
    return samples


def _closed_loop(runner: Runner, case: workloads.Case, modes: list[str], seconds: float, between=None):
    """Cycle through ``modes`` while the next cycle would end nearer to ``seconds`` than this one.

    The loop ends within half a cycle of ``seconds`` on either side, so a
    10-second run fits six times into 60 seconds rather than five.
    ``between`` runs after every cycle and counts towards its time.
    """
    done: dict[str, list[dict]] = {mode: [] for mode in modes}
    attempted = failed = 0
    begin = time.monotonic()
    cycles = 0
    while True:
        for mode in modes:
            attempted += 1
            result = runner.run_case(case, mode)
            if result is None:
                failed += 1
            else:
                done[mode].append(result)
        if between is not None:
            between()
        cycles += 1
        elapsed = time.monotonic() - begin
        per_cycle = elapsed / cycles
        if time.monotonic() + per_cycle > runner.deadline:
            break
        if cycles * len(modes) >= MIN_RUNS and elapsed + per_cycle / 2 > seconds:
            break
    return done, attempted, failed


def _median(values, default=0.0) -> float:
    return statistics.median(values) if values else default


def end_to_end(runner: Runner, case: workloads.Case, seconds: float):
    runner.spawn("setup")  # warm-up: fills the bytecode cache of a fresh checkout
    # Set-up samples are spread over the whole loop, so that one slow or fast
    # spell of the machine does not decide their median.
    setups = _setup_samples(runner, SETUP_SAMPLES)

    def more_setups():
        setups.extend(_setup_samples(runner, SETUP_SAMPLES))

    done, attempted, failed = _closed_loop(runner, case, ["0"], seconds, more_setups)
    runs = done["0"]
    setups += [run["setup_s"] for run in runs]
    walls = [run["wall_s"] for run in runs]
    paced = [run["wall_s"] * pace.REFERENCE_S / run["pace_loop_s"] for run in runs]
    wall = _median(paced)
    print(f"  raw wall s over {len(walls)} runs: " + " ".join(f"{value:.4f}" for value in walls))
    print("  reference loop us:       " + " ".join(f"{run['pace_loop_s'] * 1e6:.1f}" for run in runs))
    print("  paced wall s:            " + " ".join(f"{value:.4f}" for value in paced))
    metrics = {
        "wall_s": wall,
        "setup_s": _median(setups),
        "pairs_per_s": case.stats()["connected_pairs"] / wall if wall else 0.0,
        "peak_rss_mb": _median([run["peak_rss_kb"] / 1024 for run in runs]),
    }
    return metrics, attempted, failed, []


def per_layer(runner: Runner, case: workloads.Case, seconds: float):
    done, attempted, failed = _closed_loop(runner, case, ["0", "1", "1"], seconds)
    plain, traced = done["0"], done["1"]
    layers = [spans.layer_metrics(run["trace"]) for run in traced]
    problems = []
    counts = [{name: layer.get(name, 0) for name in COUNTS} for layer in layers]
    if len(counts) < 2:
        problems.append("fewer than two traced runs passed")
    elif any(other != counts[0] for other in counts[1:]):
        problems.append(f"traced runs disagree on counts: {counts}")

    metrics = {name: _median([layer.get(name, 0.0) for layer in layers]) for name in PER_LAYER}
    metrics.update(counts[0] if counts else dict.fromkeys(COUNTS, 0))
    plain_wall = _median([run["wall_s"] for run in plain])
    traced_wall = _median([run["wall_s"] for run in traced])
    pairs = metrics["graph.connected_pairs"]
    evals = metrics.pop("metrics.pair_metrics.calls") + metrics["metrics.structural_coupling.calls"]
    stats = case.stats()
    metrics.update(
        {
            "metrics.pair_evals_per_pair": evals / pairs if pairs else 0.0,
            "cli.cpu_util": _median([run["cpu_s"] / run["wall_s"] for run in plain]),
            "trace.overhead_frac": traced_wall / plain_wall - 1 if plain_wall else 0.0,
            "src.lines": _src_lines(),
            "api.names": traced[0]["api_names"] if traced else 0,
            "input.services": stats["services"],
            "input.siy": stats["siy"],
        }
    )
    return metrics, attempted, failed, problems


def _src_lines() -> int:
    return sum(len(path.read_text(encoding="utf-8").splitlines()) for path in (ROOT / "src").rglob("*.py"))


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    runner = Runner(WORK / f"{workload}-{seed}-{os.getpid()}", time.monotonic() + DEADLINE_S)
    shutil.rmtree(runner.work, ignore_errors=True)
    try:
        case = workloads.generate(workload, seed, runner.work / "input", smoke=smoke)
        print(f"{workload} seed={seed} inputs: " + " ".join(f"{k}={v}" for k, v in case.stats().items()))
        measure_fn = per_layer if trace else end_to_end
        metrics, attempted, failed, problems = measure_fn(runner, case, seconds)
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
    units = PER_LAYER if trace else END_TO_END
    for problem in problems:
        print(f"error: {problem}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16} {units[name]}" if isinstance(value, int) else f"  {name:40s} {value:16.6g} {units[name]}")
    return {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def smoke() -> int:
    """Tiny inputs, both modes, every workload: schema and output check only."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if not {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS):
        problems.append("BENCHMARK.json names a workload the harness does not have")
    for workload in workloads.WORKLOADS:
        for trace in (False, True):
            result = measure(workload, 1, 0, trace, smoke=True)
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if printed != declared[trace]:
                problems.append(f"{workload} trace={int(trace)}: metrics differ from BENCHMARK.json")
            if not result["correct"] or result["failed"] or result["attempted"] < MIN_RUNS:
                problems.append(f"{workload} trace={int(trace)}: {result}")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "failed" if problems else "ok"}))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mscoupling" / "cli.py").is_file():
        print(f"error: no mscoupling sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
