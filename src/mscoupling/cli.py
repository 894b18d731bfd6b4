"""Command line front end wiring ingest -> metrics -> report.

Commands:

* ``analyze``  -- one project (descriptor, edge CSV or compose file)
* ``corpus``   -- a directory of projects, one summary row per project
* ``example``  -- the built-in demo system
* ``render``   -- DOT/SVG drawings only

Exit codes: 0 success, 1 bad input or options, 2 I/O failure, 3 corpus
finished with at least one failed project.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import metrics, report
from .errors import CouplingError, ValidationError, _shown
from .graph import ServiceGraph
from .ingest import FORMATS, load_corpus, load_project
from .metrics import ProjectSummary
from .report import RenderOptions
from .sample import SAMPLE_PROJECT_NAME, sample_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_PARTIAL = 3

EMIT_CHOICES = ("csv", "dot", "svg")
CORPUS_SUMMARY = "corpus_summary.csv"
CORPUS_ERRORS = "corpus_errors.txt"
CORPUS_FILES = (CORPUS_SUMMARY, CORPUS_ERRORS)
# Every file a project analysis can write; a run removes the ones it did not write.
OUTPUT_NAMES = (
    "service_metrics.csv",
    *(f"pair_{metric}.csv" for metric in report.PAIR_METRICS),
    "summary.csv",
    "graph.dot",
    "graph.svg",
)


def _parse_emit(text: str) -> tuple[str, ...]:
    parts = [part.strip() for part in text.split(",") if part.strip()]
    if not parts:
        raise ValidationError("emit set must not be empty")
    for part in parts:
        if part not in EMIT_CHOICES:
            raise ValidationError(f"unknown emit target {part!r} (choose from {', '.join(EMIT_CHOICES)})")
    return tuple(sorted(set(parts), key=EMIT_CHOICES.index))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mscoupling",
        description="Structural coupling metrics and visualizations for microservice dependency graphs.",
    )
    defaults = RenderOptions()
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory (default ./out)")
    common.add_argument("--emit", default="csv,dot", help="comma-separated outputs: csv,dot,svg (default csv,dot)")
    common.add_argument("--decimal-places", type=int, default=defaults.decimal_places, metavar="N")
    common.add_argument("--hub-fraction", type=float, default=defaults.hub_fraction, metavar="F")
    common.add_argument("--hub-min-degree", type=int, default=defaults.hub_min_degree, metavar="N")

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=FORMATS, default="auto")

    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", parents=[common, fmt], help="analyze one project")
    analyze.add_argument("input", type=Path)
    analyze.set_defaults(run=cmd_analyze)
    corpus = sub.add_parser("corpus", parents=[common], help="analyze every project under a corpus root")
    corpus.add_argument("input", type=Path, metavar="root")
    corpus.add_argument("--jobs", type=int, default=1, metavar="N", help="worker processes (1 runs in-process)")
    corpus.set_defaults(run=cmd_corpus)
    example = sub.add_parser("example", parents=[common], help="analyze the built-in demo system")
    example.set_defaults(run=cmd_example)
    render = sub.add_parser("render", parents=[common, fmt], help="emit only the DOT/SVG drawings")
    render.add_argument("input", type=Path)
    render.set_defaults(run=cmd_render)
    return parser


def _write_files(out_dir: Path, files: dict[str, str], owned: tuple[str, ...]) -> None:
    """Write ``files`` as one batch, then remove each ``owned`` file the batch did not write.

    Every file is written under a temporary name before any is renamed into
    place, so a failed write renames nothing.  When a write or a rename fails,
    the temporary files this call created are removed, no owned file is, and
    the error is re-raised.  An empty batch creates no directory.
    """
    out_dir = os.fspath(out_dir)
    if files:
        os.makedirs(out_dir, exist_ok=True)
    prefix = "" if out_dir == "." else os.path.join(out_dir, "")  # OSError texts name paths as Path joins do
    created: list[str] = []
    try:
        for filename, content in files.items():
            created.append(prefix + filename + ".tmp")
            with open(created[-1], "w", encoding="utf-8", newline="\n") as handle:
                handle.write(content)
        for filename in files:
            os.replace(prefix + filename + ".tmp", prefix + filename)
    except BaseException:
        for tmp in created:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        raise
    for filename in owned:
        if filename not in files:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(prefix + filename)


def _summary_line(graph: ServiceGraph, summary: ProjectSummary, options: RenderOptions) -> str:
    sc_max = report._fmt(summary.sc.max, options.decimal_places) or "-"
    sc_avg = report._fmt(summary.sc.avg, options.decimal_places) or "-"
    return (
        f"{summary.project_name}: services={len(graph.nodes)} edges={len(graph.edges)} "
        f"siy={summary.siy} sc_max={sc_max} sc_avg={sc_avg}"
    )


def _analyze_graph(
    graph: ServiceGraph, name: str, out_dir: Path, emit: tuple[str, ...], options: RenderOptions
) -> tuple[ProjectSummary, str]:
    """Write the outputs named in ``emit`` to ``out_dir``; return the project summary and its summary line.

    Every text is computed before anything is written, and outputs of an
    earlier run that this one did not produce are removed afterwards.
    """
    analysis = metrics.analyze(graph)
    summary = metrics.project_summary(analysis, name)
    files: dict[str, str] = {}
    if "csv" in emit:
        files["service_metrics.csv"] = report.emit_service_metrics_csv(analysis, options)
        for metric, text in report.emit_pair_matrices_csv(analysis, options=options).items():
            files[f"pair_{metric}.csv"] = text
        files["summary.csv"] = report.emit_summary_csv([summary], options)
    if "dot" in emit:
        files["graph.dot"] = report.emit_dot(analysis, options)
    if "svg" in emit:
        files["graph.svg"] = report.emit_svg(analysis, options)
    _write_files(out_dir, files, OUTPUT_NAMES)
    return summary, _summary_line(graph, summary, options)


def cmd_analyze(args: argparse.Namespace, emit: tuple[str, ...], options: RenderOptions) -> int:
    graph, descriptor = load_project(args.input, args.fmt)
    print(_analyze_graph(graph, descriptor.name, args.out, emit, options)[1])
    return EXIT_OK


def cmd_example(args: argparse.Namespace, emit: tuple[str, ...], options: RenderOptions) -> int:
    print(_analyze_graph(sample_graph(), SAMPLE_PROJECT_NAME, args.out, emit, options)[1])
    return EXIT_OK


def cmd_render(args: argparse.Namespace, emit: tuple[str, ...], options: RenderOptions) -> int:
    emit = tuple(target for target in emit if target in ("dot", "svg"))
    if not emit:
        raise ValidationError("render emits only dot/svg; pass --emit dot,svg")
    graph, descriptor = load_project(args.input, args.fmt)
    _analyze_graph(graph, descriptor.name, args.out, emit, options)
    return EXIT_OK


def _process_corpus_project(descriptor_path: Path, out_dir: Path, emit: tuple[str, ...], options: RenderOptions):
    """Analyze one corpus project; returns (dir_name, summary, line, error)."""
    dir_name = descriptor_path.parent.name
    if dir_name in CORPUS_FILES:  # its output directory would take the summary file's path
        return dir_name, None, None, f"project directory name is reserved for the run's own {dir_name}"
    try:
        graph, descriptor = load_project(descriptor_path, "descriptor")
        summary, line = _analyze_graph(graph, descriptor.name, out_dir / dir_name, emit, options)
        return dir_name, summary, line, None
    except (CouplingError, OSError) as exc:
        return dir_name, None, None, str(exc)


def cmd_corpus(args: argparse.Namespace, emit: tuple[str, ...], options: RenderOptions) -> int:
    if args.jobs < 1:
        raise ValidationError("--jobs must be at least 1")
    projects = load_corpus(args.input)
    # The summary pair commits the run: removed before any project runs, written as its last act.
    _write_files(args.out, {}, CORPUS_FILES)
    worker = functools.partial(_process_corpus_project, out_dir=args.out, emit=emit, options=options)
    workers = min(args.jobs, len(projects))
    if workers <= 1:
        results = list(map(worker, projects))
    else:
        # Imported here: only a pool needs it (~20 ms), and `logging` arrives with it through concurrent.futures.
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                # Each task is a round trip to a worker; about eight chunks per worker keep the tail even.
                results = list(pool.map(worker, projects, chunksize=max(1, len(projects) // (workers * 8))))
        except BrokenProcessPool:
            print(f"error: corpus {args.input}: a worker process died before the run finished", file=sys.stderr)
            return EXIT_IO

    analyzed: dict[str, tuple[ProjectSummary, str]] = {}
    failures: list[str] = []
    for dir_name, summary, line, error in results:
        if error is None and summary.project_name in analyzed:
            error = f"duplicate project name {summary.project_name!r}"
        if error is None:
            analyzed[summary.project_name] = summary, line
        else:
            # A name that is not printable could forge a line of its own: it is echoed escaped.
            failures.append(f"{dir_name if dir_name.isprintable() else _shown(dir_name)}: {error}\n")
            _write_files(args.out / dir_name, {}, OUTPUT_NAMES)

    records = [analyzed[name] for name in sorted(analyzed)]
    files = {CORPUS_SUMMARY: report.emit_summary_csv([summary for summary, _ in records], options)}
    if failures:
        files[CORPUS_ERRORS] = "".join(failures)
    _write_files(args.out, files, CORPUS_FILES)

    for _, line in records:
        print(line)
    print(f"{len(records)} project(s) analyzed, {len(failures)} failed")
    return EXIT_PARTIAL if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        options = RenderOptions(args.hub_fraction, args.hub_min_degree, args.decimal_places)
        return args.run(args, _parse_emit(args.emit), options)
    except CouplingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
