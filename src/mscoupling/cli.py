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
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

from . import metrics, report
from .errors import CouplingError, ValidationError
from .graph import ServiceGraph
from .ingest import FORMATS, load_corpus, load_project
from .metrics import Analysis, ProjectSummary
from .report import RenderOptions
from .sample import SAMPLE_PROJECT_NAME, sample_graph

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_IO = 2
EXIT_PARTIAL = 3

EMIT_CHOICES = ("csv", "dot", "svg")
CORPUS_SUMMARY = "corpus_summary.csv"
CORPUS_ERRORS = "corpus_errors.txt"
# Every file a project analysis can write; a run removes the ones it did not write.
OUTPUT_NAMES = (
    "service_metrics.csv",
    *(f"pair_{metric}.csv" for metric in report.PAIR_METRICS),
    "summary.csv",
    "graph.dot",
    "graph.svg",
)


@dataclass(frozen=True)
class CliConfig:
    input_path: Path | None
    out_dir: Path
    emit: tuple[str, ...]
    fmt: str
    options: RenderOptions
    jobs: int = 1


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
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path, default=Path("out"), help="output directory (default ./out)")
    common.add_argument("--emit", default="csv,dot", help="comma-separated outputs: csv,dot,svg (default csv,dot)")
    common.add_argument("--decimal-places", type=int, default=2, metavar="N")
    common.add_argument("--hub-fraction", type=float, default=0.6, metavar="F")
    common.add_argument("--hub-min-degree", type=int, default=3, metavar="N")
    common.set_defaults(input=None, fmt="auto", jobs=1)

    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", dest="fmt", choices=FORMATS, default="auto")

    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", parents=[common, fmt], help="analyze one project")
    analyze.add_argument("input", type=Path)
    analyze.set_defaults(run=cmd_analyze)
    corpus = sub.add_parser("corpus", parents=[common], help="analyze every project under a corpus root")
    corpus.add_argument("input", type=Path, metavar="root")
    corpus.add_argument("--jobs", type=int, default=1, metavar="N", help="projects to process in parallel")
    corpus.set_defaults(run=cmd_corpus)
    example = sub.add_parser("example", parents=[common], help="analyze the built-in demo system")
    example.set_defaults(run=cmd_example)
    render = sub.add_parser("render", parents=[common, fmt], help="emit only the DOT/SVG drawings")
    render.add_argument("input", type=Path)
    render.set_defaults(run=cmd_render)
    return parser


def _config_from_args(args: argparse.Namespace) -> CliConfig:
    options = RenderOptions(
        hub_fraction=args.hub_fraction,
        hub_min_degree=args.hub_min_degree,
        decimal_places=args.decimal_places,
    )
    if args.jobs < 1:
        raise ValidationError("--jobs must be at least 1")
    return CliConfig(
        input_path=args.input,
        out_dir=args.out,
        emit=_parse_emit(args.emit),
        fmt=args.fmt,
        options=options,
        jobs=args.jobs,
    )


def _write_files(out_dir: Path, files: dict[str, str]) -> None:
    """Write every file under a temporary name, then rename each into place.

    A failed write renames nothing.  When a write or a rename fails, the
    temporary files this call created are removed and the error re-raised.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    created: list[Path] = []
    try:
        for filename, content in files.items():
            created.append(out_dir / (filename + ".tmp"))
            created[-1].write_text(content, encoding="utf-8", newline="\n")
        for filename in files:
            os.replace(out_dir / (filename + ".tmp"), out_dir / filename)
    except BaseException:
        for tmp in created:
            with contextlib.suppress(OSError):
                tmp.unlink(missing_ok=True)
        raise


def _summary_line(graph: ServiceGraph, summary: ProjectSummary, options: RenderOptions) -> str:
    sc_max = report._fmt(summary.sc.max, options.decimal_places) or "-"
    sc_avg = report._fmt(summary.sc.avg, options.decimal_places) or "-"
    return (
        f"{summary.project_name}: services={len(graph.nodes)} edges={len(graph.edges)} "
        f"siy={summary.siy} sc_max={sc_max} sc_avg={sc_avg}"
    )


def _write_outputs(analysis: Analysis, config: CliConfig, summary: ProjectSummary | None = None) -> None:
    """Write the outputs named in ``config.emit`` to ``config.out_dir``; csv needs ``summary``.

    Every text is computed before anything is written, and outputs of an
    earlier run that this one did not produce are removed afterwards.
    """
    files: dict[str, str] = {}
    if "csv" in config.emit:
        files["service_metrics.csv"] = report.emit_service_metrics_csv(analysis, config.options)
        for metric in report.PAIR_METRICS:
            files[f"pair_{metric}.csv"] = report.emit_pair_matrix_csv(analysis, metric, config.options)
        files["summary.csv"] = report.emit_summary_csv([summary], config.options)
    if "dot" in config.emit:
        files["graph.dot"] = report.emit_dot(analysis, config.options)
    if "svg" in config.emit:
        files["graph.svg"] = report.emit_svg(analysis, config.options)
    _write_files(config.out_dir, files)
    _remove_outputs(config.out_dir, keep=tuple(files))


def _remove_outputs(out_dir: Path, keep: tuple[str, ...] = ()) -> None:
    """Remove every analysis output file in ``out_dir`` not named in ``keep``."""
    for filename in OUTPUT_NAMES:
        if filename not in keep:
            (out_dir / filename).unlink(missing_ok=True)


def _analyze_graph(graph: ServiceGraph, name: str, config: CliConfig) -> tuple[ProjectSummary, str]:
    """Write the full analysis; return the project summary and its summary line."""
    analysis = metrics.analyze(graph)
    summary = metrics.project_summary(analysis, name)
    _write_outputs(analysis, config, summary)
    return summary, _summary_line(graph, summary, config.options)


def cmd_analyze(config: CliConfig) -> int:
    graph, descriptor = load_project(config.input_path, config.fmt)
    print(_analyze_graph(graph, descriptor.name, config)[1])
    return EXIT_OK


def cmd_example(config: CliConfig) -> int:
    print(_analyze_graph(sample_graph(), SAMPLE_PROJECT_NAME, config)[1])
    return EXIT_OK


def cmd_render(config: CliConfig) -> int:
    graph, _ = load_project(config.input_path, config.fmt)
    emit = tuple(target for target in config.emit if target in ("dot", "svg"))
    if not emit:
        raise ValidationError("render emits only dot/svg; pass --emit dot,svg")
    _write_outputs(metrics.analyze(graph), replace(config, emit=emit))
    return EXIT_OK


def _process_corpus_project(descriptor_path: Path, config: CliConfig):
    """Analyze one corpus project; returns (dir_name, summary, line, error)."""
    dir_name = descriptor_path.parent.name
    try:
        graph, descriptor = load_project(descriptor_path, "descriptor")
        summary, line = _analyze_graph(graph, descriptor.name, replace(config, out_dir=config.out_dir / dir_name))
        return dir_name, summary, line, None
    except (CouplingError, OSError) as exc:
        return dir_name, None, None, str(exc)


def cmd_corpus(config: CliConfig) -> int:
    projects = load_corpus(config.input_path)
    with ThreadPoolExecutor(max_workers=config.jobs) as pool:
        results = list(pool.map(lambda path: _process_corpus_project(path, config), projects))

    failures: list[tuple[str, str]] = []
    summaries: list[ProjectSummary] = []
    lines: list[str] = []
    seen_names: set[str] = set()
    for dir_name, summary, line, error in results:
        if error is None and summary.project_name in seen_names:
            error = f"duplicate project name {summary.project_name!r}"
        if error is not None:
            failures.append((dir_name, error))
            _remove_outputs(config.out_dir / dir_name)
            continue
        seen_names.add(summary.project_name)
        summaries.append(summary)
        lines.append(line)

    summaries.sort(key=lambda s: s.project_name)
    _write_files(config.out_dir, {CORPUS_SUMMARY: report.emit_summary_csv(summaries, config.options)})
    if failures:
        _write_files(config.out_dir, {CORPUS_ERRORS: "".join(f"{dir_name}: {error}\n" for dir_name, error in failures)})
    else:
        (config.out_dir / CORPUS_ERRORS).unlink(missing_ok=True)

    for line in sorted(lines):
        print(line)
    print(f"{len(summaries)} project(s) analyzed, {len(failures)} failed")
    return EXIT_PARTIAL if failures else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_INPUT
    try:
        return args.run(_config_from_args(args))
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
