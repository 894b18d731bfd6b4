"""Check one run's output directory and stdout against the workload oracle."""

from __future__ import annotations

import csv
import re
import xml.etree.ElementTree as ElementTree
from pathlib import Path

from workloads import Case, Expected

PAIR_FILES = tuple(f"pair_{metric}.csv" for metric in ("degree", "lwf", "gwf", "sc"))
# The workloads keep the CLI's default precision; SC is checked to within it.
SC_TOLERANCE = 0.5 * 10**-2 + 1e-9
_SUMMARY_LINE = re.compile(r"^(\S+): services=(\d+) edges=\d+ siy=(\d+) sc_max=(\S+) sc_avg=(\S+)$")


def expected_files(case: Case) -> set[str]:
    names: set[str] = set()
    if "csv" in case.emit:
        names |= {"service_metrics.csv", "summary.csv", *PAIR_FILES}
    if "dot" in case.emit:
        names.add("graph.dot")
    if "svg" in case.emit:
        names.add("graph.svg")
    if case.corpus:
        return {"corpus_summary.csv"} | {f"{sub}/{name}" for sub, _ in case.projects for name in names}
    return names


def check_run(case: Case, out_dir: Path, code: int, stdout: str) -> list[str]:
    """Every way the run's output disagrees with the oracle; empty when correct."""
    if code != 0:
        return [f"exit code {code}"]
    found = {path.relative_to(out_dir).as_posix() for path in out_dir.rglob("*") if path.is_file()}
    wanted = expected_files(case)
    if found != wanted:
        return [f"file set: missing {sorted(wanted - found)[:3]}, unexpected {sorted(found - wanted)[:3]}"]

    lines = {}
    for line in stdout.splitlines():
        match = _SUMMARY_LINE.match(line)
        if match:
            lines[match.group(1)] = match.groups()[1:]
    problems: list[str] = []
    for sub, expected in case.projects:
        project_dir = out_dir / sub
        printed = lines.get(expected.name)
        if printed is None:
            problems.append(f"{expected.name}: no summary line on stdout")
        else:
            services, siy, sc_max, sc_avg = printed
            if int(services) != len(expected.services):
                problems.append(f"{expected.name}: stdout services={services}, expected {len(expected.services)}")
            problems += _compare(expected, "stdout", siy, sc_max, sc_avg)
        if "csv" in case.emit:
            problems += _check_pair_degree(expected, project_dir / "pair_degree.csv")
            problems += _check_classes(expected, project_dir / "service_metrics.csv")
            problems += _check_summary_rows(_rows(project_dir / "summary.csv"), [expected], "summary.csv")
        if "dot" in case.emit:
            text = (project_dir / "graph.dot").read_text(encoding="utf-8")
            arrows = sum(1 for line in text.splitlines() if " -> " in line)
            if arrows != len(expected.weights):
                problems.append(f"{expected.name}: graph.dot has {arrows} arrows, expected {len(expected.weights)}")
        if "svg" in case.emit:
            try:
                ElementTree.parse(project_dir / "graph.svg")
            except ElementTree.ParseError as exc:
                problems.append(f"{expected.name}: graph.svg is not XML: {exc}")
    if case.corpus:
        rows = _rows(out_dir / "corpus_summary.csv")
        if len(rows) != len(case.projects):
            problems.append(f"corpus_summary.csv has {len(rows)} rows, expected {len(case.projects)}")
        problems += _check_summary_rows(rows, [expected for _, expected in case.projects], "corpus_summary.csv")
    return problems


def _compare(expected: Expected, where: str, siy: str, sc_max: str, sc_avg: str) -> list[str]:
    """SIY exactly, SC max and avg within the printed precision."""
    problems = []
    sc = expected.sc_values()
    if int(siy) != expected.siy:
        problems.append(f"{expected.name}: {where} siy={siy}, expected {expected.siy}")
    for label, text, value in (("sc_max", sc_max, max(sc)), ("sc_avg", sc_avg, sum(sc) / len(sc))):
        if abs(float(text) - value) > SC_TOLERANCE:
            problems.append(f"{expected.name}: {where} {label}={text}, expected {value:.6f}")
    return problems


def _rows(path: Path) -> list[dict[str, str]]:
    with path.open(encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(handle))


def _check_summary_rows(rows, projects: list[Expected], where: str) -> list[str]:
    by_name = {row["project"]: row for row in rows}
    problems = []
    for expected in projects:
        row = by_name.get(expected.name)
        if row is None:
            problems.append(f"{expected.name}: no row in {where}")
            continue
        problems += _compare(expected, where, row["siy"], row["sc_max"], row["sc_avg"])
    return problems


def _check_pair_degree(expected: Expected, path: Path) -> list[str]:
    degree = expected.degree
    with path.open(encoding="utf-8", newline="") as handle:
        rows = list(csv.reader(handle))
    services = list(expected.services)
    if rows[0] != ["service", *services] or [row[0] for row in rows[1:]] != services or any(
        len(row) != len(rows[0]) for row in rows
    ):
        return [f"{expected.name}: pair_degree.csv header, row order or row length differs"]
    for row in rows[1:]:
        for column, cell in zip(services, row[1:]):
            value = degree.get((row[0], column))
            if cell != ("" if value is None else str(value)):
                return [f"{expected.name}: pair_degree.csv[{row[0]},{column}]={cell!r}, expected {value}"]
    return []


def _check_classes(expected: Expected, path: Path) -> list[str]:
    found = {row["service"]: row["classes"] for row in _rows(path)}
    wanted = {service: "" if count is None else str(count) for service, count in expected.classes.items()}
    return [] if found == wanted else [f"{expected.name}: service_metrics.csv classes differ"]
