"""Reports and visualizations for analyzed service graphs.

Every emitter formats an :class:`~mscoupling.metrics.Analysis` and computes
no metric itself.  The text is deterministic: services appear in
lexicographic order, numbers are fixed-point, and equal inputs produce
byte-identical CSV/DOT/SVG output.  Counts (degrees, AIS/ADS/ACS, SIY)
are printed as plain integers; real-valued metrics (LWF/GWF/SC/CBM and
all summary statistics) use ``decimal_places`` digits; undefined is blank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import attrgetter

from .errors import EmptyGraph, ValidationError
from .graph import ServiceId
from .metrics import Analysis, ProjectSummary, ServiceMetrics

PAIR_METRICS = ("degree", "lwf", "gwf", "sc")


class ColorClass(Enum):
    """Visualization class of a service; the value is its fill color."""

    HUB = "green"
    BRIDGE = "yellow"
    HIGH_OUT = "blue"
    REGULAR = "red"


@dataclass(frozen=True)
class RenderOptions:
    """Tunable thresholds and formatting for reports and drawings."""

    hub_fraction: float = 0.6
    hub_min_degree: int = 3
    decimal_places: int = 2

    def __post_init__(self):
        if not 0 < self.hub_fraction <= 1:
            raise ValidationError(f"hub_fraction must be in (0, 1], got {self.hub_fraction!r}")
        if not isinstance(self.hub_min_degree, int) or self.hub_min_degree < 0:
            raise ValidationError(f"hub_min_degree must be a non-negative integer, got {self.hub_min_degree!r}")
        # a double carries at most 17 significant digits
        if not isinstance(self.decimal_places, int) or not 0 <= self.decimal_places <= 17:
            raise ValidationError(f"decimal_places must be an integer in [0, 17], got {self.decimal_places!r}")


def classify(analysis: Analysis, row: ServiceMetrics, options: RenderOptions = RenderOptions()) -> ColorClass:
    """Assign the visualization class of a service from its service-table row.

    Precedence: hub (degree within ``hub_fraction`` of the maximum and
    at least ``hub_min_degree``), then bridge (articulation point of
    the undirected projection), then high-out (strictly more outgoing
    than incoming weight), else regular.
    """
    graph = analysis.graph
    if row.degree >= options.hub_fraction * graph.max_node_degree() and row.degree >= options.hub_min_degree:
        return ColorClass.HUB
    if row.id in graph.articulation_services():
        return ColorClass.BRIDGE
    if row.outdegree > row.indegree:
        return ColorClass.HIGH_OUT
    return ColorClass.REGULAR


def node_size(analysis: Analysis, row: ServiceMetrics) -> float:
    """Node size scaling linearly from 1x (isolated) to 3x (max degree)."""
    max_degree = analysis.graph.max_node_degree()
    return 1 + 2 * (row.degree / max_degree if max_degree else 0.0)


def _fmt(value: float | int | None, decimal_places: int) -> str:
    """The one printing rule: real values fixed-point, counts as is, undefined blank."""
    if isinstance(value, float):
        return f"{value:.{decimal_places}f}"
    return "" if value is None else str(value)


def _dot_id(service: ServiceId) -> str:
    """A DOT quoted string; ids cannot hold ``"``, so only ``\\`` needs escaping."""
    return '"' + service.replace("\\", "\\\\") + '"'


def emit_pair_matrix_csv(analysis: Analysis, metric: str, options: RenderOptions = RenderOptions()) -> str:
    """n x n matrix of one pair metric; diagonal and unconnected cells empty."""
    if metric not in PAIR_METRICS:
        raise ValueError(f"metric must be one of {PAIR_METRICS}, got {metric!r}")
    services = analysis.graph.service_ids
    column = {service: index for index, service in enumerate(services)}
    row_pairs = {s1: tuple(pairs) for s1, pairs in groupby(analysis.pairs, attrgetter("s1"))}
    lines = ["service," + ",".join(services)]
    for row in services:
        cells = [""] * len(services)
        for pair in row_pairs.get(row, ()):
            cells[column[pair.s2]] = _fmt(getattr(pair, metric), options.decimal_places)
        lines.append(row + "," + ",".join(cells))
    return "\n".join(lines) + "\n"


def emit_service_metrics_csv(analysis: Analysis, options: RenderOptions = RenderOptions()) -> str:
    """Per-service degree/size/coupling table, one row per service."""
    places = options.decimal_places
    lines = ["service,in_degree,out_degree,degree,classes,loc,cbm,ais,ads,acs"]
    for row, node in zip(analysis.services, analysis.graph.nodes, strict=True):
        lines.append(
            f"{row.id},{row.indegree},{row.outdegree},{row.degree},{_fmt(row.class_count, places)},"
            f"{_fmt(node.loc, places)},{_fmt(row.cbm, places)},{row.ais},{row.ads},{row.acs}"
        )
    return "\n".join(lines) + "\n"


_SUMMARY_GROUPS = ("degree", "sc", "cbm", "lwf", "gwf")
_SUMMARY_STATS = ("max", "avg", "median", "stdev", "total")
_STAT_HEADERS = ("max", "avg", "med", "stdev", "tot")


def emit_summary_csv(
    summaries: list[ProjectSummary] | tuple[ProjectSummary, ...],
    options: RenderOptions = RenderOptions(),
) -> str:
    """One row per project with max/avg/med/stdev/tot per metric plus SIY."""
    header = [f"{group}_{stat}" for group in _SUMMARY_GROUPS for stat in _STAT_HEADERS]
    lines = [",".join(["project", *header, "siy"])]
    for summary in summaries:
        cells = [summary.project_name]
        for group in _SUMMARY_GROUPS:
            stats = getattr(summary, group)
            cells.extend(_fmt(getattr(stats, stat), options.decimal_places) for stat in _SUMMARY_STATS)
        cells.append(str(summary.siy))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def emit_dot(analysis: Analysis, options: RenderOptions = RenderOptions()) -> str:
    """Colored directed graph in DOT syntax.

    One arrow per direction that has at least one dependency, labeled
    with the pair's structural coupling; pen width grows with it so
    tightly coupled pairs stand out.
    """
    lines = ["digraph coupling {", "    node [style=filled];"]
    for row in analysis.services:
        color = classify(analysis, row, options).value
        size = _fmt(node_size(analysis, row), 2)
        lines.append(f"    {_dot_id(row.id)} [fillcolor={color}, width={size}, height={size}];")
    for arrow in analysis.pairs:
        if arrow.outdegree == 0:
            continue
        label = _fmt(arrow.sc, options.decimal_places)
        penwidth = _fmt(1 + 3 * arrow.sc, 2)
        lines.append(f'    {_dot_id(arrow.s1)} -> {_dot_id(arrow.s2)} [label="{label}", penwidth={penwidth}];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# SVG layout constants: nodes sit on a fixed circle, sized in pixels.
_SVG_SIZE = 520
_SVG_RADIUS = 180
_SVG_NODE_RADIUS = 18.0
_SVG_EDGE_GAP = 6.0


def _svg_positions(count: int) -> list[tuple[float, float]]:
    center = _SVG_SIZE / 2
    if count == 1:
        return [(center, center)]
    angles = (-math.pi / 2 + 2 * math.pi * index / count for index in range(count))
    return [(center + _SVG_RADIUS * math.cos(angle), center + _SVG_RADIUS * math.sin(angle)) for angle in angles]


def emit_svg(analysis: Analysis, options: RenderOptions = RenderOptions()) -> str:
    """Self-contained SVG drawing of the coupling graph.

    Services are placed clockwise on a circle in lexicographic order,
    sized by degree and filled with their classification color; each
    directed dependency is a straight arrow labeled with the pair's
    structural coupling.
    """
    if not analysis.graph.nodes:
        raise EmptyGraph("cannot render an empty graph")
    services = analysis.graph.service_ids
    position = dict(zip(services, _svg_positions(len(services))))
    radius = {row.id: _SVG_NODE_RADIUS * node_size(analysis, row) for row in analysis.services}

    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_SIZE}" height="{_SVG_SIZE}" '
        f'viewBox="0 0 {_SVG_SIZE} {_SVG_SIZE}" font-family="sans-serif">',
        '  <defs>',
        '    <marker id="arrow" viewBox="0 0 10 10" refX="9" refY="5" '
        'markerWidth="7" markerHeight="7" orient="auto">',
        '      <path d="M 0 0 L 10 5 L 0 10 z" fill="#333333"/>',
        '    </marker>',
        '  </defs>',
        f'  <rect width="{_SVG_SIZE}" height="{_SVG_SIZE}" fill="white"/>',
    ]

    for arrow in analysis.pairs:
        if arrow.outdegree == 0:
            continue
        s1, s2 = arrow.s1, arrow.s2
        (x1, y1), (x2, y2) = position[s1], position[s2]
        length = math.hypot(x2 - x1, y2 - y1)
        if length == 0:
            continue
        ux, uy = (x2 - x1) / length, (y2 - y1) / length
        # shift each direction to its own side so opposite arrows don't overlap
        px, py = -uy * _SVG_EDGE_GAP, ux * _SVG_EDGE_GAP
        start = (x1 + ux * radius[s1] + px, y1 + uy * radius[s1] + py)
        end = (x2 - ux * (radius[s2] + 4) + px, y2 - uy * (radius[s2] + 4) + py)
        label = _fmt(arrow.sc, options.decimal_places)
        mid = ((start[0] + end[0]) / 2 + px, (start[1] + end[1]) / 2 + py)
        lines.append(
            f'  <line x1="{start[0]:.1f}" y1="{start[1]:.1f}" x2="{end[0]:.1f}" y2="{end[1]:.1f}" '
            'stroke="#333333" stroke-width="1.5" marker-end="url(#arrow)"/>'
        )
        lines.append(
            f'  <text x="{mid[0]:.1f}" y="{mid[1]:.1f}" text-anchor="middle" font-size="11">{label}</text>'
        )

    for row in analysis.services:
        x, y = position[row.id]
        color = classify(analysis, row, options).value
        text = row.id.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        lines.append(
            f'  <circle cx="{x:.1f}" cy="{y:.1f}" r="{radius[row.id]:.1f}" '
            f'fill="{color}" stroke="#333333"/>'
        )
        lines.append(
            f'  <text x="{x:.1f}" y="{y:.1f}" dy="0.35em" text-anchor="middle" font-size="12">{text}</text>'
        )

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
