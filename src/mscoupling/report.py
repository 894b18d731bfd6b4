"""Reports and visualizations for analyzed service graphs.

Every emitter formats an :class:`~mscoupling.metrics.Analysis` and computes
no metric itself.  The text is deterministic: services appear in
lexicographic order, numbers are fixed-point, and equal inputs produce
byte-identical CSV/DOT/SVG output.  Counts (degrees, AIS/ADS/ACS, SIY)
are printed as plain integers; real-valued metrics (LWF/GWF/SC/CBM and
all summary statistics) use ``decimal_places`` digits; undefined is blank.
Pair rows of one class share one ``PairMetrics``, so each emitter call
formats a pair value once per class, keyed by that object's ``id``.  The four
matrices share one walk over the pairs and join each matrix's text once.
"""

from __future__ import annotations

import math
from enum import Enum

from .errors import EmptyGraph, ValidationError, _shown
from .graph import ServiceId, _is_int, _Record
from .metrics import Analysis, ProjectSummary, ServiceMetrics

PAIR_METRICS = ("degree", "lwf", "gwf", "sc")


class ColorClass(Enum):
    """Visualization class of a service; the value is its fill color."""

    HUB = "green"
    BRIDGE = "yellow"
    HIGH_OUT = "blue"
    REGULAR = "red"


class RenderOptions(_Record):
    """Tunable thresholds and formatting for reports and drawings."""

    def __init__(self, hub_fraction: float = 0.6, hub_min_degree: int = 3, decimal_places: int = 2):
        if isinstance(hub_fraction, bool) or not isinstance(hub_fraction, (int, float)) or not 0 < hub_fraction <= 1:
            raise ValidationError(f"hub_fraction must be a number in (0, 1], got {_shown(hub_fraction)}")
        if not _is_int(hub_min_degree) or hub_min_degree < 0:
            raise ValidationError(f"hub_min_degree must be a non-negative integer, got {_shown(hub_min_degree)}")
        # a double carries at most 17 significant digits
        if not _is_int(decimal_places) or not 0 <= decimal_places <= 17:
            raise ValidationError(f"decimal_places must be an integer in [0, 17], got {_shown(decimal_places)}")
        vars(self).update(hub_fraction=hub_fraction, hub_min_degree=hub_min_degree, decimal_places=decimal_places)


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


def emit_pair_matrices_csv(
    analysis: Analysis, metrics: tuple[str, ...] = PAIR_METRICS, options: RenderOptions = RenderOptions()
) -> dict[str, str]:
    """Each metric's n x n matrix from one walk; ValueError on an unknown metric or if pairs leave (s1, s2) order."""
    if unknown := [metric for metric in metrics if metric not in PAIR_METRICS]:
        raise ValueError(f"metric must be one of {PAIR_METRICS}, got {unknown[0]!r}")
    services = analysis.graph.service_ids
    column = {service: index for index, service in enumerate(services, 1)}  # its cell follows comma `index`
    commas = "," * len(services)
    pairs = iter(analysis.pairs)
    s1, s2, pair = next(pairs, (None, None, None))
    # The walk's parts: the text from one connected cell to the next, with each cell's PairMetrics between.
    parts, text = [], "service," + ",".join(services)
    for row in services:
        text += "\n" + row  # in place: `text + ...` would copy every edgeless row so far again
        done = 0
        while s1 == row and (col := column.get(s2, 0)) > done:
            parts += text + commas[: col - done], pair
            text, done = "", col
            s1, s2, pair = next(pairs, (None, None, None))
        text += commas[done:]
    if s1 is not None:
        raise ValueError(f"pair ({s1!r}, {s2!r}) is not in (s1, s2) order or names no service")
    parts.append(text + "\n")
    keys, matrices = list(map(id, parts[1::2])), {}
    classes = dict(zip(keys, parts[1::2]))
    for metric in metrics:
        cell = {key: _fmt(getattr(pair, metric), options.decimal_places) for key, pair in classes.items()}
        parts[1::2] = map(cell.__getitem__, keys)
        matrices[metric] = "".join(parts)
    return matrices


def emit_pair_matrix_csv(analysis: Analysis, metric: str, options: RenderOptions = RenderOptions()) -> str:
    """n x n matrix of one pair metric, blank where unconnected; ValueError if pairs leave (s1, s2) order."""
    return emit_pair_matrices_csv(analysis, (metric,), options)[metric]


def emit_service_metrics_csv(analysis: Analysis, options: RenderOptions = RenderOptions()) -> str:
    """Per-service degree/size/coupling table, one row per service."""
    places = options.decimal_places
    lines = ["service,in_degree,out_degree,degree,classes,loc,cbm,ais,ads,acs"]
    for row, node in zip(analysis.services, analysis.graph.nodes, strict=True):
        lines.append(
            f"{row.id},{row.indegree},{row.outdegree},{row.degree},{_fmt(row.class_count, places)},"
            f"{_fmt(node.loc, places)},{_fmt(row.cbm, places)},{row.ais},{row.ads},{row.acs}"
        )
    lines.append("")
    return "\n".join(lines)


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
    lines.append("")
    return "\n".join(lines)


def emit_dot(analysis: Analysis, options: RenderOptions = RenderOptions()) -> str:
    """Colored directed graph in DOT syntax.

    One arrow per direction that has at least one dependency, labeled
    with the pair's structural coupling; pen width grows with it so
    tightly coupled pairs stand out.
    """
    lines = ["digraph coupling {", "    node [style=filled];"]
    quoted = {row.id: _dot_id(row.id) for row in analysis.services}
    for row in analysis.services:
        color = classify(analysis, row, options).value
        size = _fmt(node_size(analysis, row), 2)
        lines.append(f"    {quoted[row.id]} [fillcolor={color}, width={size}, height={size}];")
    attributes: dict[int, str] = {}
    for s1, s2, pair in analysis.pairs:
        if pair.outdegree == 0:
            continue
        if (text := attributes.get(id(pair))) is None:
            label, penwidth = _fmt(pair.sc, options.decimal_places), _fmt(1 + 3 * pair.sc, 2)
            text = attributes[id(pair)] = f'label="{label}", penwidth={penwidth}'
        lines.append(f"    {quoted[s1]} -> {quoted[s2]} [{text}];")
    lines += "}", ""
    return "\n".join(lines)


# SVG layout constants: nodes sit on a fixed circle, sized in pixels.
_SVG_SIZE = 520
_SVG_RADIUS = 180
_SVG_NODE_RADIUS = 18.0
_SVG_EDGE_GAP = 6.0
_SVG_ARROW = (
    '  <line x1="%.1f" y1="%.1f" x2="%.1f" y2="%.1f" stroke="#333333" stroke-width="1.5" marker-end="url(#arrow)"/>\n'
    '  <text x="%.1f" y="%.1f" text-anchor="middle" font-size="11">%s</text>'
)


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

    labels: dict[int, str] = {}
    hypot = math.hypot
    for s1, s2, pair in analysis.pairs:
        if pair.outdegree == 0:
            continue
        (x1, y1), (x2, y2) = position[s1], position[s2]
        dx, dy = x2 - x1, y2 - y1
        if (length := hypot(dx, dy)) == 0:
            continue
        ux, uy = dx / length, dy / length
        # shift each direction to its own side so opposite arrows don't overlap
        px, py = -uy * _SVG_EDGE_GAP, ux * _SVG_EDGE_GAP
        sx, sy = x1 + ux * radius[s1] + px, y1 + uy * radius[s1] + py
        ex, ey = x2 - ux * (radius[s2] + 4) + px, y2 - uy * (radius[s2] + 4) + py
        if (label := labels.get(id(pair))) is None:
            label = labels[id(pair)] = _fmt(pair.sc, options.decimal_places)
        lines.append(_SVG_ARROW % (sx, sy, ex, ey, (sx + ex) / 2 + px, (sy + ey) / 2 + py, label))

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

    lines += "</svg>", ""
    return "\n".join(lines)
