"""Build service graphs from project files.

Three input formats are supported:

* the canonical ``project.json`` descriptor (services with optional
  class counts plus an explicit edge list),
* a bare edge CSV (``source,target[,weight[,kind]]``) whose services
  are auto-declared from the endpoints,
* a docker-compose document, where every ``depends_on`` / ``links``
  entry becomes a weight-1 dependency record.

``load_corpus`` discovers one descriptor per immediate subdirectory of
a corpus root so whole project collections can be analyzed in a batch.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import yaml

from .errors import CouplingError, ParseError, ValidationError, _shown
from .graph import DependencyEdge, EdgeKind, ServiceGraph, ServiceNode, _check_id

logger = logging.getLogger(__name__)

DESCRIPTOR_FILENAME = "project.json"
SOURCE_SUFFIX = ".java"

FORMATS = ("auto", "descriptor", "edges", "compose")
_SUFFIX_FORMATS = {".json": "descriptor", ".csv": "edges", ".yml": "compose", ".yaml": "compose"}


class _TextLoader(yaml.SafeLoader):
    """Plain scalars stay text (``no``, ``010``, ``1.10``); only ``<<`` and the empty scalar (null) keep a type."""

    yaml_implicit_resolvers = {
        first: [(tag, regexp) for tag, regexp in resolvers if tag == "tag:yaml.org,2002:merge" or first == ""]
        for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
    }


@dataclass(frozen=True)
class ProjectDescriptor:
    """A parsed project: its services and its raw, unmerged dependency records.

    ``source_dirs`` maps a service id to a directory, relative to the
    descriptor, whose source files give the class count when the
    service declares none.
    """

    name: str
    services: tuple[ServiceNode, ...] = ()
    edges: tuple[DependencyEdge, ...] = ()
    source_dirs: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        _check_id(self.name, "project name")


def parse_project_descriptor(text: str) -> ProjectDescriptor:
    """Parse the canonical JSON descriptor format into records.

    Unknown fields are ignored with a warning; a malformed record raises
    :class:`ValidationError` naming its position.  The graph rules
    (unique ids, declared endpoints) are checked by :class:`ServiceGraph`.
    """
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:  # e.g. an integer longer than the int-to-str digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ParseError("descriptor must be a JSON object")

    unknown = sorted(set(document) - {"name", "services", "edges"})
    if unknown:
        logger.warning("descriptor: ignoring unknown fields %s", _shown(", ".join(unknown)))

    services: list[ServiceNode] = []
    source_dirs: dict[str, str] = {}
    raw_services = document.get("services", [])
    if not isinstance(raw_services, list):
        raise ValidationError("'services' must be an array")
    for position, raw in enumerate(raw_services):
        if not isinstance(raw, dict):
            raise ValidationError(f"service #{position} must be an object")
        unknown = sorted(set(raw) - {"id", "classes", "loc", "source_dir"})
        if unknown:
            logger.warning("service #%d: ignoring unknown fields %s", position, _shown(", ".join(unknown)))
        try:
            node = ServiceNode(raw.get("id"), raw.get("classes"), raw.get("loc"))
        except CouplingError as exc:
            raise ValidationError(f"service #{position}: {exc}") from None
        source_dir = raw.get("source_dir")
        if source_dir is not None:
            if not isinstance(source_dir, str):
                raise ValidationError(f"service #{position}: source_dir must be a string")
            source_dirs[node.id] = source_dir
        services.append(node)

    edges: list[DependencyEdge] = []
    raw_edges = document.get("edges", [])
    if not isinstance(raw_edges, list):
        raise ValidationError("'edges' must be an array")
    for position, raw in enumerate(raw_edges):
        if not isinstance(raw, dict):
            raise ValidationError(f"edge #{position} must be an object")
        unknown = sorted(set(raw) - {"source", "target", "weight", "kind"})
        if unknown:
            logger.warning("edge #%d: ignoring unknown fields %s", position, _shown(", ".join(unknown)))
        try:
            edge = DependencyEdge(
                raw.get("source"), raw.get("target"), raw.get("weight", 1), raw.get("kind", EdgeKind.CALL)
            )
        except CouplingError as exc:
            raise ValidationError(f"edge #{position}: {exc}") from None
        edges.append(edge)

    return ProjectDescriptor(document.get("name"), tuple(services), tuple(edges), source_dirs)


def parse_edge_csv(text: str) -> tuple[DependencyEdge, ...]:
    """Parse an edge list CSV with header ``source,target[,weight[,kind]]``.

    Blank lines are skipped; empty optional cells fall back to the
    defaults (weight 1, kind call).
    """
    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    edges: list[DependencyEdge] = []
    for row in _csv_records(reader):
        if not row or all(not cell.strip() for cell in row):
            continue
        cells = [cell.strip() for cell in row]
        if header is None:
            header = [cell.lower() for cell in cells]
            expected = ["source", "target", "weight", "kind"][: len(header)]
            if len(header) < 2 or len(header) > 4 or header != expected:
                raise ParseError(
                    f"header must be source,target[,weight[,kind]], got {_shown(','.join(cells))}",
                    line=reader.line_num,
                )
            continue
        if len(cells) != len(header):
            raise ParseError(
                f"expected {len(header)} columns, got {len(cells)}", line=reader.line_num
            )
        weight = 1
        if len(cells) >= 3 and cells[2]:
            try:
                weight = int(cells[2])
            except ValueError:
                raise ParseError(f"weight {_shown(cells[2])} is not an integer", line=reader.line_num) from None
        kind = cells[3] if len(cells) >= 4 and cells[3] else EdgeKind.CALL
        try:
            edges.append(DependencyEdge(cells[0], cells[1], weight, kind))
        except CouplingError as exc:
            raise ParseError(str(exc), line=reader.line_num) from None
    if header is None:
        raise ParseError("missing header row")
    return tuple(edges)


def _csv_records(reader):
    """The rows of ``reader``; a malformed record is a ParseError at the line it starts on."""
    start = 1
    try:
        for row in reader:
            yield row
            start = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(f"malformed CSV record: {exc}", line=start) from None


def _compose_entry(service: str, entry: object) -> str:
    """A depends_on/links entry as a service name; empty and nested entries are never printed."""
    if entry is None or isinstance(entry, (dict, list)):
        raise ParseError(f"service {_shown(service)}: depends_on and links entries must be service names")
    return str(entry)


def parse_compose(text: str, name: str = "compose") -> ProjectDescriptor:
    """Extract a service topology from a docker-compose document.

    Every ``depends_on`` (list or mapping form) and ``links`` entry
    becomes one weight-1 dependency record of kind ``compose``; service
    names stay text and self-references are dropped with a warning.
    """
    try:
        document = yaml.load(text, Loader=_TextLoader)
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        raise ParseError(
            f"invalid YAML: {getattr(exc, 'problem', exc)}",
            line=mark.line + 1 if mark is not None else None,
        ) from None
    if document is None:
        document = {}
    if not isinstance(document, dict):
        raise ParseError("compose document must be a mapping")
    raw_services = document.get("services", {})
    if not isinstance(raw_services, dict):
        raise ParseError("'services' must be a mapping")

    services: list[ServiceNode] = []
    edges: list[DependencyEdge] = []
    for position, (service, config) in enumerate(raw_services.items()):
        if service is None:
            raise ParseError(f"service #{position}: service names must not be empty")
        service = str(service)
        if config is None:
            config = {}
        if not isinstance(config, dict):
            raise ParseError(f"service {_shown(service)} entry must be a mapping")
        depends_on = config.get("depends_on", [])
        if not isinstance(depends_on, (dict, list)):
            raise ParseError(f"service {_shown(service)}: depends_on must be a list or mapping")
        links = config.get("links", [])
        if not isinstance(links, list):
            raise ParseError(f"service {_shown(service)}: links must be a list")
        targets = [_compose_entry(service, dep) for dep in depends_on]
        # links entries may carry an alias suffix: "db:database"
        targets.extend(_compose_entry(service, link).split(":", 1)[0] for link in links)
        try:
            services.append(ServiceNode(service))
            for target in targets:
                if target == service:
                    logger.warning("compose: dropping self-dependency of %s", _shown(service))
                    continue
                edges.append(DependencyEdge(service, target, 1, EdgeKind.COMPOSE))
        except CouplingError as exc:
            raise ValidationError(f"service #{position}: {exc}") from None

    return ProjectDescriptor(name, tuple(services), tuple(edges))


def count_source_units(directory: Path) -> int:
    """Count the ``.java`` files under ``directory``, recursively.

    Symlinked files count, symlinked directories are not entered, and
    unreadable subdirectories are skipped (as ``Path.rglob`` does).
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise FileNotFoundError(f"not a directory: {directory}")
    count, pending = 0, [directory]
    while pending:
        try:
            with os.scandir(pending.pop()) as scan:
                entries = list(scan)
        except PermissionError:
            continue
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                pending.append(entry.path)
            # Path.suffix: the name must hold more than the suffix (".java" alone is a hidden file)
            elif entry.name != SOURCE_SUFFIX and entry.name.endswith(SOURCE_SUFFIX):
                try:
                    count += entry.is_file()
                except OSError:  # a symlink loop, which Path.is_file also reads as "not a file"
                    pass
    return count


def build_graph(descriptor: ProjectDescriptor, base_dir: Path | None = None) -> ServiceGraph:
    """Materialize a descriptor into an immutable graph.

    When ``base_dir`` is given, a service without a class count but with
    a ``source_dirs`` entry gets the number of source files under
    ``base_dir / source_dir`` as its class count.
    """
    nodes = descriptor.services
    if base_dir is not None:
        nodes = tuple(
            replace(node, class_count=count_source_units(Path(base_dir) / descriptor.source_dirs[node.id]))
            if node.class_count is None and node.id in descriptor.source_dirs
            else node
            for node in nodes
        )
    return ServiceGraph.build(nodes, descriptor.edges)


def load_project(path: Path, fmt: str = "auto") -> tuple[ServiceGraph, ProjectDescriptor]:
    """Load one project from a descriptor, edge CSV or compose file.

    ``fmt`` is one of ``auto | descriptor | edges | compose``; in auto
    mode the format is inferred from the file extension.  The file must
    be UTF-8, optionally with a byte order mark.  Edge-CSV services are
    auto-declared from the endpoints (without class counts); edge-CSV
    and compose projects take the file stem as their name.
    """
    path = Path(path)
    if fmt not in FORMATS:
        raise ValidationError(f"unknown input format {_shown(fmt)}")
    if not path.is_file():
        raise FileNotFoundError(f"no such file: {path}")
    if fmt == "auto":
        fmt = _SUFFIX_FORMATS.get(path.suffix.lower())
        if fmt is None:
            raise ValidationError(f"cannot infer input format from {_shown(path.name)}; pass one explicitly")
    try:
        text = path.read_bytes().decode("utf-8-sig")
        if fmt == "descriptor":
            descriptor = parse_project_descriptor(text)
        elif fmt == "edges":
            edges = parse_edge_csv(text)
            endpoints = sorted({end for edge in edges for end in (edge.source, edge.target)})
            descriptor = ProjectDescriptor(path.stem, tuple(ServiceNode(service) for service in endpoints), edges)
        else:
            descriptor = parse_compose(text, name=path.stem)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise ParseError("input is nested too deeply") from None
    return build_graph(descriptor, base_dir=path.parent), descriptor


def load_corpus(root: Path) -> tuple[Path, ...]:
    """Sorted descriptor paths, one per immediate subdirectory holding one.

    Subdirectories without a ``project.json`` are skipped with a
    warning; an empty corpus is a valid result.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"no such corpus root: {root}")
    projects: list[Path] = []
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if not entry.is_dir():
            continue
        descriptor_path = entry / DESCRIPTOR_FILENAME
        if descriptor_path.is_file():
            projects.append(descriptor_path)
        else:
            logger.warning("corpus: skipping %s (no %s)", entry.name, DESCRIPTOR_FILENAME)
    return tuple(projects)
