"""Build service graphs from project files.

Three input formats are supported:

* the canonical ``project.json`` descriptor (services with optional
  class counts plus an explicit edge list),
* a bare edge CSV (``source,target[,weight[,kind]]``) whose services
  are auto-declared from the endpoints,
* a docker-compose document, read with PyYAML (the optional ``compose``
  extra), where each ``depends_on`` / ``links`` entry is a weight-1 record.

``load_corpus`` discovers one descriptor per immediate subdirectory of
a corpus root so whole project collections can be analyzed in a batch.
"""

import json
import os
from functools import cache
from itertools import repeat
from pathlib import Path

from .errors import CouplingError, ParseError, ValidationError, _shown
from .graph import DependencyEdge, EdgeKind, ServiceGraph, ServiceNode, _id_fault, _Record, _records

DESCRIPTOR_FILENAME = "project.json"
SOURCE_SUFFIX = ".java"

FORMATS = ("auto", "descriptor", "edges", "compose")
_SUFFIX_FORMATS = {".json": "descriptor", ".csv": "edges", ".yml": "compose", ".yaml": "compose"}


def _warn(message: str, *args: object) -> None:
    """Log a warning on the ``mscoupling.ingest`` logger; ``logging`` is imported with the first one."""
    import logging

    logging.getLogger(__name__).warning(message, *args, stacklevel=2)


class ProjectDescriptor(_Record):
    """A parsed project: its services and its raw, unmerged dependency records.

    ``source_dirs`` maps a service id to a directory, relative to the
    descriptor, whose source files give the class count when the
    service declares none; it defaults to a new empty dict.
    """

    def __init__(
        self, name: str, services: tuple[ServiceNode, ...] = (), edges: tuple[DependencyEdge, ...] = (),
        source_dirs: dict[str, str] | None = None,
    ):
        if error := _id_fault(name, "project name"):
            raise error
        self._set(name, services, edges, {} if source_dirs is None else source_dirs)


# The JSON key of each record field, in field order; a service's source_dir is the descriptor's own field.
_SERVICE_KEYS = {"id": "id", "class_count": "classes", "loc": "loc", "source_dir": "source_dir"}
_EDGE_KEYS = {"source": "source", "target": "target", "weight": "weight", "kind": "kind"}
_DEFAULTS = {"weight": 1, "kind": "call"}
_SOURCE_DIR_RULE = (
    ("source_dir",),
    lambda dirs: set(map(type, dirs)) <= {str, type(None)},
    lambda path: None if path is None or isinstance(path, str) else ValidationError("source_dir must be a string"),
)


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A decoded JSON object; a key given twice is a ParseError, where ``json`` alone keeps the last value."""
    if len(document := dict(pairs)) < len(pairs):
        seen = set()
        raise ParseError(f"duplicate key {_shown(next(key for key, _ in pairs if key in seen or seen.add(key)))}")
    return document


def parse_project_descriptor(text: str) -> ProjectDescriptor:
    """Parse the canonical JSON descriptor format into records.

    Each array is checked as columns through the record rules; the first
    record, services before edges, that breaks one or is not an object
    raises :class:`ValidationError` naming its position (``service #i``).
    Unknown fields are ignored with a warning, up to that record.  The graph
    rules (unique ids, declared endpoints) are checked by :class:`ServiceGraph`.
    """
    try:
        document = json.loads(text, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", line=exc.lineno) from None
    except ValueError as exc:  # e.g. an integer longer than the int-to-str digit limit
        raise ParseError(f"invalid JSON: {exc}") from None
    if not isinstance(document, dict):
        raise ParseError("descriptor must be a JSON object")

    unknown = sorted(set(document) - {"name", "services", "edges"})
    if unknown:
        _warn("descriptor: ignoring unknown fields %s", _shown(", ".join(unknown)))
    services, columns = _array_records(document, "services", "service", ServiceNode, _SERVICE_KEYS, (_SOURCE_DIR_RULE,))
    edges, _ = _array_records(document, "edges", "edge", DependencyEdge, _EDGE_KEYS)
    source_dirs = {service: path for service, path in zip(columns["id"], columns["source_dir"]) if path is not None}
    return ProjectDescriptor(document.get("name"), services, edges, source_dirs)


def _array_records(document: dict, array: str, label: str, cls: type, keys: dict, rules: tuple = ()) -> tuple:
    """The records of the array ``document[array]`` and their field columns; an error names ``label #i``."""
    objects = raw = document.get(array, [])
    if type(raw) is not list:
        raise ValidationError(f"'{array}' must be an array")
    if not set(map(type, raw)) <= {dict}:
        objects = raw[: next(i for i, item in enumerate(raw) if type(item) is not dict)]
    columns = {name: list(map(dict.get, objects, repeat(k), repeat(_DEFAULTS.get(name)))) for name, k in keys.items()}
    failure = None
    try:
        records = _records(cls, columns, rules)
    except CouplingError as exc:
        failure, objects = exc, objects[: exc.row + 1]
    known = set(keys.values())
    if not all(map(known.issuperset, objects)):
        for position, item in enumerate(objects):
            if unknown := sorted(item.keys() - known):
                _warn("%s #%d: ignoring unknown fields %s", label, position, _shown(", ".join(unknown)))
    if failure is not None:
        raise ValidationError(f"{label} #{failure.row}: {failure}") from None
    if len(objects) < len(raw):
        raise ValidationError(f"{label} #{len(objects)} must be an object")
    return records, columns


def parse_edge_csv(text: str, name: str = "edges") -> ProjectDescriptor:
    """Parse an edge list CSV with header ``source,target[,weight[,kind]]``.

    The services are the endpoints, sorted, without class counts.
    Blank lines are skipped; absent or empty optional cells fall back
    to the defaults (weight 1, kind call).  The rows are checked as
    columns through the record rules; the first line that breaks a
    rule or cannot be read raises :class:`ParseError` naming it.
    """
    import csv
    import io

    reader = csv.reader(io.StringIO(text))
    header: list[str] | None = None
    rows, failure, start = [], None, 1
    try:
        for row in reader:
            start = reader.line_num + 1  # where the next record starts, for a malformed one
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if header is None:
                header = [cell.lower() for cell in cells]
                if len(header) < 2 or header != ["source", "target", "weight", "kind"][: len(header)]:
                    message = f"header must be source,target[,weight[,kind]], got {_shown(','.join(cells))}"
                    raise ParseError(message, line=reader.line_num)
                continue
            if len(cells) != len(header):
                raise ParseError(f"expected {len(header)} columns, got {len(cells)}", line=reader.line_num)
            source, target, weight, kind = cells + [""] * (4 - len(cells))
            try:
                rows.append((source, target, int(weight) if weight else 1, kind or "call", reader.line_num))
            except ValueError:
                raise ParseError(f"weight {_shown(weight)} is not an integer", line=reader.line_num) from None
    except csv.Error as exc:  # this error and the next are raised once the rows read before them pass
        failure = ParseError(f"malformed CSV record: {exc}", line=start)
    except ParseError as exc:
        failure = exc
    sources, targets, weights, kinds, lines = zip(*rows) if rows else [()] * 5
    try:
        edges = _records(DependencyEdge, {"source": sources, "target": targets, "weight": weights, "kind": kinds})
    except CouplingError as exc:
        raise ParseError(str(exc), line=lines[exc.row]) from None
    if failure is not None:
        raise failure from None
    if header is None:
        raise ParseError("missing header row")
    return ProjectDescriptor(name, tuple(map(ServiceNode, sorted({*sources, *targets}))), edges)


def _compose_entry(service: str, entry: object) -> str:
    """A depends_on/links entry as a service name; empty and nested entries are never printed."""
    if entry is None or isinstance(entry, (dict, list)):
        raise ParseError(f"service {_shown(service)}: depends_on and links entries must be service names")
    return str(entry)


@cache
def _text_loader() -> type:
    """The compose loader class, built on first use so that only compose input imports PyYAML.

    Plain scalars stay text (``no``, ``010``, ``1.10``); only ``<<`` and
    the empty scalar (null) keep a type.  A mapping that repeats a key,
    compared by tag and text, is rejected at the repeat.
    """
    import yaml

    merge = "tag:yaml.org,2002:merge"

    class TextLoader(yaml.SafeLoader):
        yaml_implicit_resolvers = {
            first: [(tag, regexp) for tag, regexp in resolvers if tag == merge or first == ""]
            for first, resolvers in yaml.SafeLoader.yaml_implicit_resolvers.items()
        }

        def compose_mapping_node(self, anchor):
            node = super().compose_mapping_node(anchor)
            seen = set()
            for key, _ in node.value:
                if isinstance(key, yaml.ScalarNode) and key.tag != merge:
                    if (key.tag, key.value) in seen:
                        raise ParseError(f"duplicate key {_shown(key.value)}", line=key.start_mark.line + 1)
                    seen.add((key.tag, key.value))
            return node

    return TextLoader


def parse_compose(text: str, name: str = "compose") -> ProjectDescriptor:
    """Extract a service topology from a docker-compose document; needs PyYAML (the ``compose`` extra).

    Every ``depends_on`` (list or mapping form) and ``links`` entry
    becomes one weight-1 dependency record of kind ``compose``; service
    names stay text and self-references are dropped with a warning.
    A key given twice in one mapping is a ParseError; ``<<`` merges keep
    YAML's rule that an explicit key overrides a merged one.
    """
    try:
        import yaml
    except ImportError:
        raise CouplingError("reading compose files needs PyYAML") from None
    try:
        document = yaml.load(text, Loader=_text_loader())
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
                    _warn("compose: dropping self-dependency of %s", _shown(service))
                    continue
                edges.append(DependencyEdge(service, target, 1, EdgeKind.COMPOSE))
        except CouplingError as exc:
            raise ValidationError(f"service #{position}: {exc}") from None

    return ProjectDescriptor(name, tuple(services), tuple(edges))


def _count_units(directory: str | Path) -> int:
    """Count the ``.java`` files under ``directory``, recursively; the caller checks it is a directory.

    Symlinked files count, symlinked directories are not entered, and
    unreadable subdirectories are skipped (as ``Path.rglob`` does).
    """
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
    ``base_dir / source_dir`` as its class count; FileNotFoundError,
    naming the service, if that is not a directory.
    """
    nodes = list(descriptor.services)
    if base_dir is not None and descriptor.source_dirs:
        for i, node in enumerate(nodes):
            source_dir = descriptor.source_dirs.get(node.id)
            if node.class_count is None and source_dir is not None:
                directory = os.path.join(base_dir, source_dir)
                if not os.path.isdir(directory):  # False, not an OSError, for a name too long to stat
                    raise FileNotFoundError(
                        f"service {_shown(node.id)}: source_dir {_shown(source_dir)} is not a directory"
                    )
                nodes[i] = node._replace(class_count=_count_units(directory))  # a count is a non-negative int
    return ServiceGraph.build(nodes, descriptor.edges)


def load_project(path: Path, fmt: str = "auto") -> tuple[ServiceGraph, ProjectDescriptor]:
    """Load one project from a descriptor, edge CSV or compose file.

    ``fmt`` is one of ``auto | descriptor | edges | compose``; in auto
    mode the format is inferred from the file extension.  The file must
    be UTF-8, optionally with a byte order mark.  Edge-CSV and compose
    projects take the file stem as their name.
    """
    path = Path(path)
    if fmt not in FORMATS:
        raise ValidationError(f"unknown input format {_shown(fmt)}")
    if not path.is_file():
        if path.exists():  # a directory, FIFO or device
            raise OSError(f"not a file: {path}")
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
            descriptor = parse_edge_csv(text, name=path.stem)
        else:
            descriptor = parse_compose(text, name=path.stem)
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except RecursionError:
        raise ParseError("input is nested too deeply") from None
    return build_graph(descriptor, base_dir=path.parent), descriptor


def load_corpus(root: Path) -> tuple[Path, ...]:
    """Sorted descriptor paths, one per immediate subdirectory holding one.

    Any ``project.json`` entry counts, even one that is not a readable
    file, so that its project fails instead of vanishing; subdirectories
    without one are skipped with a warning.  An empty corpus is valid.
    """
    root = Path(root)
    if not root.is_dir():
        raise FileNotFoundError(f"no such corpus root: {root}")
    projects: list[Path] = []
    for entry in sorted(root.iterdir(), key=lambda p: p.name):
        if not entry.is_dir():
            continue
        descriptor_path = entry / DESCRIPTOR_FILENAME
        if os.path.lexists(descriptor_path):  # even a dangling link: load_project names what is wrong with it
            projects.append(descriptor_path)
        else:
            _warn("corpus: skipping %s (no %s)", entry.name, DESCRIPTOR_FILENAME)
    return tuple(projects)
