"""Directed service dependency graph model.

Nodes are services, edges are weighted structural dependencies between
them.  Each record rule is written once, in its record type's ``_rules``,
as a test of whole field columns paired with a test of one record's values:
records run the value tests on construction, and readers hand columns to
``_records``, so every parser and library caller gets the same rules and
messages.  A :class:`ServiceGraph` is an immutable value that can be shared
freely between analysis tasks.
A summed edge or a counted service is a copy through ``_Record._replace``,
which checks nothing: the values it is given must be checked already.
The constructor builds, once, each service's neighbour maps (three calls
from A to B weigh 3, not 1), sorted neighbours and ``(out, in)`` degree
pair, and the largest degree; every method and metric reads these tables.
"""

import operator
from collections.abc import Iterable, Mapping
from enum import Enum
from functools import cached_property, partial
from itertools import repeat
from types import MappingProxyType

from .errors import (
    DuplicateService,
    EmptyGraph,
    SelfDependency,
    UnknownService,
    ValidationError,
    _shown,
)

ServiceId = str
# Every integer up to 2**53 is exact as a double, and sums of such weights stay far below float overflow.
MAX_WEIGHT = 2**53


def _forbidden(text: str) -> bool:
    return "," in text or '"' in text or not text.isprintable()


def _id_fault(value: object, what: str = "service id") -> ValidationError | None:
    """Ids and project names are printable text without ``,`` or ``"``: CSV, DOT and SVG carry them raw."""
    if not isinstance(value, str) or not value:
        return ValidationError(f"{what} must be a non-empty string, got {_shown(value)}")
    if _forbidden(value):
        ch = next(ch for ch in value if _forbidden(ch))
        return ValidationError(f"{what} {_shown(value)} contains forbidden character {_shown(ch)}")


def _ids_pass(ids: list) -> bool:
    # Each distinct id is tested once: their join holds a forbidden character exactly when one of them does.
    if not all(map(isinstance, ids, repeat(str))):
        return False
    return "" not in (names := set(ids)) and not _forbidden("".join(names))


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _counts_pass(counts: list, *_) -> bool:
    return set(map(type, counts)) <= {int, type(None)} and min(set(counts) - {None}, default=0) >= 0


def _count_fault(field: str, count: object, id: ServiceId) -> ValidationError | None:
    if count is not None and (not _is_int(count) or count < 0):
        return ValidationError(f"service {_shown(id)}: {field} must be a non-negative integer, got {_shown(count)}")


def _endpoints(source: ServiceId, target: ServiceId) -> str:
    return f"{_shown(source)}->{_shown(target)}"


def _weights_pass(weights: list, *_) -> bool:
    return set(map(type, weights)) <= {int} and min(weights, default=1) >= 1 and max(weights, default=1) <= MAX_WEIGHT


def _weight_fault(weight: object, source: ServiceId, target: ServiceId) -> ValidationError | None:
    if not _is_int(weight) or weight < 1:
        message = f"weight must be a positive integer, got {_shown(weight)}"
        return ValidationError(f"edge {_endpoints(source, target)}: {message}")
    if weight > MAX_WEIGHT:
        return ValidationError(f"edge {_endpoints(source, target)}: weight must be at most 2**53")


def _kinds_pass(kinds: list, *_) -> bool:
    return all(map(isinstance, kinds, repeat(str))) and _KINDS.keys() >= set(kinds)


def _kind_fault(kind: object, source: ServiceId, target: ServiceId) -> ValidationError | None:
    if not _kinds_pass([kind]):
        return ValidationError(f"edge {_endpoints(source, target)}: unknown kind {_shown(kind)}")


def _check_values(rules: tuple, values: dict, row: int | None = None) -> None:
    """Raise the error, noting its ``row``, of the first rule in field order that one record's ``values`` break."""
    get = values.__getitem__
    for fields, _, fault in rules:
        if error := fault(*map(get, fields)):
            error.row = row
            raise error


def _records(cls: type, columns: dict[str, list], rules: tuple = ()) -> tuple:
    """The records of ``cls`` with field values ``columns``, checked by ``cls._rules`` and then ``rules``.

    Only the rules whose column test fails are tested row by row; the first row that breaks one raises its
    error, with ``row`` set to that row's index.  The records are built without running ``__init__`` again.
    """
    failing = [rule for rule in cls._rules + rules if not rule[1](*[columns[name] for name in rule[0]])]
    for row, values in enumerate(zip(*columns.values()) if failing else ()):
        _check_values(failing, dict(zip(columns, values)), row)
    # One C-level pass per field and no Python call per record.  Copies of a dict that already holds every
    # field are as compact as the __dict__ that __init__ leaves; filling empty ones would make them larger.
    dicts = list(map(dict.copy, repeat(dict.fromkeys(cls._fields), len(columns[cls._fields[0]]))))
    for name in cls._fields:
        values = columns[name] if name != "kind" else map(_KINDS.__getitem__, columns[name])  # stored as EdgeKind
        list(map(operator.setitem, dicts, repeat(name), values))
    records = tuple(map(object.__new__, repeat(cls, len(dicts))))
    list(map(object.__setattr__, records, repeat("__dict__"), dicts))
    return records


class _Record:
    """A frozen dataclass's value semantics for a record whose ``__init__`` stores its parameters as its fields.

    Equality and hash by class and field values, the same repr, AttributeError on assignment or deletion.
    ``_replace`` copies without checks: use it only for values derived from records that were already checked.
    """

    def __init_subclass__(cls):
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _replace(self, **changes):
        """This record with ``changes``, built without running ``__init__``: their values must be checked already."""
        record = object.__new__(self.__class__)
        object.__setattr__(record, "__dict__", {**vars(self), **changes})
        return record

    def _set(self, *values) -> None:
        """Store ``values``, in field order, as a new ``__dict__``: on Python 3.13 a filled instance dict is larger."""
        object.__setattr__(self, "__dict__", dict(zip(self._fields, values)))

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __reduce__(self):
        """Pickle and copy rebuild the record through its constructor, which checks it and builds a compact dict."""
        return type(self), self._values()

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class EdgeKind(str, Enum):
    """Provenance of a dependency record; ignored by all metrics."""

    CALL = "call"
    COMPOSE = "compose"
    DECLARED = "declared"


_KINDS = {kind.value: kind for kind in EdgeKind}  # a dict lookup is far cheaper than EdgeKind(value)


class ServiceNode(_Record):
    """A service, optionally annotated with its size.

    ``class_count`` is the number of source classes in the service and
    feeds the CBM metric; ``loc`` is informational only.
    """

    # In field order: (fields read, test of their columns: True if every row passes, test of one row: its error or None)
    _rules = (
        (("id",), _ids_pass, _id_fault),
        (("class_count", "id"), _counts_pass, partial(_count_fault, "class_count")),
        (("loc", "id"), _counts_pass, partial(_count_fault, "loc")),
    )

    def __init__(self, id: ServiceId, class_count: int | None = None, loc: int | None = None):
        _check_values(self._rules, fields := {"id": id, "class_count": class_count, "loc": loc})
        object.__setattr__(self, "__dict__", fields)


class DependencyEdge(_Record):
    """A weighted directed dependency record between two services."""

    _rules = (
        (("source",), _ids_pass, _id_fault),
        (("target",), _ids_pass, _id_fault),
        (("source", "target"), lambda sources, targets: not any(map(operator.eq, sources, targets)),
         lambda s, t: SelfDependency(f"service {_shown(s)} cannot depend on itself") if s == t else None),
        (("weight", "source", "target"), _weights_pass, _weight_fault),
        (("kind", "source", "target"), _kinds_pass, _kind_fault),
    )

    def __init__(self, source: ServiceId, target: ServiceId, weight: int = 1, kind: EdgeKind = EdgeKind.CALL):
        _check_values(self._rules, fields := {"source": source, "target": target, "weight": weight, "kind": kind})
        object.__setattr__(self, "__dict__", {**fields, "kind": _KINDS[kind]})


class ServiceGraph(_Record):
    """Immutable directed multigraph of services.

    The constructor owns the graph rules, checked in input order with the
    record's position (``service #i``/``edge #i``) in each error: unique
    ids, declared endpoints, and weight summation of records sharing a
    (source, target, kind) triple.  Nodes and edges are stored sorted.
    """

    def __init__(self, nodes: tuple[ServiceNode, ...] = (), edges: tuple[DependencyEdge, ...] = ()):
        by_id: dict[ServiceId, ServiceNode] = {}
        for i, node in enumerate(nodes):
            if node.id in by_id:
                raise DuplicateService(f"service #{i}: service {_shown(node.id)} declared twice")
            by_id[node.id] = node
        ids = sorted(by_id)
        out: dict[ServiceId, dict[ServiceId, int]] = {service: {} for service in ids}
        in_: dict[ServiceId, dict[ServiceId, int]] = {service: {} for service in ids}
        merged: dict[tuple[str, str, EdgeKind], tuple[DependencyEdge, int]] = {}
        for i, edge in enumerate(edges):
            source, target, weight = edge.source, edge.target, edge.weight
            if source not in by_id or target not in by_id:
                missing = _shown(target if source in by_id else source)
                raise UnknownService(f"edge #{i} {_endpoints(source, target)} references undeclared service {missing}")
            key = (source, target, edge.kind)
            first, total = merged.get(key, (edge, 0))
            if (total := total + weight) > MAX_WEIGHT:
                raise ValidationError(f"edge #{i} {_endpoints(source, target)}: merged weight must be at most 2**53")
            merged[key] = first, total
            providers, clients = out[source], in_[target]
            providers[target] = providers.get(target, 0) + weight
            clients[source] = clients.get(source, 0) + weight
        # EdgeKind is a str enum, so the keys sort by (source, target, kind value).
        # Each key keeps its first checked record; only a repeated key builds a summed one.
        edges = (merged[key] for key in sorted(merged))
        edges = tuple(e if e.weight == w else e._replace(weight=w) for e, w in edges)
        # Per service, kinds merged: weight to each provider (_out) and from each client (_in), neighbours, degrees.
        neighbours = {s: tuple(sorted(out[s].keys() | in_[s].keys())) for s in ids}
        degrees = {s: (sum(out[s].values()), sum(in_[s].values())) for s in ids}
        max_degree = max(map(sum, degrees.values()), default=0)
        object.__setattr__(self, "__dict__", dict(
            nodes=tuple(by_id[service] for service in ids), edges=edges,
            _out=out, _in=in_, _neighbours=neighbours, _degrees=degrees, _max_degree=max_degree,
        ))

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        nodes: Iterable[ServiceNode],
        edges: Iterable[DependencyEdge] = (),
    ) -> "ServiceGraph":
        return cls(tuple(nodes), tuple(edges))

    # -- lookup -----------------------------------------------------------

    @property
    def service_ids(self) -> tuple[ServiceId, ...]:
        return tuple(node.id for node in self.nodes)

    def _require(self, service: ServiceId) -> None:
        if service not in self._out:
            raise UnknownService(f"unknown service {_shown(service)}")

    # -- degrees ----------------------------------------------------------

    def providers(self, service: ServiceId) -> Mapping[ServiceId, int]:
        """Read-only map from each service ``service`` depends on to the total weight."""
        self._require(service)
        return MappingProxyType(self._out[service])

    def node_degree(self, service: ServiceId) -> int:
        """Total dependency weight incident to the service, both directions."""
        self._require(service)
        return sum(self._degrees[service])

    def max_node_degree(self) -> int:
        """Largest node degree in the graph; 0 when there are no edges."""
        if not self.nodes:
            raise EmptyGraph("max degree of an empty graph is undefined")
        return self._max_degree

    # -- structure --------------------------------------------------------

    def connected_pairs(self) -> tuple[tuple[ServiceId, ServiceId], ...]:
        """All ordered pairs with at least one dependency, both orientations.

        Sorted lexicographically by (first, second) for deterministic
        downstream reports.
        """
        return tuple((s1, s2) for s1, neighbours in self._neighbours.items() for s2 in neighbours)

    def articulation_services(self) -> frozenset[ServiceId]:
        """Services whose removal disconnects the undirected projection."""
        return self._articulation

    @cached_property
    def _articulation(self) -> frozenset[ServiceId]:
        # Standard articulation points via iterative depth-first search with low-link values.
        order: dict[str, int] = {}
        low: dict[str, int] = {}
        cut: set[str] = set()
        for root in self._neighbours:
            if root in order:
                continue
            order[root] = low[root] = len(order)
            root_children = 0
            stack = [(root, None, iter(self._neighbours[root]))]
            while stack:
                current, parent, neighbors = stack[-1]
                for neighbor in neighbors:
                    if neighbor == parent:
                        continue  # simple projection: exactly one edge back to the parent
                    if neighbor in order:
                        low[current] = min(low[current], order[neighbor])
                    else:
                        order[neighbor] = low[neighbor] = len(order)
                        stack.append((neighbor, current, iter(self._neighbours[neighbor])))
                        break
                else:  # every neighbour seen: leave ``current``
                    stack.pop()
                    if parent is None:
                        continue
                    low[parent] = min(low[parent], low[current])
                    if parent == root:
                        root_children += 1
                    elif low[current] >= order[parent]:
                        cut.add(parent)
            if root_children >= 2:
                cut.add(root)
        return frozenset(cut)
