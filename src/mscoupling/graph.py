"""Directed service dependency graph model.

Nodes are services, edges are weighted structural dependencies between
them.  Each record type checks its own fields on construction, so every
parser and library caller gets the same rules.  A :class:`ServiceGraph`
is an immutable value that can be shared freely between analysis tasks.
The constructor builds, once, each service's neighbour maps (three calls
from A to B weigh 3, not 1), sorted neighbours and ``(out, in)`` degree
pair, and the largest degree; every method and metric reads these tables.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping

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


def _check_id(value: str, what: str = "service id") -> str:
    """Ids and project names are printable text without ``,`` or ``"``: CSV, DOT and SVG carry them raw."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what} must be a non-empty string, got {_shown(value)}")
    if _forbidden(value):
        ch = next(ch for ch in value if _forbidden(ch))
        raise ValidationError(f"{what} {_shown(value)} contains forbidden character {_shown(ch)}")
    return value


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _endpoints(source: ServiceId, target: ServiceId) -> str:
    return f"{_shown(source)}->{_shown(target)}"


class _Record:
    """A frozen dataclass's value semantics for a record whose ``__init__`` stores its parameters as its fields.

    Equality and hash by class and field values, the same repr, AttributeError on assignment or deletion.
    """

    def __init_subclass__(cls):
        code, defaults = cls.__init__.__code__, cls.__init__.__defaults__ or ()
        cls._fields = code.co_varnames[1 : code.co_argcount]
        for name, default in zip(cls._fields[len(cls._fields) - len(defaults) :], defaults):
            setattr(cls, name, default)  # as on a dataclass: RenderOptions.decimal_places reads 2

    def _values(self) -> tuple:
        return tuple(map(vars(self).__getitem__, self._fields))

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._values())

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


_KINDS = {kind.value: kind for kind in EdgeKind}  # both record paths: a dict lookup is far cheaper than EdgeKind(value)


class ServiceNode(_Record):
    """A service, optionally annotated with its size.

    ``class_count`` is the number of source classes in the service and
    feeds the CBM metric; ``loc`` is informational only.
    """

    def __init__(self, id: ServiceId, class_count: int | None = None, loc: int | None = None):
        _check_id(id)
        for field_name, value in (("class_count", class_count), ("loc", loc)):
            if value is not None and (not _is_int(value) or value < 0):
                raise ValidationError(
                    f"service {_shown(id)}: {field_name} must be a non-negative integer, got {_shown(value)}"
                )
        vars(self).update(id=id, class_count=class_count, loc=loc)


class DependencyEdge(_Record):
    """A weighted directed dependency record between two services."""

    def __init__(self, source: ServiceId, target: ServiceId, weight: int = 1, kind: EdgeKind = EdgeKind.CALL):
        _check_id(source)
        _check_id(target)
        if source == target:
            raise SelfDependency(f"service {_shown(source)} cannot depend on itself")
        if not _is_int(weight) or weight < 1:
            raise ValidationError(
                f"edge {_endpoints(source, target)}: weight must be a positive integer, got {_shown(weight)}"
            )
        if weight > MAX_WEIGHT:
            raise ValidationError(f"edge {_endpoints(source, target)}: weight must be at most 2**53")
        if not isinstance(kind, EdgeKind):
            try:
                kind = _KINDS[kind]
            except (KeyError, TypeError):  # TypeError: an unhashable kind
                raise ValidationError(f"edge {_endpoints(source, target)}: unknown kind {_shown(kind)}") from None
        vars(self).update(source=source, target=target, weight=weight, kind=kind)


def _records_from_columns(ids, classes, locs, sources, targets, weights, kinds) -> tuple[tuple, tuple] | None:
    """These field columns' records, built without their checks, if each column plainly passes it; else None."""
    try:
        kinds, names = list(map(_KINDS.get, kinds)), {*ids, *sources, *targets}
    except TypeError:  # an unhashable id or kind
        return None
    if (
        not set(map(type, names)) <= {str} or "" in names or _forbidden("".join(names)) or None in kinds
        or any(map(str.__eq__, sources, targets))
        or not set(map(type, classes + locs)) <= {int, type(None)} or min({*classes, *locs} - {None}, default=0) < 0
        or not set(map(type, weights)) <= {int} or min(weights, default=1) < 1 or max(weights, default=1) > MAX_WEIGHT
    ):
        return None

    def record(cls, **fields):
        (made := object.__new__(cls)).__dict__.update(fields)
        return made

    nodes = tuple(record(ServiceNode, id=i, class_count=c, loc=n) for i, c, n in zip(ids, classes, locs))
    edges = zip(sources, targets, weights, kinds)
    return nodes, tuple(record(DependencyEdge, source=s, target=t, weight=w, kind=k) for s, t, w, k in edges)


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
        edges = tuple(e if e.weight == w else DependencyEdge(e.source, e.target, w, e.kind) for e, w in edges)
        # Per service, kinds merged: weight to each provider (_out) and from each client (_in), neighbours, degrees.
        neighbours = {s: tuple(sorted(out[s].keys() | in_[s].keys())) for s in ids}
        degrees = {s: (sum(out[s].values()), sum(in_[s].values())) for s in ids}
        max_degree = max(map(sum, degrees.values()), default=0)
        vars(self).update(
            nodes=tuple(by_id[service] for service in ids), edges=edges,
            _out=out, _in=in_, _neighbours=neighbours, _degrees=degrees, _max_degree=max_degree,
        )

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

    def clients(self, service: ServiceId) -> Mapping[ServiceId, int]:
        """Read-only map from each service depending on ``service`` to the total weight."""
        self._require(service)
        return MappingProxyType(self._in[service])

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
        counter = 0
        for root in self._neighbours:
            if root in order:
                continue
            order[root] = low[root] = counter
            counter += 1
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
                        order[neighbor] = low[neighbor] = counter
                        counter += 1
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
