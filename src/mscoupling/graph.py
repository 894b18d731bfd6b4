"""Directed service dependency graph model.

Nodes are services, edges are weighted structural dependencies between
them.  Each record type checks its own fields on construction, so every
parser and library caller gets the same rules.  A :class:`ServiceGraph`
is an immutable value that can be shared freely between analysis tasks.
The neighbour maps sum edge weights, so three recorded calls from A to B
count as three dependencies, not one.
"""

from __future__ import annotations

from dataclasses import dataclass
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


def _check_id(value: str, what: str = "service id") -> str:
    """Ids and project names are printable text without ``,`` or ``"``: CSV, DOT and SVG carry them raw."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what} must be a non-empty string, got {_shown(value)}")
    if "," in value or '"' in value or not value.isprintable():
        ch = next(ch for ch in value if ch in ',"' or not ch.isprintable())
        raise ValidationError(f"{what} {_shown(value)} contains forbidden character {_shown(ch)}")
    return value


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _endpoints(edge: DependencyEdge) -> str:
    return f"{_shown(edge.source)}->{_shown(edge.target)}"


class EdgeKind(str, Enum):
    """Provenance of a dependency record; ignored by all metrics."""

    CALL = "call"
    COMPOSE = "compose"
    DECLARED = "declared"


@dataclass(frozen=True)
class ServiceNode:
    """A service, optionally annotated with its size.

    ``class_count`` is the number of source classes in the service and
    feeds the CBM metric; ``loc`` is informational only.
    """

    id: ServiceId
    class_count: int | None = None
    loc: int | None = None

    def __post_init__(self):
        _check_id(self.id)
        for field_name in ("class_count", "loc"):
            value = getattr(self, field_name)
            if value is not None and (not _is_int(value) or value < 0):
                raise ValidationError(
                    f"service {_shown(self.id)}: {field_name} must be a non-negative integer, got {_shown(value)}"
                )


@dataclass(frozen=True)
class DependencyEdge:
    """A weighted directed dependency record between two services."""

    source: ServiceId
    target: ServiceId
    weight: int = 1
    kind: EdgeKind = EdgeKind.CALL

    def __post_init__(self):
        _check_id(self.source)
        _check_id(self.target)
        if self.source == self.target:
            raise SelfDependency(f"service {_shown(self.source)} cannot depend on itself")
        if not _is_int(self.weight) or self.weight < 1:
            raise ValidationError(
                f"edge {_endpoints(self)}: weight must be a positive integer, got {_shown(self.weight)}"
            )
        if self.weight > MAX_WEIGHT:
            raise ValidationError(f"edge {_endpoints(self)}: weight must be at most 2**53")
        if not isinstance(self.kind, EdgeKind):
            try:
                object.__setattr__(self, "kind", EdgeKind(self.kind))
            except ValueError:
                raise ValidationError(f"edge {_endpoints(self)}: unknown kind {_shown(self.kind)}") from None


@dataclass(frozen=True)
class ServiceGraph:
    """Immutable directed multigraph of services.

    The constructor owns the graph rules, checked in input order with the
    record's position (``service #i``/``edge #i``) in each error: unique
    ids, declared endpoints, and weight summation of records sharing a
    (source, target, kind) triple.  Nodes and edges are stored sorted.
    """

    nodes: tuple[ServiceNode, ...] = ()
    edges: tuple[DependencyEdge, ...] = ()

    def __post_init__(self):
        by_id: dict[ServiceId, ServiceNode] = {}
        for position, node in enumerate(self.nodes):
            if node.id in by_id:
                raise DuplicateService(f"service #{position}: service {_shown(node.id)} declared twice")
            by_id[node.id] = node
        ids = sorted(by_id)
        out: dict[ServiceId, dict[ServiceId, int]] = {service: {} for service in ids}
        in_: dict[ServiceId, dict[ServiceId, int]] = {service: {} for service in ids}
        merged: dict[tuple[str, str, EdgeKind], int] = {}
        for position, edge in enumerate(self.edges):
            for service in (edge.source, edge.target):
                if service not in by_id:
                    raise UnknownService(
                        f"edge #{position} {_endpoints(edge)} references undeclared service {_shown(service)}"
                    )
            key = (edge.source, edge.target, edge.kind)
            merged[key] = merged.get(key, 0) + edge.weight
            providers, clients = out[edge.source], in_[edge.target]
            providers[edge.target] = providers.get(edge.target, 0) + edge.weight
            clients[edge.source] = clients.get(edge.source, 0) + edge.weight
        object.__setattr__(self, "nodes", tuple(by_id[service] for service in ids))
        # EdgeKind is a str enum, so the keys sort by (source, target, kind value).
        edges = tuple(
            DependencyEdge(source, target, weight, kind) for (source, target, kind), weight in sorted(merged.items())
        )
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "_by_id", by_id)
        # Per service, kinds merged: total weight to each provider (_out) and from each client (_in).
        object.__setattr__(self, "_out", out)
        object.__setattr__(self, "_in", in_)

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

    def node(self, service: ServiceId) -> ServiceNode:
        self._require(service)
        return self._by_id[service]

    def _require(self, service: ServiceId) -> None:
        if service not in self._by_id:
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
        return sum(self.providers(service).values()) + sum(self.clients(service).values())

    def max_node_degree(self) -> int:
        """Largest node degree in the graph; 0 when there are no edges."""
        if not self.nodes:
            raise EmptyGraph("max degree of an empty graph is undefined")
        return self._max_degree

    @cached_property
    def _max_degree(self) -> int:
        return max(self.node_degree(service) for service in self._out)

    # -- structure --------------------------------------------------------

    def _neighbors(self, service: ServiceId) -> list[ServiceId]:
        """Services with a dependency to or from ``service``, sorted."""
        return sorted(self._out[service].keys() | self._in[service].keys())

    def connected_pairs(self) -> tuple[tuple[ServiceId, ServiceId], ...]:
        """All ordered pairs with at least one dependency, both orientations.

        Sorted lexicographically by (first, second) for deterministic
        downstream reports.
        """
        return tuple((s1, s2) for s1 in self._out for s2 in self._neighbors(s1))

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
        for root in self._out:
            if root in order:
                continue
            order[root] = low[root] = counter
            counter += 1
            root_children = 0
            stack = [(root, None, iter(self._neighbors(root)))]
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
                        stack.append((neighbor, current, iter(self._neighbors(neighbor))))
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
