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
)

ServiceId = str
# Every integer up to 2**53 is exact as a double, and sums of such weights stay far below float overflow.
MAX_WEIGHT = 2**53


def _check_id(value: str, what: str = "service id") -> str:
    """Ids and project names are printable text without ``,`` or ``"``: CSV, DOT and SVG carry them raw."""
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{what} must be a non-empty string, got {value!r}")
    if "," in value or '"' in value or not value.isprintable():
        ch = next(ch for ch in value if ch in ',"' or not ch.isprintable())
        raise ValidationError(f"{what} {value!r} contains forbidden character {ch!r}")
    return value


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


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
                    f"service {self.id!r}: {field_name} must be a non-negative integer, got {value!r}"
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
            raise SelfDependency(f"service {self.source!r} cannot depend on itself")
        if not _is_int(self.weight) or self.weight < 1:
            raise ValidationError(
                f"edge {self.source!r}->{self.target!r}: weight must be a positive integer, got {self.weight!r}"
            )
        if self.weight > MAX_WEIGHT:
            raise ValidationError(f"edge {self.source!r}->{self.target!r}: weight must be at most 2**53")
        if not isinstance(self.kind, EdgeKind):
            try:
                object.__setattr__(self, "kind", EdgeKind(self.kind))
            except ValueError:
                raise ValidationError(
                    f"edge {self.source!r}->{self.target!r}: unknown kind {self.kind!r}"
                ) from None


@dataclass(frozen=True)
class ServiceGraph:
    """Immutable directed multigraph of services.

    Nodes and edges are stored in canonical (lexicographic) order and
    edge records sharing a (source, target, kind) triple are merged by
    weight summation, so two graphs built from the same dependencies in
    any order compare equal.
    """

    nodes: tuple[ServiceNode, ...] = ()
    edges: tuple[DependencyEdge, ...] = ()

    def __post_init__(self):
        nodes = tuple(sorted(self.nodes, key=lambda n: n.id))
        seen: set[str] = set()
        for node in nodes:
            if node.id in seen:
                raise DuplicateService(f"service {node.id!r} declared twice")
            seen.add(node.id)
        merged: dict[tuple[str, str, EdgeKind], int] = {}
        for edge in self.edges:
            if edge.source not in seen or edge.target not in seen:
                missing = edge.source if edge.source not in seen else edge.target
                raise UnknownService(f"edge {edge.source!r}->{edge.target!r} references undeclared service {missing!r}")
            key = (edge.source, edge.target, edge.kind)
            merged[key] = merged.get(key, 0) + edge.weight
        edges = tuple(
            DependencyEdge(source, target, weight, kind)
            for (source, target, kind), weight in sorted(
                merged.items(), key=lambda item: (item[0][0], item[0][1], item[0][2].value)
            )
        )
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edges)

    # -- construction -----------------------------------------------------

    @classmethod
    def build(
        cls,
        nodes: Iterable[ServiceNode],
        edges: Iterable[DependencyEdge] = (),
    ) -> "ServiceGraph":
        return cls(tuple(nodes), tuple(edges))

    # -- lookup -----------------------------------------------------------

    @cached_property
    def _by_id(self) -> dict[str, ServiceNode]:
        return {node.id: node for node in self.nodes}

    def _weight_map(self, forward: bool) -> dict[str, dict[str, int]]:
        table: dict[str, dict[str, int]] = {node.id: {} for node in self.nodes}
        for edge in self.edges:
            a, b = (edge.source, edge.target) if forward else (edge.target, edge.source)
            table[a][b] = table[a].get(b, 0) + edge.weight
        return table

    @cached_property
    def _out(self) -> dict[str, dict[str, int]]:
        """Per service: total weight to each of its providers, kinds merged."""
        return self._weight_map(forward=True)

    @cached_property
    def _in(self) -> dict[str, dict[str, int]]:
        """Per service: total weight from each of its clients, kinds merged."""
        return self._weight_map(forward=False)

    @property
    def service_ids(self) -> tuple[ServiceId, ...]:
        return tuple(node.id for node in self.nodes)

    def node(self, service: ServiceId) -> ServiceNode:
        self._require(service)
        return self._by_id[service]

    def _require(self, service: ServiceId) -> None:
        if service not in self._by_id:
            raise UnknownService(f"unknown service {service!r}")

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
