"""Coupling metrics over service dependency graphs.

The headline metric is the structural coupling of an ordered service
pair::

    sc(s1, s2) = 1 - (1 / degree(s1, s2)) * lwf(s1, s2) * gwf(s1, s2)

where ``lwf = (1 + outdegree) / (1 + degree)`` weights how much of the
pair's coupling the first service originates, and ``gwf = degree /
max node degree`` situates the pair against the busiest service in the
system.  Values lie in [0, 1): higher means the pair's dependencies are
heavier relative to the rest of the system.  Unconnected pairs have no
value at all (not zero) and are excluded from every statistic.

Alongside it the module computes the classic per-service coupling
numbers: CBM (outgoing calls per class), AIS (distinct clients), ADS
(distinct providers), ACS (= AIS * ADS) and the system-wide SIY count
of mutually dependent pairs.  :func:`analyze` builds the pair and service tables once.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import UnconnectedPair
from .graph import ServiceGraph, ServiceId


@dataclass(frozen=True)
class PairMetrics:
    """All per-pair values for one ordered service pair."""

    s1: ServiceId
    s2: ServiceId
    degree: int
    outdegree: int
    indegree: int
    lwf: float
    gwf: float
    sc: float


@dataclass(frozen=True)
class ServiceMetrics:
    """Degree and literature coupling values for one service.

    ``cbm`` is None when the service has no usable class count.
    """

    id: ServiceId
    indegree: int
    outdegree: int
    degree: int
    class_count: int | None
    cbm: float | None
    ais: int
    ads: int
    acs: int


@dataclass(frozen=True)
class StatSummary:
    """Descriptive statistics of one metric; all stats absent when empty."""

    count: int
    max: float | None = None
    avg: float | None = None
    median: float | None = None
    stdev: float | None = None
    total: float | None = None


@dataclass(frozen=True)
class ProjectSummary:
    """One project's descriptive statistics, one summary per metric.

    The degree/lwf/gwf/sc summaries run over all connected ordered
    pairs and therefore share a count; the cbm summary runs over the
    services where CBM is defined and has count 0 when it never is.
    """

    project_name: str
    degree: StatSummary
    lwf: StatSummary
    gwf: StatSummary
    sc: StatSummary
    cbm: StatSummary
    siy: int


def pair_metrics(graph: ServiceGraph, s1: ServiceId, s2: ServiceId) -> PairMetrics:
    """All per-pair values of a connected ordered pair; `structural_coupling` reads its SC."""
    outdegree = graph.providers(s1).get(s2, 0)
    indegree = graph.providers(s2).get(s1, 0)
    degree = outdegree + indegree
    if degree == 0:  # a service never depends on itself, so this covers s1 == s2
        raise UnconnectedPair(f"no dependencies between {s1!r} and {s2!r}")
    local = (1 + outdegree) / (1 + degree)
    global_ = degree / graph.max_node_degree()
    return PairMetrics(
        s1=s1,
        s2=s2,
        degree=degree,
        outdegree=outdegree,
        indegree=indegree,
        lwf=local,
        gwf=global_,
        sc=1.0 - (1.0 / degree) * local * global_,
    )


def structural_coupling(graph: ServiceGraph, s1: ServiceId, s2: ServiceId) -> float:
    """Structural coupling of the ordered pair, in [0, 1)."""
    return pair_metrics(graph, s1, s2).sc


def pair_matrix(graph: ServiceGraph) -> tuple[PairMetrics, ...]:
    """Pair metrics for every connected ordered pair, lexicographic order."""
    return tuple(pair_metrics(graph, s1, s2) for s1, s2 in graph.connected_pairs())


def siy(graph: ServiceGraph) -> int:
    """Number of unordered pairs that depend on each other in both directions."""
    providers = graph.providers
    return sum(1 for s1 in graph.service_ids for s2 in providers(s1) if s1 < s2 and s1 in providers(s2))


def service_table(graph: ServiceGraph) -> tuple[ServiceMetrics, ...]:
    """Per-service metrics for every service, lexicographic order.

    CBM is the outgoing weight per class, None without a non-zero class
    count; AIS counts distinct clients, ADS distinct providers, and ACS
    is AIS * ADS.
    """
    rows = []
    for node in graph.nodes:
        providers, clients = graph.providers(node.id), graph.clients(node.id)
        outdegree, indegree = sum(providers.values()), sum(clients.values())
        rows.append(
            ServiceMetrics(
                id=node.id,
                indegree=indegree,
                outdegree=outdegree,
                degree=outdegree + indegree,
                class_count=node.class_count,
                cbm=outdegree / node.class_count if node.class_count else None,
                ais=len(clients),
                ads=len(providers),
                acs=len(clients) * len(providers),
            )
        )
    return tuple(rows)


@dataclass(frozen=True)
class Analysis:
    """A graph with its pair table and service table, each computed once."""

    graph: ServiceGraph
    pairs: tuple[PairMetrics, ...]
    services: tuple[ServiceMetrics, ...]


def analyze(graph: ServiceGraph) -> Analysis:
    """The one metrics pass over a graph that the summary and every report read."""
    return Analysis(graph, pair_matrix(graph), service_table(graph))


def summarize(values: Iterable[float]) -> StatSummary:
    """Max/avg/median/stdev/total over the values.

    The median of an even-length sample is the mean of the two middle
    values and the standard deviation is the population one (divide by
    count), so a single value summarizes to stdev 0 rather than being
    undefined.
    """
    data: Sequence[float] = [float(v) for v in values]
    if not data:
        return StatSummary(count=0)
    total = sum(data)
    return StatSummary(
        count=len(data),
        max=max(data),
        avg=total / len(data),
        median=statistics.median(data),
        stdev=statistics.pstdev(data),
        total=total,
    )


def project_summary(analysis: Analysis, project_name: str) -> ProjectSummary:
    """Descriptive statistics of all pair and service metrics for a project."""
    pairs = analysis.pairs
    cbm_values = [m.cbm for m in analysis.services if m.cbm is not None]
    return ProjectSummary(
        project_name=project_name,
        degree=summarize(p.degree for p in pairs),
        lwf=summarize(p.lwf for p in pairs),
        gwf=summarize(p.gwf for p in pairs),
        sc=summarize(p.sc for p in pairs),
        cbm=summarize(cbm_values),
        siy=siy(analysis.graph),
    )
