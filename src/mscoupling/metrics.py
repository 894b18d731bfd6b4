"""Coupling metrics over service dependency graphs.

The headline metric is the structural coupling of an ordered service
pair::

    sc(s1, s2) = 1 - (1 / degree(s1, s2)) * lwf(s1, s2) * gwf(s1, s2)

where ``lwf = (1 + outdegree) / (1 + degree)`` weights how much of the
pair's coupling the first service originates, and ``gwf = degree /
max node degree`` situates the pair against the busiest service in the
system.  The pair's degree cancels, ``sc = 1 - lwf / max node degree``,
so values lie in ``[1 - 1 / max node degree, 1)`` and SC ranks a
project's pairs exactly as LWF does.  Unconnected pairs have no value at
all (not zero) and are excluded from every statistic.

Alongside it the module computes the classic per-service coupling
numbers: CBM (outgoing calls per class), AIS (distinct clients), ADS
(distinct providers), ACS (= AIS * ADS) and the system-wide SIY count
of mutually dependent pairs.  :func:`analyze` builds the pair and service tables once.

Every pair value depends only on the pair's ``(outdegree, indegree)``
class and the graph's max node degree, and a project has far fewer
classes than pairs.  So the pair table holds ``(s1, s2, PairMetrics)``
rows that share one :class:`PairMetrics` per class.  The summaries run
over the rows in pair order; their stdev is exact and, on Python >= 3.11,
matches ``statistics.pstdev`` bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from collections.abc import Iterable
from itertools import accumulate
from operator import attrgetter, itemgetter

from .errors import UnconnectedPair
from .graph import ServiceGraph, ServiceId, _Record


class PairMetrics(_Record):
    """The values of one ``(outdegree, indegree)`` pair class, shared by its pairs."""

    def __init__(self, degree: int, outdegree: int, indegree: int, lwf: float, gwf: float, sc: float):
        vars(self).update(degree=degree, outdegree=outdegree, indegree=indegree, lwf=lwf, gwf=gwf, sc=sc)


PairRow = tuple[ServiceId, ServiceId, PairMetrics]


class ServiceMetrics(_Record):
    """Degree and literature coupling values for one service.

    ``cbm`` is None when the service has no usable class count.
    """

    def __init__(
        self, id: ServiceId, indegree: int, outdegree: int, degree: int, class_count: int | None, cbm: float | None,
        ais: int, ads: int, acs: int,
    ):
        vars(self).update(
            id=id, indegree=indegree, outdegree=outdegree, degree=degree, class_count=class_count, cbm=cbm,
            ais=ais, ads=ads, acs=acs,
        )


class StatSummary(_Record):
    """Descriptive statistics of one metric; all stats absent when empty."""

    def __init__(
        self, count: int, max: float | None = None, avg: float | None = None, median: float | None = None,
        stdev: float | None = None, total: float | None = None,
    ):
        vars(self).update(count=count, max=max, avg=avg, median=median, stdev=stdev, total=total)


class ProjectSummary(_Record):
    """One project's descriptive statistics, one summary per metric.

    The degree/lwf/gwf/sc summaries run over all connected ordered
    pairs and therefore share a count; the cbm summary runs over the
    services where CBM is defined and has count 0 when it never is.
    """

    def __init__(
        self, project_name: str, degree: StatSummary, lwf: StatSummary, gwf: StatSummary, sc: StatSummary,
        cbm: StatSummary, siy: int,
    ):
        vars(self).update(project_name=project_name, degree=degree, lwf=lwf, gwf=gwf, sc=sc, cbm=cbm, siy=siy)


def pair_metrics(graph: ServiceGraph, s1: ServiceId, s2: ServiceId) -> PairMetrics:
    """The values of a connected ordered pair's class; `structural_coupling` reads its SC."""
    outdegree = graph.providers(s1).get(s2, 0)
    indegree = graph.providers(s2).get(s1, 0)
    degree = outdegree + indegree
    if degree == 0:  # a service never depends on itself, so this covers s1 == s2
        raise UnconnectedPair(f"no dependencies between {s1!r} and {s2!r}")
    lwf = (1 + outdegree) / (1 + degree)
    gwf = degree / graph.max_node_degree()
    return PairMetrics(degree, outdegree, indegree, lwf, gwf, sc=1.0 - (1.0 / degree) * lwf * gwf)


def structural_coupling(graph: ServiceGraph, s1: ServiceId, s2: ServiceId) -> float:
    """Structural coupling of the ordered pair, ``1 - lwf / max node degree``, in ``[1 - 1 / max node degree, 1)``.

    Not exported and called by no program path: it stays because ``bench/spans.py`` counts its calls.
    """
    return pair_metrics(graph, s1, s2).sc


def pair_matrix(graph: ServiceGraph) -> tuple[PairRow, ...]:
    """A ``(s1, s2, PairMetrics)`` row for every connected ordered pair, lexicographic order.

    Each class is evaluated on the first pair that shows it, and every
    later pair of that class shares the same :class:`PairMetrics`.
    """
    classes: dict[tuple[int, int], PairMetrics] = {}
    rows = []
    # The graph's tables are read directly: they hold every service, in sorted order.
    for s1, neighbours in graph._neighbours.items():
        providers, clients = graph._out[s1], graph._in[s1]
        for s2 in neighbours:
            key = providers.get(s2, 0), clients.get(s2, 0)
            if (pair := classes.get(key)) is None:
                pair = classes[key] = pair_metrics(graph, s1, s2)
            rows.append((s1, s2, pair))
    return tuple(rows)


def service_table(graph: ServiceGraph) -> tuple[ServiceMetrics, ...]:
    """Per-service metrics for every service, lexicographic order.

    CBM is the outgoing weight per class, None without a non-zero class
    count; AIS counts distinct clients, ADS distinct providers, and ACS
    is AIS * ADS.
    """
    rows = []
    for node in graph.nodes:
        providers, clients = graph._out[node.id], graph._in[node.id]
        outdegree, indegree = graph._degrees[node.id]
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


class Analysis(_Record):
    """A graph with its pair table and service table, each computed once."""

    def __init__(self, graph: ServiceGraph, pairs: tuple[PairRow, ...], services: tuple[ServiceMetrics, ...]):
        vars(self).update(graph=graph, pairs=pairs, services=services)


def analyze(graph: ServiceGraph) -> Analysis:
    """The one metrics pass over a graph that the summary and every report read."""
    return Analysis(graph, pair_matrix(graph), service_table(graph))


def summarize(values: Iterable[float]) -> StatSummary:
    """Max/avg/median/stdev/total over the values, in their order.

    The median of an even-length sample is the mean of the two middle
    values and the standard deviation is the population one (divide by
    count), so a single value summarizes to stdev 0 rather than being
    undefined.  Max, median and stdev equal ``max``, ``statistics.median``
    and ``statistics.pstdev`` bit for bit on Python >= 3.11: the first two
    read the sorted values, and the stdev is exact.  Total is the float
    sum in order.
    """
    data = list(map(float, values))
    if not data:
        return StatSummary(count=0)
    values, multiplicities = zip(*sorted(Counter(data).items()))
    ends = list(accumulate(multiplicities))  # ends[i] data points are at most values[i]
    count = ends[-1]
    low, high = (values[bisect_right(ends, k)] for k in ((count - 1) // 2, count // 2))
    # Each value is an integer over a power of two, so over the largest such denominator
    # every value is an exact integer x, and Σm·x and Σm·x² are exact.
    ratios = [value.as_integer_ratio() for value in values]
    scale = max(d for _, d in ratios)
    xs = [n * (scale // d) for n, d in ratios]
    linear = sum(m * x for m, x in zip(multiplicities, xs))
    square = sum(m * x * x for m, x in zip(multiplicities, xs))
    total = sum(data)
    return StatSummary(
        count=count,
        max=values[-1],
        avg=total / count,
        median=high if count % 2 else (low + high) / 2,
        stdev=_sqrt_of_fraction(count * square - linear * linear, (count * scale) ** 2),
        total=total,
    )


def _sqrt_of_fraction(n: int, m: int) -> float:
    """Square root of ``n / m``, correctly rounded: round-to-odd to 109 bits, then one rounding to float."""
    q = (n.bit_length() - m.bit_length() - 109) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def project_summary(analysis: Analysis, project_name: str) -> ProjectSummary:
    """Descriptive statistics of all pair and service metrics for a project, over the rows in pair order."""
    pairs = list(map(itemgetter(2), analysis.pairs))
    return ProjectSummary(
        project_name=project_name,
        degree=summarize(map(attrgetter("degree"), pairs)),
        lwf=summarize(map(attrgetter("lwf"), pairs)),
        gwf=summarize(map(attrgetter("gwf"), pairs)),
        sc=summarize(map(attrgetter("sc"), pairs)),
        cbm=summarize(m.cbm for m in analysis.services if m.cbm is not None),
        # A mutual pair shows as two rows, (s1, s2) and (s2, s1).
        siy=sum(1 for pair in pairs if pair.outdegree and pair.indegree) // 2,
    )
