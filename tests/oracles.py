"""Brute-force reference computations for cross-checking the engine.

Everything here works directly on a raw ``(source, target, weight)``
edge list plus the service name list, sharing no code with the package
under test.  Slow and obvious on purpose.  The exceptions:
``pair_matrix_csv`` re-lays an analysis's pair rows as a dense table,
and ``first_repeated_key`` reads a JSON value written out as pairs.
"""

from __future__ import annotations

import math
import statistics
import struct
from fractions import Fraction
from pathlib import Path


def pair_outdegree(edges, s1, s2):
    return sum(w for a, b, w in edges if a == s1 and b == s2)


def pair_degree(edges, s1, s2):
    return pair_outdegree(edges, s1, s2) + pair_outdegree(edges, s2, s1)


def node_degree(edges, s):
    return sum(w for a, b, w in edges if a == s or b == s)


def max_node_degree(edges, services):
    return max((node_degree(edges, s) for s in services), default=0)


def lwf(edges, s1, s2):
    return (1 + pair_outdegree(edges, s1, s2)) / (1 + pair_degree(edges, s1, s2))


def gwf(edges, services, s1, s2):
    return pair_degree(edges, s1, s2) / max_node_degree(edges, services)


def sc(edges, services, s1, s2):
    d = pair_degree(edges, s1, s2)
    return 1 - (1 / d) * lwf(edges, s1, s2) * gwf(edges, services, s1, s2)


def stats(values):
    """(count, max, avg, median, stdev, total) of a per-pair value list, by the ``statistics`` module."""
    if not values:
        return (0, None, None, None, None, None)
    total = sum(values)
    return (len(values), max(values), total / len(values), statistics.median(values), statistics.pstdev(values), total)


def is_rounded_pstdev(values, stdev):
    """Whether ``stdev`` is the float nearest the square root of the exact population variance, ties to even.

    The variance is computed in fractions; the root is bracketed by the
    midpoints between ``stdev`` and its neighbouring floats, so no square
    root is taken.
    """
    xs = [Fraction(value) for value in values]
    mean = sum(xs) / len(xs)
    variance = sum((x - mean) ** 2 for x in xs) / len(xs)
    if not (math.isfinite(stdev) and stdev >= 0):
        return False
    below, above = ((Fraction(stdev) + Fraction(math.nextafter(stdev, side))) / 2 for side in (-math.inf, math.inf))
    even = struct.unpack("<Q", struct.pack("<d", stdev))[0] % 2 == 0
    fits_below = stdev == 0 or below * below < variance or (below * below == variance and even)
    fits_above = variance < above * above or (variance == above * above and even)
    return fits_below and fits_above


def pair_matrix_csv(analysis, metric, places):
    """One pair metric as an n x n CSV: a list of n cells per row, filled from the pair rows."""
    services = analysis.graph.service_ids
    column = {service: index for index, service in enumerate(services)}
    rows = {service: [""] * len(services) for service in services}
    for s1, s2, pair in analysis.pairs:
        value = getattr(pair, metric)
        rows[s1][column[s2]] = f"{value:.{places}f}" if isinstance(value, float) else str(value)
    lines = ["service," + ",".join(services)]
    lines.extend(service + "," + ",".join(rows[service]) for service in services)
    return "".join(line + "\n" for line in lines)


def connected_pairs(edges):
    pairs = set()
    for a, b, _ in edges:
        pairs.add((a, b))
        pairs.add((b, a))
    return sorted(pairs)


def providers(edges, s):
    """Total weight from ``s`` to each service it depends on."""
    totals = {}
    for a, b, w in edges:
        if a == s:
            totals[b] = totals.get(b, 0) + w
    return totals


def clients(edges, s):
    """Total weight to ``s`` from each service depending on it."""
    return providers([(b, a, w) for a, b, w in edges], s)


def ais(edges, s):
    return len({a for a, b, _ in edges if b == s and a != s})


def ads(edges, s):
    return len({b for a, b, _ in edges if a == s and b != s})


def acs(edges, s):
    return ais(edges, s) * ads(edges, s)


def siy(edges):
    directed = {(a, b) for a, b, _ in edges}
    return sum(1 for a, b in directed if a < b and (b, a) in directed)


def component_count(services, edges, removed=None):
    """Number of connected components of the undirected simple projection."""
    remaining = [s for s in services if s != removed]
    neighbors = {s: set() for s in remaining}
    for a, b, _ in edges:
        if a == removed or b == removed:
            continue
        neighbors[a].add(b)
        neighbors[b].add(a)
    seen = set()
    components = 0
    for start in remaining:
        if start in seen:
            continue
        components += 1
        queue = [start]
        while queue:
            node = queue.pop()
            if node in seen:
                continue
            seen.add(node)
            queue.extend(neighbors[node] - seen)
    return components


def articulation_points(services, edges):
    """Remove each service in turn and recount components."""
    base = component_count(services, edges)
    return {
        s for s in services if component_count(services, edges, removed=s) > base
    }


def source_units(directory):
    """The ``.java`` files under ``directory`` as ``Path.rglob`` sees them."""
    return sum(1 for path in Path(directory).rglob("*") if path.is_file() and path.suffix == ".java")


def first_repeated_key(value):
    """The key that the first JSON object to close with a repeated key repeats first; None if none repeats.

    An object is a list of ``(key, value)`` pairs in text order, so it can
    hold a key twice, and an array is a tuple.  An object closes after
    every value inside it, and those close in text order.
    """
    if isinstance(value, tuple):
        items = value
    elif isinstance(value, list):
        items = [item for _, item in value]
    else:
        return None
    for item in items:
        key = first_repeated_key(item)
        if key is not None:
            return key
    if isinstance(value, list):
        keys = [key for key, _ in value]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                return key
    return None
