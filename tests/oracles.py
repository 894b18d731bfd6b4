"""Brute-force reference computations for cross-checking the engine.

Everything here works directly on a raw ``(source, target, weight)``
edge list plus the service name list, sharing no code with the package
under test.  Slow and obvious on purpose.
"""

from __future__ import annotations

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
