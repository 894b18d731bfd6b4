"""Small hand-built graphs reused across test modules."""

from __future__ import annotations

import random

from mscoupling.graph import DependencyEdge, ServiceGraph, ServiceNode


def make_single_edge() -> ServiceGraph:
    """Two services, one call from A to B."""
    return ServiceGraph.build(
        [ServiceNode("A"), ServiceNode("B")],
        [DependencyEdge("A", "B")],
    )


def make_star4() -> ServiceGraph:
    """Four leaves each calling one hub."""
    nodes = [ServiceNode("hub")] + [ServiceNode(f"leaf{i}") for i in range(1, 5)]
    edges = [DependencyEdge(f"leaf{i}", "hub") for i in range(1, 5)]
    return ServiceGraph.build(nodes, edges)


def make_chain3() -> ServiceGraph:
    """Three services in a line: A calls B, B calls C."""
    return ServiceGraph.build(
        [ServiceNode("A"), ServiceNode("B"), ServiceNode("C")],
        [DependencyEdge("A", "B"), DependencyEdge("B", "C")],
    )


def make_hub(seed: int, services: int = 60) -> ServiceGraph:
    """Seeded system whose calls mostly go to a few hubs, so many pairs share a degree class."""
    rng = random.Random(seed)
    names = [f"svc{i:02d}" for i in range(services)]
    hubs = names[:4]
    edges = []
    for source in names:
        for _ in range(rng.randint(1, 4)):
            target = rng.choice(hubs) if rng.random() < 0.7 else rng.choice(names)
            if target != source:
                edges.append(DependencyEdge(source, target, weight=rng.choice((1, 1, 1, 2, 3))))
    return ServiceGraph.build([ServiceNode(name) for name in names], edges)
