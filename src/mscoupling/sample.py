"""Built-in demo system used by the ``example`` CLI command."""

from .graph import DependencyEdge, ServiceGraph, ServiceNode

SAMPLE_PROJECT_NAME = "example"


def sample_graph() -> ServiceGraph:
    """Five services with one central provider.

    B, C, D and E each call A, and A calls E back, so A is the system
    hub (in 4 / out 1 / degree 5) and {A, E} is the single mutually
    dependent pair.  Class counts are attached so CBM is defined for
    every service.
    """
    return ServiceGraph.build(
        nodes=(
            ServiceNode("A", class_count=50),
            ServiceNode("B", class_count=10),
            ServiceNode("C", class_count=11),
            ServiceNode("D", class_count=17),
            ServiceNode("E", class_count=30),
        ),
        edges=(
            DependencyEdge("B", "A"),
            DependencyEdge("C", "A"),
            DependencyEdge("D", "A"),
            DependencyEdge("E", "A"),
            DependencyEdge("A", "E"),
        ),
    )
