"""Structural coupling metrics for microservice dependency graphs."""

from .errors import (
    CouplingError,
    DuplicateService,
    EmptyGraph,
    ParseError,
    SelfDependency,
    UnconnectedPair,
    UnknownService,
    ValidationError,
)
from .graph import DependencyEdge, EdgeKind, ServiceGraph, ServiceId, ServiceNode
from .metrics import (
    PairMetrics,
    ProjectSummary,
    ServiceMetrics,
    StatSummary,
    analyze,
    pair_matrix,
    project_summary,
)
from .report import ColorClass, RenderOptions

__all__ = [
    "ColorClass",
    "CouplingError",
    "DependencyEdge",
    "DuplicateService",
    "EdgeKind",
    "EmptyGraph",
    "PairMetrics",
    "ParseError",
    "ProjectSummary",
    "RenderOptions",
    "SelfDependency",
    "ServiceGraph",
    "ServiceId",
    "ServiceMetrics",
    "ServiceNode",
    "StatSummary",
    "UnconnectedPair",
    "UnknownService",
    "ValidationError",
    "analyze",
    "pair_matrix",
    "project_summary",
]

__version__ = "0.1.0"
