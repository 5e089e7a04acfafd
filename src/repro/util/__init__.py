"""Shared utilities: circle geometry, validation, tables, parallel map."""

from . import circular, errors, parallel, tables, validation
from .errors import (
    CapacityError,
    ConstructionError,
    InvalidBlockError,
    InvalidCoveringError,
    ReproError,
    RoutingError,
    SolverError,
    TopologyError,
)

__all__ = [
    "circular",
    "errors",
    "parallel",
    "tables",
    "validation",
    "ReproError",
    "InvalidBlockError",
    "InvalidCoveringError",
    "RoutingError",
    "ConstructionError",
    "SolverError",
    "TopologyError",
    "CapacityError",
]
