"""Shared utilities: circle geometry, validation, tables, parallel map.

Each public name loads its module on first use, so importing
:mod:`repro.util` does not start the process-pool machinery of
:mod:`repro.util.parallel`.
"""

from .lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        ".circular": ("circular",),
        ".errors": (
            "errors",
            "ReproError",
            "InvalidBlockError",
            "InvalidCoveringError",
            "RoutingError",
            "ConstructionError",
            "SolverError",
            "TopologyError",
            "CapacityError",
        ),
        ".parallel": ("parallel",),
        ".tables": ("tables",),
        ".validation": ("validation",),
    },
)
