"""Cycle accounting for region-proposal traces and a frame's modeled cost.

The controller's minimal execution time is linear in the object count N:
8N+8 cycles for the in-memory phase alone and 10N+12 with controller
bookkeeping. The per-op cycle costs are calibrated so a minimal trace
(one full-axis projection, one region projection per object, one
controller op per object plus fixed overhead) reproduces both lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import TYPE_CHECKING, Mapping, NamedTuple

from .errors import ConfigError

if TYPE_CHECKING:
    from .projection import ProposeResult

FULL_AXIS_PROJECTION = "full_axis_projection"
REGION_PROJECTION = "region_projection"
CONTROLLER_OBJECT = "controller_object"
CONTROLLER_FIXED = "controller_fixed"

# Cycles charged per primitive operation.
CYCLES = {
    FULL_AXIS_PROJECTION: 8,
    REGION_PROJECTION: 8,
    CONTROLLER_OBJECT: 2,
    CONTROLLER_FIXED: 4,
}

DIFFUSION_OPS_PER_CELL = 5  # 4 neighbor adds + 1 scale per cell per substep


@dataclass(frozen=True)
class CycleTrace:
    """How many primitive operations of each kind a run charged.

    Checked when built: every kind must be in CYCLES and every count an
    int >= 0. Kinds with count 0 are dropped, the rest kept in CYCLES
    order, so traces with the same counts compare equal.
    """

    counts: Mapping[str, int] = field(default_factory=dict)

    def __post_init__(self):
        for kind, count in self.counts.items():
            if kind not in CYCLES:
                raise ConfigError(f"unknown op kind {kind!r}")
            if type(count) is not int or count < 0:
                raise ConfigError(f"op count must be an int >= 0, got {count!r}")
        nonzero = {kind: self.counts[kind] for kind in CYCLES if self.counts.get(kind)}
        object.__setattr__(self, "counts", MappingProxyType(nonzero))

    @property
    def entries(self) -> list[tuple[str, int]]:
        """The nonzero (kind, count) pairs in CYCLES order.

        Only perfbench/tracer.py reads this. It goes away once the tracer
        reads counts.get(REGION_PROJECTION, 0) instead (ROADMAP item 1).
        """
        return list(self.counts.items())


def trace_cycles(trace: CycleTrace) -> int:
    """Total cycles of a trace: each kind's count times its cost, summed."""
    return sum(CYCLES[kind] * count for kind, count in trace.counts.items())


def minimal_cycles_imc(n_objects: int) -> int:
    """Best-case in-memory cycles for n_objects well-separated objects: 8N+8."""
    if n_objects < 0:
        raise ConfigError("object count must be >= 0")
    return 8 * n_objects + 8


def minimal_cycles_total(n_objects: int) -> int:
    """Best-case cycles including controller bookkeeping: 10N+12."""
    if n_objects < 0:
        raise ConfigError("object count must be >= 0")
    return 10 * n_objects + 12


class CostReport(NamedTuple):
    """One frame's modeled cost, in ``cycles.csv`` column order."""

    imc_cycles: int
    total_cycles: int
    diffusion_ops: int
    projection_ops: int


def cost_report(result: ProposeResult, substeps: int = 0, cells: int = 0) -> CostReport:
    """Modeled cost of one proposal and the diffusion before it.

    imc_cycles charges the search's array projections only; total_cycles
    adds the controller ops. substeps counts the diffusion substeps run
    before the search (0 for an unrestored frame) and cells the diffused
    array, dummy ring included. projection_ops counts the cells sensed by
    every projection of the search.
    """
    return CostReport(
        imc_cycles=trace_cycles(result.search.trace),
        total_cycles=trace_cycles(result.trace),
        diffusion_ops=substeps * cells * DIFFUSION_OPS_PER_CELL,
        projection_ops=sum(result.search.projection_cells),
    )
