"""Cycle accounting for region-proposal traces and a frame's modeled cost.

The controller's minimal execution time is linear in the object count N:
8N+8 cycles for the in-memory phase alone and 10N+12 with controller
bookkeeping. The per-op cycle costs are calibrated so a minimal trace
(one full-axis projection, one region projection per object, one
controller entry per object plus fixed overhead) reproduces both lines.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

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


@dataclass
class CycleTrace:
    """Ordered record of (op_kind, count) primitive operations.

    Per-kind totals are kept as entries arrive, so totals and cycle counts
    never re-walk the entries. Add entries through the methods only.
    """

    entries: list[tuple[str, int]] = field(default_factory=list)
    _totals: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries, self.entries = self.entries, []
        self._totals = dict.fromkeys(CYCLES, 0)
        for kind, count in entries:
            self.append(kind, count)

    def append(self, kind: str, count: int = 1) -> None:
        self.append_many(kind, 1, count)

    def append_many(self, kind: str, times: int, count: int = 1) -> None:
        """Append `times` identical (kind, count) entries, checking them once."""
        if kind not in CYCLES:
            raise ConfigError(f"unknown op kind {kind!r}")
        if count < 1:
            raise ConfigError(f"entry count must be >= 1, got {count}")
        if times < 0:
            raise ConfigError(f"entry repeat must be >= 0, got {times}")
        self.entries.extend([(kind, count)] * times)
        self._totals[kind] += times * count

    def total(self, kind: str) -> int:
        return self._totals.get(kind, 0)

    def copy(self) -> "CycleTrace":
        """An independent trace with the same entries and totals."""
        other = CycleTrace()
        other.entries = list(self.entries)
        other._totals = dict(self._totals)
        return other


def trace_cycles(trace: CycleTrace) -> int:
    """Total cycles of a trace (additive over concatenated entries)."""
    return sum(CYCLES[kind] * trace.total(kind) for kind in CYCLES)


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
    """Modeled cost of one region_propose run and the diffusion before it.

    imc_cycles charges the search's array projections only; total_cycles
    adds the controller entries. substeps counts the diffusion substeps run
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
