"""Cycle accounting and operation counts."""

from collections import Counter

import numpy as np
import pytest

from cramsim.errors import ConfigError
from cramsim.grid import BinaryFrame
from cramsim.projection import RpConfig, region_propose
from cramsim.timing import (
    CONTROLLER_FIXED,
    CONTROLLER_OBJECT,
    CYCLES,
    DIFFUSION_OPS_PER_CELL,
    FULL_AXIS_PROJECTION,
    REGION_PROJECTION,
    CycleTrace,
    cost_report,
    minimal_cycles_imc,
    minimal_cycles_total,
    trace_cycles,
)


def test_default_costs():
    assert CYCLES == {
        FULL_AXIS_PROJECTION: 8,
        REGION_PROJECTION: 8,
        CONTROLLER_OBJECT: 2,
        CONTROLLER_FIXED: 4,
    }


def test_trace_keeps_nonzero_counts_in_cycles_order():
    tr = CycleTrace({CONTROLLER_OBJECT: 0, REGION_PROJECTION: 5, FULL_AXIS_PROJECTION: 1})
    assert dict(tr.counts) == {FULL_AXIS_PROJECTION: 1, REGION_PROJECTION: 5}
    assert tr.entries == [(FULL_AXIS_PROJECTION, 1), (REGION_PROJECTION, 5)]
    assert tr.counts.get(REGION_PROJECTION, 0) == 5
    assert tr.counts.get(CONTROLLER_OBJECT, 0) == 0
    assert "warp_drive" not in tr.counts
    assert tr == CycleTrace({REGION_PROJECTION: 5, FULL_AXIS_PROJECTION: 1})
    assert CycleTrace() == CycleTrace({CONTROLLER_FIXED: 0})
    assert trace_cycles(CycleTrace()) == 0
    with pytest.raises(TypeError):
        tr.counts[REGION_PROJECTION] = 6
    with pytest.raises(AttributeError):
        tr.counts = {}


@pytest.mark.parametrize("counts", [
    {"warp_drive": 1},
    {REGION_PROJECTION: -1},
    {REGION_PROJECTION: 1.0},
    {REGION_PROJECTION: True},
    {REGION_PROJECTION: np.int64(2)},
])
def test_trace_rejects_bad_counts(counts):
    with pytest.raises(ConfigError):
        CycleTrace(counts)


def test_trace_cycles_is_additive():
    a = CycleTrace({FULL_AXIS_PROJECTION: 1, REGION_PROJECTION: 3})
    b = CycleTrace({REGION_PROJECTION: 2, CONTROLLER_OBJECT: 5, CONTROLLER_FIXED: 1})
    both = CycleTrace(Counter(a.counts) + Counter(b.counts))
    assert both.counts.get(REGION_PROJECTION, 0) == 5
    assert trace_cycles(a) == 8 + 3 * 8
    assert trace_cycles(b) == 2 * 8 + 5 * 2 + 4
    assert trace_cycles(both) == trace_cycles(a) + trace_cycles(b)


@pytest.mark.parametrize(
    "n,imc,total",
    [(0, 8, 12), (1, 16, 22), (3, 32, 42), (5, 48, 62), (10, 88, 112), (16, 136, 172)],
)
def test_minimal_cycle_formulas(n, imc, total):
    assert minimal_cycles_imc(n) == imc
    assert minimal_cycles_total(n) == total


def test_minimal_cycles_reject_negative():
    with pytest.raises(ConfigError):
        minimal_cycles_imc(-1)


def test_cost_report_small_grid():
    # blank 1x1 frame in a ring of 1: 3x3 diffused cells, one substep
    res = region_propose(BinaryFrame.zeros(1, 1), RpConfig())
    cost = cost_report(res, substeps=1, cells=9)
    assert cost.diffusion_ops == 45
    assert DIFFUSION_OPS_PER_CELL == 5
    assert cost_report(res).diffusion_ops == 0


def test_cost_report_full_axis_sensor():
    res = region_propose(BinaryFrame.zeros(320, 240), RpConfig())
    assert cost_report(res) == (8, 12, 0, 320 * 240)


def test_cost_report_accumulates_projections():
    f = BinaryFrame.zeros(64, 64)
    f.pixels[10:20, 5:15] = 1
    f.pixels[40:44, 30:33] = 1
    res = region_propose(f, RpConfig())
    cost = cost_report(res, substeps=2 * 8, cells=66 * 66)
    # one entry per pass: the full frame, then both row-band candidates together
    assert res.search.projection_cells == [64 * 64, 10 * 64 + 4 * 64]
    assert len(res.search.projection_cells) == res.search.iterations
    assert cost.projection_ops == 64 * 64 + 10 * 64 + 4 * 64
    assert cost.diffusion_ops == 2 * 8 * 66 * 66 * 5
    assert cost.imc_cycles == trace_cycles(res.search.trace) == 24
    assert cost.total_cycles == trace_cycles(res.trace) == 24 + 2 * 2 + 4
