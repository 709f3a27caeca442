"""Behavioral simulator for a diffuse-then-project in-memory vision pipeline.

The package models an event-camera front end whose binary frames are
restored by resistor-capacitor diffusion inside the pixel array, then
searched for objects by iterative row/column projection, with a cycle
model tracking what the array and its controller would spend.
"""

from .diffusion import (
    DiffusionConfig,
    ProbeResult,
    apply_pulses,
    blank_frame_detect,
    diffuse_substep,
    probe_diffusion_speed,
    restore_image,
    threshold_restore,
)
from .errors import (
    ConfigError,
    CramSimError,
    FrameFormatError,
    GuardError,
    InputError,
)
from .grid import (
    AnalogState,
    BinaryFrame,
    load_frame,
)
from .oracle import (
    EvalPipeline,
    EvalReport,
    FrameSample,
    MatchResult,
    ccl,
    evaluate,
    evaluate_sweep,
    iou,
    match_boxes,
)
from .projection import (
    Box,
    IssResult,
    ProjectionConfig,
    ProposeResult,
    RpConfig,
    boxes_from_json,
    boxes_to_json,
    iss,
    line_trips,
    region_propose,
    rp_update,
)
from .synth import Scene, SynthConfig, generate_corpus, generate_scene
from .timing import (
    CycleTrace,
    cost_report,
    minimal_cycles_imc,
    minimal_cycles_total,
    trace_cycles,
)

__version__ = "0.1.0"

__all__ = [
    "AnalogState",
    "BinaryFrame",
    "Box",
    "ConfigError",
    "CramSimError",
    "CycleTrace",
    "DiffusionConfig",
    "EvalPipeline",
    "EvalReport",
    "FrameFormatError",
    "FrameSample",
    "GuardError",
    "InputError",
    "IssResult",
    "MatchResult",
    "ProbeResult",
    "ProjectionConfig",
    "ProposeResult",
    "RpConfig",
    "Scene",
    "SynthConfig",
    "apply_pulses",
    "blank_frame_detect",
    "boxes_from_json",
    "boxes_to_json",
    "ccl",
    "cost_report",
    "diffuse_substep",
    "evaluate",
    "evaluate_sweep",
    "generate_corpus",
    "generate_scene",
    "iou",
    "iss",
    "line_trips",
    "load_frame",
    "match_boxes",
    "minimal_cycles_imc",
    "minimal_cycles_total",
    "probe_diffusion_speed",
    "region_propose",
    "restore_image",
    "rp_update",
    "threshold_restore",
    "trace_cycles",
]
