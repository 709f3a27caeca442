"""Run configuration: a flat key-file format plus command-line overrides.

A config file holds one ``section.key = value`` pair per line.  Blank
lines and lines starting with ``#`` are skipped.  The same dotted keys
can be passed on the command line as ``--section.key value``; overrides
are applied after the file is read.  Unknown keys are rejected rather
than ignored so that typos fail loudly.

The component configs (``DiffusionConfig``, ``ProjectionConfig``,
``RpConfig``, ``SynthConfig``) declare each knob's meaning, range and
default; ``RunConfig`` mirrors their fields flat and takes their defaults.
Each key and its parser are derived from a ``RunConfig`` field and its
type hint.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field, fields

from .diffusion import DiffusionConfig
from .errors import ConfigError
from .grid import DEFAULT_HEIGHT, DEFAULT_WIDTH
from .oracle import IOU_THRESHOLDS, EvalPipeline
from .projection import ProjectionConfig, RpConfig
from .synth import SynthConfig


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in ("true", "yes", "on", "1"):
        return True
    if low in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _list_parser(item):
    """Parser of a comma-separated list; an empty value is an empty list."""

    def parse(text: str) -> list:
        stripped = text.strip()
        return [item(tok) for tok in stripped.split(",")] if stripped else []

    return parse


_PARSERS = {
    bool: _parse_bool,
    int: int,
    float: float,
    str: str,
    list[float]: _list_parser(float),
    list[int]: _list_parser(int),
}


@dataclass
class RunConfig:
    """Everything a pipeline run needs, flat, with the components' defaults.

    Builders validate lazily: a component is checked only when a command
    builds it, so a knob that a command does not use cannot fail it.
    """

    frame_width: int = DEFAULT_WIDTH
    frame_height: int = DEFAULT_HEIGHT
    frame_ring: int = DiffusionConfig.ring
    blank_max_ones: int = 0
    alpha: float = DiffusionConfig.alpha
    substeps_per_pulse: int = DiffusionConfig.substeps_per_pulse
    amplitude: float = DiffusionConfig.amplitude
    pulses: int = DiffusionConfig.pulses
    vth: float = DiffusionConfig.vth
    dac_code: int = ProjectionConfig.dac_code
    line_charge_constant: float = ProjectionConfig.line_charge_constant
    size_min: int = RpConfig.size_min
    slot_r: int = RpConfig.slot_r
    slot_c: int = RpConfig.slot_c
    max_iters: int = RpConfig.max_iters
    size_metric: str = RpConfig.size_metric
    pipeline_restore: bool = EvalPipeline.restore
    pipeline_consolidate: bool = EvalPipeline.consolidate
    propose_restore: bool = False
    eval_iou_thresholds: list[float] = field(default_factory=lambda: list(IOU_THRESHOLDS))
    eval_sweep_amplitudes: list[float] = field(default_factory=list)
    eval_sweep_substeps: list[int] = field(default_factory=list)
    synth_frames: int = 16
    objects_min: int = SynthConfig.objects_min
    objects_max: int = SynthConfig.objects_max
    side_min: int = SynthConfig.side_min
    side_max: int = SynthConfig.side_max
    band_min: int = SynthConfig.band_min
    noise_density: float = SynthConfig.noise_density
    fragment_gap: int = SynthConfig.fragment_gap
    seed: int = SynthConfig.seed

    def _pick(self, component, **extra):
        """Build a component from the fields it shares with this config."""
        return component(**{name: getattr(self, name) for name in _SHARED[component]}, **extra)

    def diffusion_config(self) -> DiffusionConfig:
        return self._pick(DiffusionConfig, ring=self.frame_ring)

    def rp_config(self) -> RpConfig:
        return self._pick(RpConfig, projection=self._pick(ProjectionConfig))

    def synth_config(self) -> SynthConfig:
        return self._pick(SynthConfig, width=self.frame_width, height=self.frame_height)

    def pipeline(self, restore: bool, consolidate: bool = True) -> EvalPipeline:
        """The per-frame pipeline on these knobs, diffusion checked before rp.

        The diffusion knobs are built, and so checked, only when the pipeline
        restores; otherwise it gets the defaults, whose ring sizes only the
        diffused cells, which 0 substeps multiply away.
        """
        diffusion = self.diffusion_config() if restore else DiffusionConfig()
        return EvalPipeline(diffusion, self.rp_config(), restore=restore, consolidate=consolidate)

    def eval_pipeline(self) -> EvalPipeline:
        return self.pipeline(self.pipeline_restore, self.pipeline_consolidate)


_SECTIONS = {DiffusionConfig: "diffusion", ProjectionConfig: "projection",
             RpConfig: "rp", SynthConfig: "synth"}
_SHARED = {
    c: [f.name for f in fields(c) if f.name in RunConfig.__dataclass_fields__] for c in _SECTIONS
}
_SECTION_OF = {name: _SECTIONS[c] for c, names in _SHARED.items() for name in names}


def _key(name: str) -> str:
    """Dotted key of a RunConfig field.

    A component's field takes that component's section (``alpha`` is
    ``diffusion.alpha``); any other field ``section_name`` is ``section.name``.
    """
    return f"{_SECTION_OF[name]}.{name}" if name in _SECTION_OF else name.replace("_", ".", 1)


_BY_KEY = {
    _key(name): (name, _PARSERS[hint]) for name, hint in typing.get_type_hints(RunConfig).items()
}


def set_key(cfg: RunConfig, key: str, value: str) -> None:
    """Assign one dotted key on ``cfg``, converting the string value."""
    try:
        attr, conv = _BY_KEY[key]
    except KeyError:
        raise ConfigError(f"unknown configuration key: {key!r}") from None
    try:
        setattr(cfg, attr, conv(value))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from None


def parse_config_text(text: str, cfg: RunConfig | None = None, source: str = "<config>") -> RunConfig:
    cfg = cfg if cfg is not None else RunConfig()
    set_on: dict[str, int] = {}  # key -> the line that set it
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in set_on:
            raise ConfigError(f"{source}:{lineno}: {key} is already set on line {set_on[key]}")
        set_on[key] = lineno
        set_key(cfg, key, value.strip())
    return cfg


def load_config(path: str | None, overrides: list[tuple[str, str]] | None = None) -> RunConfig:
    """Build a RunConfig from an optional file plus ``(key, value)`` overrides."""
    cfg = RunConfig()
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc.strerror}") from None
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config file {path} is not UTF-8: {exc.reason} "
                              f"at byte {exc.start}") from None
        parse_config_text(text, cfg, source=path)
    for key, value in overrides or []:
        set_key(cfg, key, value)
    return cfg


def known_keys() -> list[str]:
    return sorted(_BY_KEY)
