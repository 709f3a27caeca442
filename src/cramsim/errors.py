"""Exception taxonomy shared across the simulator.

Each class maps to one CLI exit code so failures stay distinguishable
in scripted runs: input/parse errors -> 1, configuration and command-line
usage errors -> 2, internal guards -> 3.
"""


class CramSimError(Exception):
    """Base class for all simulator errors."""

    exit_code = 1


class InputError(CramSimError):
    """Malformed or out-of-range input data (files, frames)."""

    exit_code = 1


class FrameFormatError(InputError):
    """Unparseable frame payload; carries the failing byte offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class ConfigError(CramSimError):
    """A knob outside its documented range, an invalid config file, or a usage error."""

    exit_code = 2


class GuardError(CramSimError):
    """An internal safety guard tripped (e.g. a probe that never settles)."""

    exit_code = 3
