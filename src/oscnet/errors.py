"""Exception types shared across the package, mapped to CLI exit codes."""

import math


class ConfigError(ValueError):
    """Invalid configuration value (bad depth, indivisible subset size, ...)."""


class DomainError(ValueError):
    """Input outside a function's domain (non-finite activation input)."""


class KinkError(ValueError):
    """Analytic derivative requested exactly at a non-differentiable point."""


class UnsupportedPropertyError(ValueError):
    """A property check was requested for an id with no tabulated value."""


class ShapeError(ValueError):
    """Tensor arguments do not conform; message lists expected vs actual."""


class LabelError(ValueError):
    """Class label outside the valid range."""


class DataFormatError(ValueError):
    """Malformed data file or record stream; the message names its source."""


class CorruptRecordError(DataFormatError):
    """A record failed validation; carries the byte offset of the record."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


class DivergenceError(RuntimeError):
    """Training produced a non-finite loss; carries the batch index."""

    def __init__(self, message: str, batch_index: int):
        super().__init__(message)
        self.batch_index = batch_index


def require_positive(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is finite and > 0 (NaN fails too)."""
    if not 0 < value < math.inf:
        raise ConfigError(f"{name} must be finite and positive, got {value!r}")
