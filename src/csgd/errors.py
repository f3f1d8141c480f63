"""Exception types shared across the package, and the checks that raise ConfigError."""

import math
import numbers


class ConfigError(ValueError):
    """A configuration file or parameter block failed validation."""


class NonConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


class DegenerateDiagnosticError(RuntimeError):
    """The coupled-distance reference fell below the positivity floor."""


class DegenerateDirectionError(ValueError):
    """The initial difference vector is orthogonal to the required eigendirection."""


class HorizonTooShortError(ValueError):
    """Requested horizon cannot flush the transient for the certified rate."""


def check_int(name: str, value, least: int) -> None:
    """Raise ConfigError unless ``value`` is an integer, not a bool, >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ConfigError(f"{name} must be an integer >= {least}, got {value!r}")


def check_real(name: str, value, least: float, strict: bool = False,
               most: float | None = None, strict_most: bool = False) -> None:
    """Raise ConfigError unless ``value`` is a finite real >= ``least`` (> when ``strict``)
    and, given ``most``, <= ``most`` (< when ``strict_most``)."""
    if not (isinstance(value, numbers.Real) and math.isfinite(value)
            and (value > least if strict else value >= least)
            and (most is None or (value < most if strict_most else value <= most))):
        bounds = f"{'>' if strict else '>='} {least}"
        if most is not None:
            bounds += f" and {'<' if strict_most else '<='} {most}"
        raise ConfigError(f"{name} must be finite and {bounds}, got {value!r}")


def check_bool(name: str, value) -> None:
    """Raise ConfigError unless ``value`` is a bool."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be a bool, got {value!r}")
