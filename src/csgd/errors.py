"""Exception types shared across the package."""


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
