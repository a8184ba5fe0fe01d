"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ImpulseLabError` so the CLI
can map failures to exit codes (config errors vs numerical guards vs I/O).
"""


class ImpulseLabError(Exception):
    """Base class for all errors raised by this package.

    `field` names the parameter a range check rejected, where there is one, so
    that callers can report the error against their own name for it.
    """

    def __init__(self, message: str = "", field: str | None = None):
        super().__init__(message)
        self.field = field


class ConfigError(ImpulseLabError):
    """Invalid configuration file, key, or cross-field constraint."""


class ShapeError(ImpulseLabError):
    """Mismatched horizons or dimensions between paths."""


class InvalidDistortionError(ImpulseLabError):
    """Time distortion violates its invariants (not an increasing bijection)."""


class InvalidInputError(ImpulseLabError):
    """Impulse-time inputs violate ordering or range preconditions."""


class ComplexityGuardError(ImpulseLabError):
    """Brute-force search refused because the instance is too large."""


class HorizonError(ImpulseLabError):
    """Horizon does not lie strictly between two impulse times."""


class ResolutionError(ImpulseLabError):
    """Integration step too coarse for the requested operation."""


class RunawayError(ImpulseLabError):
    """Simulation produced more impulses than the configured cap."""


class ParameterError(ImpulseLabError):
    """Scalar parameter outside its admissible range."""


class DomainError(ImpulseLabError):
    """Scalar function argument outside the mathematical domain."""


class AlignmentError(ImpulseLabError):
    """Grids of coupled objects do not coincide."""


class BoundSearchError(ImpulseLabError):
    """No admissible transform parameter found within the search budget."""


class DataError(ImpulseLabError):
    """Statistical routine received unusable data."""
