"""Exception types shared across the package.

Everything raised on purpose derives from :class:`ImpulseLabError`, and there
is one subclass per decision a caller makes: the CLI exits 2 on
:class:`ConfigError` and 3 on any other package error, re-keys a
:class:`ParameterError` by its `field`, and `read_path_csv` relabels a
:class:`DataError` as a malformed file.
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


class ParameterError(ImpulseLabError):
    """Scalar input outside its admissible range or domain, or a numerical
    guard: a step too coarse, a horizon on an impulse time, an impulse count
    over its cap, a bound search that found nothing."""


class DataError(ImpulseLabError):
    """Malformed arrays, paths, distortions or grids: mismatched shapes or
    horizons, broken ordering, or an instance too large to search."""
