"""Exception hierarchy shared across the package."""


class KinkprobeError(Exception):
    """Base class for all package-specific errors."""


class InputError(KinkprobeError, ValueError):
    """Invalid argument values (bad lengths, out-of-range parameters, ...)."""


class SizeError(InputError):
    """A size limit was exceeded (e.g. brute-force enumeration beyond 2^24)."""


class GridMismatchError(InputError):
    """Characteristic-function samples do not sit on the expected phase grid."""


class EstimationError(KinkprobeError, RuntimeError):
    """A signal-analysis step (e.g. period detection) found nothing usable."""
