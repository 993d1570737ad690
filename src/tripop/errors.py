"""Exception types raised by the tripop library."""


class TripopError(Exception):
    """Base class for all tripop errors."""


class RepeatedRootError(TripopError):
    """The eigenvalue cubic degenerates, or the paper's (1, x, y) gauge does not exist.

    The cubic degenerates at a vanishing leading coefficient or a repeated
    root; the gauge is missing where a dressed state has no level-1 component.
    """


class ComplexRootsError(TripopError):
    """The eigenvalue cubic produced complex roots; parameters lie outside the real-spectrum regime."""


class InvalidPairError(TripopError):
    """An odd-integer pair violates the family constraints (non-odd entries or n1*n2 <= 0)."""


class IdealKickPointQueryError(TripopError):
    """An ideal kick was sampled exactly at its firing time; it has no pointwise value there."""


class OutOfRangeError(TripopError):
    """A tabulated pulse was queried outside its time table."""


class NormDriftExceededError(TripopError):
    """The integrator norm drift exceeded tolerance; the step size is too large."""


class InvalidConfigError(TripopError):
    """Integrator configuration is unusable (bad step, bad recording stride, or an ideal kick)."""


class VerificationFailedError(TripopError):
    """At least one transfer-condition verification check failed."""
