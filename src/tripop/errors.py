"""Exception types raised by the tripop library."""


class TripopError(Exception):
    """Base class for all tripop errors."""


class RepeatedRootError(TripopError):
    """The paper's (1, x, y) gauge does not exist: a dressed state has no level-1 component."""


class InvalidPairError(TripopError):
    """An odd-integer pair violates the family constraints (non-odd entries or n1*n2 <= 0)."""


class OutOfRangeError(TripopError):
    """A tabulated pulse was queried outside its time table."""


class NormDriftExceededError(TripopError):
    """The integrator norm drift exceeded tolerance; the step size is too large."""


class InvalidConfigError(TripopError):
    """Integrator configuration is unusable (bad step or stride, or too many records)."""
