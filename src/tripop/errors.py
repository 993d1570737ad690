"""Exception types raised by the tripop library.

Every error the library raises is a ``TripopError``.  A refused input raises
``InvalidInputError``; the other two report the outcome of a run on valid
input.
"""


class TripopError(Exception):
    """Base class for all tripop errors."""


class InvalidInputError(TripopError, ValueError):
    """An input is refused before it is used: a value out of its domain, a
    malformed text, or a request too large to hold.  It is also a
    ``ValueError``, the type Python gives to a bad argument value."""


class RepeatedRootError(TripopError):
    """The paper's (1, x, y) gauge does not exist: a dressed state has no level-1 component."""


class NormDriftExceededError(TripopError):
    """The integrator norm drift exceeded tolerance; the step size is too large."""
