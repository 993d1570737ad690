"""Exception types raised by the tripop library.

Every error the library raises is a ``TripopError``.  A refused input raises
``InvalidInputError``; the other one, ``NormDriftExceededError``, reports
an RK4 run on valid input whose norm drifted past its limit.
"""


class TripopError(Exception):
    """Base class for all tripop errors."""


class InvalidInputError(TripopError, ValueError):
    """An input is refused before it is used: a value out of its domain, a
    malformed text, or a request too large to hold.  It is also a
    ``ValueError``, the type Python gives to a bad argument value."""


class NormDriftExceededError(TripopError):
    """The integrator norm drift exceeded tolerance; the step size is too large.

    When ``integrate_batch`` raises it, ``traces`` holds the batch's traces
    in run order, None for each run whose drift was past the limit."""
