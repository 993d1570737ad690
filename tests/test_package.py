"""The public surface: every name ``tripop.__all__`` promises exists, and
every error type the library can raise is exported."""

import inspect

import tripop
from tripop import errors


def test_all_names_resolve():
    assert [name for name in tripop.__all__ if not hasattr(tripop, name)] == []
    assert len(set(tripop.__all__)) == len(tripop.__all__)


def test_every_error_type_is_exported():
    defined = {
        name
        for name, obj in vars(errors).items()
        if inspect.isclass(obj) and issubclass(obj, errors.TripopError) and obj.__module__ == errors.__name__
    }
    assert "TripopError" in defined
    assert defined - set(tripop.__all__) == set()
