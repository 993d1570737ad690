"""The public surface: every name ``tripop.__all__`` promises exists, every
error type the library can raise is exported, and no module reads the
environment."""

import inspect
from pathlib import Path

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


def test_no_environment_input():
    """Only argv decides a CLI run: no module reads the environment."""
    package = Path(tripop.__file__).parent
    sources = sorted(package.rglob("*.py"))
    assert sources
    offenders = [
        (path.name, word)
        for path in sources
        for word in ("os.environ", "getenv", "TRIPOP_STEPS")
        if word in path.read_text()
    ]
    assert offenders == []
