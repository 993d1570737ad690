"""The public surface: ``tripop.__all__`` is exactly what the library
modules define, every error type the library can raise is exported, no
module reads the environment, and only the CLI writes files."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import tripop
from tripop import errors


def test_all_names_resolve():
    assert [name for name in tripop.__all__ if not hasattr(tripop, name)] == []
    assert len(set(tripop.__all__)) == len(tripop.__all__)


def test_all_is_the_library_surface():
    """``__all__`` lists every public function and class that a library
    module (all but the CLI) defines, and nothing else, so a deleted name
    cannot linger in it."""
    modules = [importlib.import_module(f"tripop.{m.name}") for m in pkgutil.iter_modules(tripop.__path__)]
    defined = {
        name
        for module in modules
        if module.__name__ != "tripop.cli"
        for name, obj in vars(module).items()
        if not name.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert sorted(tripop.__all__) == sorted(defined)


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


def _writes_files(source: str) -> bool:
    """Whether the module calls ``open`` with a writing mode, or a numpy or
    pathlib writer."""
    writers = {"write_text", "write_bytes", "savetxt", "save", "savez", "savez_compressed", "tofile"}
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if name in writers:
            return True
        if name == "open":
            modes = [kw.value for kw in node.keywords if kw.arg == "mode"] + node.args[1:2]
            if any(not isinstance(m, ast.Constant) or set(str(m.value)) & set("wax+") for m in modes):
                return True
    return False


def test_only_the_cli_writes_files():
    """``cli.py`` alone decides file formats: no other module opens a file for writing."""
    package = Path(tripop.__file__).parent
    sources = {path.name: path.read_text() for path in sorted(package.rglob("*.py"))}
    assert _writes_files(sources["cli.py"])
    assert [name for name, source in sources.items() if name != "cli.py" and _writes_files(source)] == []
