"""The public surface: ``tripop.__all__`` is exactly what the library
modules define, every error type the library can raise is exported, a
refused input raises ``InvalidInputError`` and never a bare ``ValueError``,
each refusal names its fault (on the CLI in one ``error:`` line),
every name the benchmark reads exists and its record stride is the
library's, no module reads the environment, only the CLI writes files, its
commands write through one path, one module reaches the eigensolver, no
module imports a name it never reads or another module's private name, and
every RK4 entry point takes its step as an ``IntegratorConfig``."""

import ast
import importlib
import inspect
import math
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import tripop
from tripop import (
    CouplingRatios,
    InvalidInputError,
    LevelEnergies,
    OddPair,
    PopulationTrace,
    Pulse,
    condition_from_odd_pair,
    errors,
    harmonic_for_condition,
    propagate,
    validate_condition,
)
from tripop.cli import main


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


def test_three_error_types():
    """One type for a refused input, one for an RK4 run on valid input whose
    norm drifted, and their base."""
    defined = {
        name for name, obj in vars(errors).items() if inspect.isclass(obj) and obj.__module__ == errors.__name__
    }
    assert defined == {"TripopError", "InvalidInputError", "NormDriftExceededError"}
    assert issubclass(errors.InvalidInputError, ValueError)


_LEAKAGE = ["leakage", "--n-o", "1", "--n-op", "1", "--grid"]


@pytest.mark.parametrize("refused, fragment", [
    pytest.param(lambda: validate_condition(0.0, 1.0, 2.2, tol=0.0), "tol must be positive", id="lookup-tol-0"),
    pytest.param(lambda: CouplingRatios(math.nan, 1.0), "coupling ratios must be finite", id="ratio-nan"),
    pytest.param(lambda: CouplingRatios(0.0, 1.0, eps=(0.0, 0.0)), "exactly three", id="two-eps"),
    pytest.param(lambda: LevelEnergies((0.0, math.nan, 0.0)), "three finite energies", id="energy-nan"),
    pytest.param(lambda: LevelEnergies((0.0, 0.0)), "three finite energies", id="two-energies"),
    pytest.param(lambda: PopulationTrace(np.zeros(2), np.zeros((3, 3)), 0.0), "length mismatch", id="trace-lengths"),
    pytest.param(lambda: Pulse.harmonic(1.0, 0.0), "requires omega > 0", id="harmonic-omega-0"),
    pytest.param(lambda: Pulse.gaussian_kick(1.0, 0.0, 0.0), "positive width", id="gaussian-width-0"),
    pytest.param(lambda: Pulse.gaussian_kick(1.0, 0.0, 1e-310),
                 "gaussian kick peak |area| / (width sqrt(2 pi)) is not finite for area 1.0 and width 1e-310",
                 id="gaussian-peak-inf"),
    pytest.param(lambda: Pulse.gaussian_kick(np.float64(1.0), 0.0, 1e-310), "gaussian kick peak |area|",
                 id="gaussian-peak-numpy-area"),
    pytest.param(lambda: Pulse.tabulated([0.0], [1.0]), "at least two samples", id="one-knot"),
    pytest.param(lambda: Pulse.tabulated([0.0, 1.0], [1.7e308, -1.7e308]),
                 "tabulated samples overflow their interpolant or running integral", id="table-overflow"),
    pytest.param(lambda: Pulse.harmonic(1e300, 1e-10),
                 "harmonic amplitude v0 / omega is not finite for v0 1e+300 and omega 1e-10", id="harmonic-amplitude-inf"),
    pytest.param(lambda: Pulse.constant(1e300).area(1e10),
                 "constant pulse action v0 t is not finite for v0 1e+300 at |t| = 10000000000.0",
                 id="constant-action-inf"),
    pytest.param(lambda: Pulse.constant(1.0).period, "only harmonic pulses", id="constant-period"),
    pytest.param(lambda: Pulse.harmonic(1.0, 1e-308).period, "period 2 pi / omega is not finite for omega = 1e-308",
                 id="harmonic-period-inf"),
    pytest.param(lambda: Pulse.harmonic(1e-310, 1e-310), "period 2 pi / omega is not finite for omega = 1e-310",
                 id="harmonic-period-at-build"),
    pytest.param(lambda: Pulse.harmonic(1e-310, np.float64(1e-310)),
                 f"period 2 pi / omega is not finite for omega = {np.float64(1e-310)!r}", id="harmonic-period-numpy-omega"),
    pytest.param(lambda: harmonic_for_condition(condition_from_odd_pair(OddPair(1, 1)), 0.0),
                 "requires omega > 0", id="condition-omega-0"),
    pytest.param(_LEAKAGE + ["omega12:0:1,omega13:0"], "malformed grid axis 'omega12:0:1'", id="cli-grid-3-fields"),
    pytest.param(_LEAKAGE + ["omega12:0:1:0,omega13:0"], "grid count must be >= 1", id="cli-grid-count-0"),
    pytest.param(_LEAKAGE + ["omega12:0"], "both omega12 and omega13", id="cli-grid-axis-missing"),
    pytest.param(["leakage", "--n-o", "1", "--n-op", "1", "--omega", "1e-308", "--grid", "omega12:0,omega13:0"],
                 "period 2 pi / omega is not finite for omega = 1e-308", id="cli-leakage-period-inf"),
    pytest.param(["trace", "--alpha", "1e200", "--area", "1", "--steps-per-period", "100"],
                 "norm drift nan exceeds 1e-06; reduce the step", id="cli-trace-drift-nan"),
    pytest.param(["kick", "--alpha", "0", "--area", "1", "--widths", "0.1,0"], "gaussian kick requires a positive width",
                 id="cli-kick-width-0"),
    pytest.param(["kick", "--alpha", "0", "--area", "1", "--widths", "1e-310"],
                 "gaussian kick peak |area| / (width sqrt(2 pi)) is not finite for area 1.0 and width 1e-310",
                 id="cli-kick-peak-inf"),
])
def test_each_refusal_names_its_fault(refused, fragment, tmp_path, capsys):
    """A library refusal raises ``InvalidInputError`` with the message
    fragment; a CLI refusal (an argv) exits 2 with one ``error:`` line that
    holds it, and writes no file."""
    if callable(refused):
        with pytest.raises(InvalidInputError, match=re.escape(fragment)):
            refused()
        return
    out = tmp_path / "out.csv"
    assert main(refused + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and fragment in err
    assert not out.exists()


def _sources() -> dict[str, ast.Module]:
    package = Path(tripop.__file__).parent
    return {path.stem: ast.parse(path.read_text()) for path in sorted(package.rglob("*.py"))}


def _names(node) -> set[str]:
    return {n.id for n in ast.walk(node) if isinstance(n, ast.Name)} if node is not None else set()


def test_no_module_raises_a_bare_value_error():
    """Every refusal raises ``InvalidInputError``, so a ``ValueError`` that
    reaches a caller is never taken for one."""
    offenders = [
        (module, node.lineno)
        for module, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and "ValueError" in _names(node.exc)
    ]
    assert offenders == []


def test_value_errors_are_caught_only_where_text_becomes_a_number():
    """``main`` catches ``TripopError`` and ``OSError`` only, and the one
    handlers of ``ValueError`` turn bad number text into a refusal."""
    catching = set()
    for module, tree in _sources().items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                handlers = [n for n in ast.walk(func) if isinstance(n, ast.ExceptHandler)]
                if any("ValueError" in _names(h.type) for h in handlers):
                    catching.add(f"{module}.{func.name}")
                if f"{module}.{func.name}" == "cli.main":
                    assert [sorted(_names(h.type)) for h in handlers] == [["OSError", "TripopError"]]
    assert catching == {"cli._number", "pulses.load_tabulated_pulse"}


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


def test_commands_write_through_one_path():
    """Every ``cmd_*`` of the CLI hands its columns to ``_write_rows(args, ...)``
    once and calls no format's writer itself, and none builds a dict, so the
    JSON meta can only come from the parsed flags."""
    commands = [node for node in ast.walk(_sources()["cli"]) if isinstance(node, ast.FunctionDef)]
    commands = [node for node in commands if node.name.startswith("cmd_")]
    assert len(commands) == 6
    for command in commands:
        calls = [node for node in ast.walk(command) if isinstance(node, ast.Call)]
        called = [getattr(call.func, "id", None) for call in calls]
        assert {"_write_csv", "_write_json"} & set(called) == set(), command.name
        (write,) = [call for call in calls if getattr(call.func, "id", None) == "_write_rows"]
        assert isinstance(write.args[0], ast.Name) and write.args[0].id == "args", command.name
        dicts = [node for node in ast.walk(command) if isinstance(node, (ast.Dict, ast.DictComp))]
        assert dicts == [] and "dict" not in called, command.name


def _unused_imports(tree: ast.Module) -> list[str]:
    """The names ``tree`` imports (``__future__`` features aside) and never
    reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    return sorted(imported - _names(tree))


def test_no_unused_imports():
    """A library module reads every name it imports, so code that moves out
    takes its imports along; ``__init__`` imports to export."""
    unused = {module: _unused_imports(tree) for module, tree in _sources().items() if module != "__init__"}
    assert {module: names for module, names in unused.items() if names} == {}


def test_no_private_name_crosses_modules():
    """A name with a leading underscore (a dunder aside) is private to its
    module: no ``tripop`` module imports one from another."""
    offenders = [
        (module, alias.name)
        for module, tree in _sources().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "tripop")
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert offenders == []


def _reaches(target: str) -> set[str]:
    """The library's module-level functions whose bodies call ``target``,
    directly or through other library functions (by name)."""
    called = {}
    for module, tree in _sources().items():
        if module != "cli":
            for func in tree.body:
                if isinstance(func, ast.FunctionDef):
                    names = {getattr(n, "id", None) or getattr(n, "attr", None) for n in ast.walk(func)}
                    called.setdefault(func.name, set()).update(names)
    reaching = {target}
    while True:
        more = {name for name, names in called.items() if names & reaching} - reaching
        if not more:
            return reaching
        reaching |= more


def test_every_rk4_entry_point_takes_its_step_as_a_config():
    """Every public function that reaches the RK4 core takes the step one
    way: a ``config`` that defaults to ``IntegratorConfig()``, and no
    ``steps`` or ``steps_per_period`` of its own."""
    entry_points = sorted(_reaches("integrate_batch") & set(tripop.__all__))
    assert {"integrate", "check_condition", "verify_conditions", "measured_two_level_deficit"} <= set(entry_points)
    offenders = []
    for name in entry_points:
        parameters = inspect.signature(getattr(tripop, name)).parameters
        config = parameters.get("config")
        if config is None or config.default != tripop.IntegratorConfig() or {"steps", "steps_per_period"} & set(parameters):
            offenders.append(name)
    assert offenders == []


def _linalg_uses(tree: ast.Module) -> list[str]:
    """The source of every import or attribute in ``tree`` that names a
    ``linalg`` module."""
    kinds = (ast.Attribute, ast.Import, ast.ImportFrom)
    return [ast.unparse(n) for n in ast.walk(tree) if isinstance(n, kinds) and "linalg" in ast.unparse(n)]


def test_one_eigensolver_call_site():
    """One dressed-state engine: ``dressed.py`` alone reaches ``numpy.linalg``,
    by binding eigh's LAPACK kernel once, and calls it in
    ``build_dressed_basis`` only."""
    sources = _sources()
    uses = {module: _linalg_uses(tree) for module, tree in sources.items()}
    assert {module: found for module, found in uses.items() if found} == {
        "dressed": ["from numpy.linalg._umath_linalg import eigh_lo as _eigh"]
    }
    callers = [
        func.name
        for func in ast.walk(sources["dressed"])
        if isinstance(func, ast.FunctionDef)
        for node in ast.walk(func)
        if isinstance(node, ast.Name) and node.id == "_eigh"
    ]
    assert callers == ["build_dressed_basis"]


BENCH = Path(__file__).resolve().parents[1] / "bench"
# helpers in bench/tracer.py whose first argument names a traced function
_SPAN_READERS = {"spans", "total_s", "durations_us", "attr_sum", "hot_durations_ns"}


def _traced_names() -> set[str]:
    """Every ``<module>.<name>`` that ``bench/tracer.py`` traces: the keys of
    ``OBSERVERS`` and ``HOT``, and the functions whose spans it reads."""
    names = set()
    for node in ast.walk(ast.parse((BENCH / "tracer.py").read_text())):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) in ("OBSERVERS", "HOT") for t in node.targets):
            names.update(c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and "." in str(c.value))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) in _SPAN_READERS and node.args:
            if isinstance(node.args[0], ast.Constant):
                names.add(node.args[0].value)
    return names


def _bench_names() -> set[str]:
    """Every ``<module>.<name>`` of ``tripop`` that the benchmark reads:
    attributes of the tripop modules that ``bench/workloads.py`` imports,
    the names it imports from a tripop module, and ``_traced_names``."""
    names = _traced_names()
    workloads = ast.parse((BENCH / "workloads.py").read_text())
    modules = set()
    for node in ast.walk(workloads):
        if isinstance(node, ast.ImportFrom) and node.module == "tripop":
            modules.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("tripop."):
            names.update(f"{node.module[len('tripop.'):]}.{alias.name}" for alias in node.names)
    for node in ast.walk(workloads):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            names.add(f"{node.value.id}.{node.attr}")
    return names


def _resolve(name: str):
    """The object ``<module>.<attr>...`` names in ``tripop``, or None."""
    module, *path = name.split(".")
    obj = importlib.import_module(f"tripop.{module}")
    for attr in path:
        obj = getattr(obj, attr, None)
    return obj


def test_bench_names_resolve():
    """The benchmark, which a library change may not edit, finds every
    module attribute, traced function and hot method it names."""
    names = _bench_names()
    assert {"cli.main", "leakage.measured_deficit", "pulses.Pulse.value", "propagate.integrate"} <= names
    assert [name for name in sorted(names) if _resolve(name) is None] == []


def test_bench_stride_is_the_library_stride():
    """``bench/workloads.py`` counts ``long_trace``'s records at its own
    ``RECORD_EVERY``; it must be the library's, so a change of stride fails
    here before it fails the benchmark."""
    workloads = ast.parse((BENCH / "workloads.py").read_text())
    values = [
        ast.literal_eval(node.value)
        for node in workloads.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["RECORD_EVERY"]
    ]
    assert values == [propagate.RECORD_EVERY]


def test_traced_names_are_plain_functions_of_their_module():
    """``Tracer.install`` wraps only plain functions defined in the module
    they are named under and skips anything else without a word, so a traced
    name turned into a class, an alias of another module's function or a
    callable object would read 0."""
    names = _traced_names()
    assert {"conditions.condition_from_odd_pair", "pulses.Pulse.value", "propagate.integrate"} <= names
    offenders = []
    for name in sorted(names):
        obj = _resolve(name)
        if not inspect.isfunction(obj) or obj.__module__ != f"tripop.{name.split('.')[0]}":
            offenders.append(name)
    assert offenders == []
