"""Command-line surface: machine-readable tables, traces, scans, and checks.

Subcommands
-----------
table       transfer-condition table (integers, action, coupling ratio)
trace       analytic and RK4 populations over a harmonic drive
verify      per-condition self-checks; nonzero exit on any failure
leakage     measured deficits vs perturbative estimates over a splitting grid
conditions  inverse lookup of (alpha, beta, area) in the transfer family
kick        ideal-kick populations vs finite-width Gaussian kicks

All commands write CSV or JSON files, and this is the one module of the
package that writes files: it alone decides their formats.  Floats are
serialized with their shortest round-trip representation, no timestamps or
host data enter the output, and the command line alone sets every run
parameter, so identical invocations produce byte-identical files.  Every
float written is finite but ``verify``'s ``ode_deviation``, which is ``inf``
when a run tripped the norm drift gate.

Exit codes: 0 on success; 1 when a ``verify`` row fails; 2 when the library
refuses an input or a run (any ``TripopError``) or the operating system
refuses a file (``OSError``), with one ``error:`` line on stderr.  Any other
exception is a fault of the program and ends in a traceback.  The records of
the ``tripop`` logger go only to handlers that the caller configures.
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import math
import sys

import numpy as np

from . import __version__
from .conditions import OddPair, condition_from_odd_pair, family_table, validate_condition
from .dressed import CouplingRatios, build_dressed_basis, populations_general_array
from .errors import InvalidInputError, TripopError
from .leakage import delta_p2_at_t0, leakage_scan
from .propagate import (
    DEFAULT_STEPS_PER_PERIOD,
    IntegratorConfig,
    LevelEnergies,
    integrate,
    integrate_batch,
    propagate_kick,
)
from .pulses import Pulse, harmonic_for_condition
from .verification import verify_conditions


# Rows formatted at a time: enough that the per-block work is a few percent
# of a block's repr calls (8 rows write a trace 5-10% slower than 32, and 64
# no faster), few enough that a block's texts take a few tens of KB.
_BLOCK_ROWS = 32
# repr of a non-finite float, and its JSON spelling (as json.dump writes it)
_JSON_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_floats(values: list) -> map:
    texts = list(map(repr, values))
    return map(_JSON_CONSTANTS.get, texts, texts)


# A column's spelling by its dtype's kind: from a block of its values, as
# Python objects, to their texts.  A bool indexes ("false", "true").
_NUMBERS, _BOOLS = functools.partial(map, repr), functools.partial(map, ("false", "true").__getitem__)
_CSV_SPELLINGS = {"i": _NUMBERS, "f": _NUMBERS, "b": _BOOLS, "U": iter}
_JSON_SPELLINGS = {**_CSV_SPELLINGS, "f": _json_floats, "U": functools.partial(map, json.dumps)}


def _blocks(columns, spellings: dict):
    """The value texts of ``_BLOCK_ROWS`` rows at a time, one iterator per
    column, so that no Python code runs per row and no writer holds a whole
    file.  Each column is 1-D, an array or a list made one by
    ``np.asarray``, and its spelling is chosen once, from its dtype.  A str
    column keeps its own str objects, since numpy's fixed-width str dtype
    drops a value's trailing NUL characters."""
    arrays = [np.asarray(column) for column in columns]
    spell = [spellings[array.dtype.kind] for array in arrays]
    columns = [np.array(c, dtype=object) if a.dtype.kind == "U" else a for c, a in zip(columns, arrays)]
    for first in range(0, len(columns[0]), _BLOCK_ROWS):
        yield [s(column[first : first + _BLOCK_ROWS].tolist()) for s, column in zip(spell, columns)]


def _write_csv(path: str, header: list[str], columns) -> None:
    """Write a header line and one comma-separated line per row: numbers in
    their shortest round-trip form, bools as true or false and strings as
    they are, so that equal columns give identical files."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for texts in _blocks(columns, _CSV_SPELLINGS):
            fh.write("\n".join(map(",".join, zip(*texts))) + "\n")


def _write_json(path: str, command: str, params: dict, header: list[str], columns) -> None:
    """Write ``{"meta": ..., "rows": [{header[0]: ..., ...}, ...]}`` in exactly
    the layout of ``json.dump(..., indent=2)``, values spelled as in CSV but
    for NaN, the infinities and strings, which are spelled as JSON.  The head
    and each row are joined from ``json.dumps`` texts of single keys and
    values: the indenting encoder is pure Python, slow per row, and leaves
    its closures in reference cycles."""
    lines = [f"      {json.dumps(key)}: {json.dumps(value)}" for key, value in params.items()]
    parameters = "{\n" + ",\n".join(lines) + "\n    }" if lines else "{}"
    head = (f'{{\n  "meta": {{\n    "command": {json.dumps(command)},\n    "parameters": {parameters},\n'
            f'    "version": {json.dumps(__version__)}\n  }},\n  "rows": ')
    keys = [json.dumps(key) for key in header]
    leads = ["    {\n      " + keys[0] + ": "] + [",\n      " + key + ": " for key in keys[1:]]
    # Each block's columns in a list: unpacking a generator would build each
    # block's tuple by resizing it, which leaves one more tuple in CPython's
    # free list per block, up to 2,000 of them (200 KB at seven columns).
    blocks = ([map(lead.__add__, t) for lead, t in zip(leads, texts)] for texts in _blocks(columns, _JSON_SPELLINGS))
    entries = ("\n    },\n".join(map("".join, zip(*block))) for block in blocks)  # never the whole file
    first = next(entries, None)
    with open(path, "w") as fh:
        fh.write(head + ("[]" if first is None else "[\n" + first))
        fh.writelines("\n    },\n" + entry for entry in entries)  # none if there is no first
        fh.write("\n}\n" if first is None else "\n    }\n  ]\n}\n")


_NOT_PARAMETERS = frozenset(("command", "func", "format", "out"))


def _write_rows(args, header: list[str], columns) -> None:
    """Write one 1-D column per header to ``args.out`` in ``args.format``.
    The JSON meta records ``args.command`` and, as its parameters, every
    other parsed flag but ``--out`` and ``--format``, in the parser's order."""
    if args.format == "csv":
        _write_csv(args.out, header, columns)
    else:
        params = {key: value for key, value in vars(args).items() if key not in _NOT_PARAMETERS}
        _write_json(args.out, args.command, params, header, columns)


# -- subcommand implementations ---------------------------------------------


def cmd_table(args) -> int:
    columns = family_table(args.max_product)
    _write_rows(args, list(columns), list(columns.values()))
    return 0


def cmd_trace(args) -> int:
    ratios = CouplingRatios(alpha=args.alpha, beta=args.beta)
    basis = build_dressed_basis(ratios)
    pulse = Pulse.harmonic(v0=args.area, omega=1.0)  # A(T/4) = v0/omega
    t_end = args.periods * pulse.period
    config = IntegratorConfig(steps_per_period=args.steps_per_period)
    trace = integrate(ratios, LevelEnergies(), pulse, t_end, config)
    analytic = populations_general_array(basis, pulse.area(trace.times).a)
    header = ["t", "p1", "p2", "p3", "p1_num", "p2_num", "p3_num"]
    _write_rows(args, header, [trace.times, *analytic.T, *trace.populations.T])
    return 0


def cmd_verify(args) -> int:
    checks = verify_conditions(args.max_product, IntegratorConfig(steps_per_period=args.steps_per_period))
    header = ["n1", "n2", "analytic_error", "ode_deviation", "cases_ok", "status"]
    columns = [
        [c.condition.n1 for c in checks], [c.condition.n2 for c in checks],
        [c.analytic_error for c in checks], [c.ode_deviation for c in checks],
        [c.cases_ok for c in checks], ["pass" if c.passed else "fail" for c in checks],
    ]
    _write_rows(args, header, columns)
    for c in checks:
        print(f"{'pass' if c.passed else 'FAIL'} (n1={c.condition.n1}, n2={c.condition.n2}) "
              f"analytic={c.analytic_error:.2e} ode={c.ode_deviation:.2e}")
    return 0 if all(c.passed for c in checks) else 1


def _number(what: str, text: str, convert=float):
    """``convert(text)``, refusing text that is not such a number."""
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise InvalidInputError(f"{what} {text!r} is not {kind}") from None


def _parse_grid(spec: str, cap: int) -> list[tuple[float, float]]:
    """Grid spec 'omega12:<v|start:stop:count>,omega13:<...>' -> splitting pairs.

    Each axis is given once, a range's ends and their difference must be
    finite (``np.linspace`` would warn and return NaN), and a grid of more
    than ``cap`` points is refused before it is built.
    """
    axes: dict[str, tuple[float, float, int]] = {}
    for part in spec.split(","):
        fields = part.split(":")
        name = fields[0].strip()
        if name not in ("omega12", "omega13"):
            raise InvalidInputError(f"unknown grid axis {name!r}")
        if name in axes:
            raise InvalidInputError(f"grid axis {name!r} is given twice")
        if len(fields) == 2:
            value = _number(f"{name} splitting", fields[1])
            axes[name] = (value, value, 1)
        elif len(fields) == 4:
            start, stop = (_number(f"{name} splitting", f) for f in fields[1:3])
            if not math.isfinite(stop - start):  # also when either end is inf or nan
                raise InvalidInputError(f"grid axis {part!r} needs finite ends a finite distance apart")
            axes[name] = (start, stop, _number("grid count", fields[3], int))
        else:
            raise InvalidInputError(f"malformed grid axis {part!r}")
        if axes[name][2] < 1:
            raise InvalidInputError("grid count must be >= 1")
    if set(axes) != {"omega12", "omega13"}:
        raise InvalidInputError("grid must define both omega12 and omega13")
    points = axes["omega12"][2] * axes["omega13"][2]
    if points > cap:
        raise InvalidInputError(f"grid of {points} points is past the cap of {cap} for this run length")
    w12, w13 = ([a] if n == 1 else np.linspace(a, b, n).tolist()
                for a, b, n in (axes["omega12"], axes["omega13"]))
    return [(a, b) for a in w12 for b in w13]


def cmd_leakage(args) -> int:
    cond = condition_from_odd_pair(OddPair(args.n_o, args.n_op), beta=args.beta)
    pulse = harmonic_for_condition(cond, args.omega)
    config = IntegratorConfig(steps_per_period=args.steps_per_period)
    # Every grid point is one run of the batch that leakage_scan integrates:
    # a grid past the batch's cap is refused before its lists are built.
    grid = _parse_grid(args.grid, config.max_runs(pulse, pulse.period / 4))  # absolute splittings
    ratios = [(w12 / args.omega, w13 / args.omega) for w12, w13 in grid]
    deficits = leakage_scan(cond, ratios, config=config, omega=args.omega)
    header = ["omega12_ratio", "omega13_ratio", "deficit", "estimate"]
    r12, r13 = zip(*ratios)
    _write_rows(args, header, [r12, r13, deficits, [delta_p2_at_t0(cond, *r) for r in ratios]])
    return 0


def cmd_conditions(args) -> int:
    match = validate_condition(args.alpha, args.beta, args.area, tol=args.tol)
    header = ["n1", "n2", "n_o", "n_op", "sign", "A_t0", "alpha", "beta"]
    row = () if match is None else (
        match.n1, match.n2, match.pair.n_o, match.pair.n_op, match.sign, match.action_t0, match.alpha, match.beta,
    )
    _write_rows(args, header, [row[i : i + 1] for i in range(len(header))])  # one row or none
    return 0


def cmd_kick(args) -> int:
    widths = [_number("kick width", w) for w in args.widths.split(",")] if args.widths else []
    if any(w1 <= w2 for w1, w2 in zip(widths, widths[1:])):
        raise InvalidInputError("kick widths must be strictly decreasing")
    ratios = CouplingRatios(alpha=args.alpha, beta=args.beta)
    basis = build_dressed_basis(ratios)
    ideal = [abs(c) ** 2 for c in propagate_kick(basis, args.area).a]
    header = ["kind", "width", "p1", "p2", "p3"]
    energies = LevelEnergies.from_splittings(args.omega12, args.omega13)
    # Each Gaussian sits at 10 widths in a window of 20, so its support (8
    # widths) lies inside; the window divided by the step count gives dt, so
    # every width takes the same number of steps and the runs form one batch.
    k = ratios.coupling_matrix()
    runs = [(k, energies, Pulse.gaussian_kick(args.area, 10.0 * w, w), 20.0 * w) for w in widths]
    traces = integrate_batch(runs, IntegratorConfig(steps_per_period=args.steps_per_period))
    populations = np.array([ideal, *(trace.populations[-1] for trace in traces)])
    _write_rows(args, header, [["ideal"] + ["gaussian"] * len(widths), [0.0, *widths], *populations.T])
    return 0


# -- parser ------------------------------------------------------------------


class _Unused(argparse.Action):
    """Takes a flag's value and stores nothing: no run reads it, no meta records it."""

    def __call__(self, parser, namespace, values, option_string=None):
        pass


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once a process: building one takes about 1 ms, and a
    dropped one is about 370 objects in argparse's reference cycles, which
    stay in memory until the next full garbage collection."""
    parser = argparse.ArgumentParser(
        prog="tripop", description="Complete population transfer in a degenerate three-level atom.")
    parser.add_argument("--version", action="version", version=f"tripop {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, runs_rk4=True):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", required=True, help="output file path")
        steps = {"default": DEFAULT_STEPS_PER_PERIOD} if runs_rk4 else {"action": _Unused, "default": argparse.SUPPRESS}
        p.add_argument("--steps-per-period", type=int, **steps,
                       help="RK4 steps per drive period (trace, verify, leakage) or per kick "
                            "window (kick); table and conditions accept and ignore it")

    p = sub.add_parser("table", help="enumerate transfer conditions")
    p.add_argument("--max-product", type=int, required=True)
    add_common(p, runs_rk4=False)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("trace", help="analytic vs RK4 populations for a harmonic drive")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--area", type=float, required=True, help="quarter-period action A(t0)")
    p.add_argument("--periods", type=float, default=1.0)
    add_common(p)
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("verify", help="check every family member against both paths")
    p.add_argument("--max-product", type=int, required=True)
    add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("leakage", help="measured deficit vs estimates over a splitting grid")
    p.add_argument("--n-o", type=int, required=True, dest="n_o")
    p.add_argument("--n-op", type=int, required=True, dest="n_op")
    p.add_argument("--beta", type=int, choices=(-1, 1), default=1)
    p.add_argument("--omega", type=float, default=1.0, help="drive frequency")
    p.add_argument("--grid", required=True,
                   help="absolute splittings, e.g. 'omega12:0:0.1:5,omega13:0'")
    add_common(p)
    p.set_defaults(func=cmd_leakage)

    p = sub.add_parser("conditions", help="inverse lookup of (alpha, beta, area)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--area", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-6)
    add_common(p, runs_rk4=False)
    p.set_defaults(func=cmd_conditions)

    p = sub.add_parser("kick", help="ideal kick vs finite-width Gaussian kicks")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, default=1.0)
    p.add_argument("--area", type=float, required=True, help="kick area A0")
    p.add_argument("--widths", default="0.1,0.05,0.025",
                   help="comma-separated decreasing Gaussian widths")
    p.add_argument("--omega12", type=float, default=1.0, help="level splitting E1-E2")
    p.add_argument("--omega13", type=float, default=1.0, help="level splitting E1-E3")
    add_common(p)
    p.set_defaults(func=cmd_kick)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # The tripop logger speaks only to handlers a caller configures; with
    # none, logging's last resort would print its warnings on stderr.
    last_resort, logging.lastResort = logging.lastResort, logging.NullHandler()
    try:
        return args.func(args)
    except (TripopError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logging.lastResort = last_resort


if __name__ == "__main__":
    raise SystemExit(main())
