"""End-to-end tests of the command-line surface.

Each subcommand runs in-process through cli.main; file contents are parsed
back and checked against library results and published values.
"""

import argparse
import contextlib
import csv
import gc
import io
import json
import logging
import math
import os
import struct
import subprocess
import sys
import tempfile
import time
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tripop import (
    CouplingRatios,
    IntegratorConfig,
    OddPair,
    __version__,
    condition_from_odd_pair,
    enumerate_conditions,
    verify_conditions,
)
from tripop import conditions as conditions_module
from tripop import cli as cli_module
from tripop.cli import main

TABLE_ROWS = {
    (1, 5): (1.656, 2.530),
    (5, 1): (1.656, -2.530),
    (3, 3): (2.221, 0.000),
    (1, 11): (2.456, 4.264),
    (11, 1): (2.456, -4.264),
    (1, 17): (3.053, 5.488),
    (17, 1): (3.053, -5.488),
    (1, 23): (3.551, 6.487),
    (23, 1): (3.551, -6.487),
    (3, 9): (3.848, 1.633),
    (9, 3): (3.848, -1.633),
    (1, 29): (3.988, 7.353),
    (29, 1): (3.988, -7.353),
    (1, 35): (4.381, 8.128),
    (5, 7): (4.381, 0.478),
    (7, 5): (4.381, -0.478),
    (35, 1): (4.381, -8.128),
}


TABLE_HEADER = [
    "n1", "n2", "n_e", "n_o", "n_op",
    "k_case_i", "kp_case_i", "k_case_ii", "kp_case_ii", "k_case_iii", "kp_case_iii",
    "A_t0", "alpha",
]


def reference_table(path, fmt, max_product):
    """``table`` written row by row from the condition objects, with the
    value-by-value formatting of the columnar writer's predecessor.  The
    case sets are the paper's combinations of the odd pair: (n_o + n_o',
    -n_o), (n_o, n_o') and (-n_o', n_o + n_o')."""
    rows = []
    for cond in enumerate_conditions(max_product):
        n_o, n_op = cond.pair.n_o, cond.pair.n_op
        rows.append(
            [
                cond.n1, cond.n2, n_o + n_op, n_o, n_op,
                n_o + n_op, -n_o, n_o, n_op, -n_op, n_o + n_op, cond.action_t0, cond.alpha,
            ]
        )
    with open(path, "w", newline="") as fh:
        if fmt == "csv":
            fh.write(",".join(TABLE_HEADER) + "\n")
            for row in rows:
                fh.write(",".join(str(v) if isinstance(v, int) else repr(float(v)) for v in row) + "\n")
            return
        payload = {
            "meta": {"command": "table", "parameters": {"max_product": max_product}, "version": __version__},
            "rows": [dict(zip(TABLE_HEADER, row)) for row in rows],
        }
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestTable:
    def test_reproduces_published_rows(self, tmp_path):
        out = tmp_path / "table.csv"
        assert main(["table", "--max-product", "35", "--out", str(out)]) == 0
        rows = read_csv(out)
        assert len(rows) == 17
        for row in rows:
            key = (int(row["n1"]), int(row["n2"]))
            a_ref, alpha_ref = TABLE_ROWS[key]
            assert float(row["A_t0"]) == pytest.approx(a_ref, abs=5e-4)
            assert float(row["alpha"]) == pytest.approx(alpha_ref, abs=5e-4)

    def test_case_columns(self, tmp_path):
        out = tmp_path / "table.csv"
        main(["table", "--max-product", "9", "--out", str(out)])
        rows = {(int(r["n1"]), int(r["n2"])): r for r in read_csv(out)}
        assert len(rows) == 3
        r33 = rows[(3, 3)]
        assert (int(r33["k_case_i"]), int(r33["kp_case_i"])) == (2, -1)
        assert (int(r33["k_case_ii"]), int(r33["kp_case_ii"])) == (1, 1)
        assert (int(r33["k_case_iii"]), int(r33["kp_case_iii"])) == (-1, 2)
        assert int(r33["n_e"]) == 2

    def test_small_bound_gives_header_only(self, tmp_path):
        out = tmp_path / "table.csv"
        main(["table", "--max-product", "4", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("n1,n2,")

    def test_determinism(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["table", "--max-product", "35", "--out", str(a)])
        main(["table", "--max-product", "35", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_runs_as_a_module(self, tmp_path):
        """``python -m tripop.cli`` is the same program as ``main``."""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        module = [sys.executable, "-m", "tripop.cli"]
        version = subprocess.run(module + ["--version"], env=env, capture_output=True, text=True)
        assert version.returncode == 0 and version.stdout == f"tripop {__version__}\n"
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        table = subprocess.run(module + ["table", "--max-product", "35", "--out", str(a)],
                               env=env, capture_output=True, text=True)
        assert table.returncode == 0 and table.stderr == ""
        assert main(["table", "--max-product", "35", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_csv_json_round_trip(self, tmp_path):
        """CSV and JSON outputs carry identical values (12+ significant digits)."""
        csv_out, json_out = tmp_path / "t.csv", tmp_path / "t.json"
        main(["table", "--max-product", "35", "--out", str(csv_out)])
        main(["table", "--max-product", "35", "--format", "json", "--out", str(json_out)])
        csv_rows = read_csv(csv_out)
        payload = json.loads(json_out.read_text())
        assert payload["meta"]["command"] == "table"
        assert payload["meta"]["parameters"] == {"max_product": 35}
        assert len(payload["rows"]) == len(csv_rows)
        for c_row, j_row in zip(csv_rows, payload["rows"]):
            for key, raw in c_row.items():
                assert float(raw) == pytest.approx(float(j_row[key]), rel=1e-12, abs=1e-300)


    @pytest.mark.parametrize("max_product", [4, 35, 2000])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_bytes_match_row_by_row_reference(self, tmp_path, max_product, fmt):
        out, ref = tmp_path / f"t.{fmt}", tmp_path / f"ref.{fmt}"
        assert main(["table", "--max-product", str(max_product), "--format", fmt, "--out", str(out)]) == 0
        reference_table(ref, fmt, max_product)
        assert out.read_bytes() == ref.read_bytes()

    def test_case_columns_are_combinations_of_the_odd_pair(self, tmp_path, monkeypatch):
        """Whatever family integers the table is given, its case columns are
        (n_o + n_o', -n_o), (n_o, n_o') and (-n_o', n_o + n_o')."""
        monkeypatch.setattr(
            conditions_module, "family_integers", lambda max_product: (np.array([1]), np.array([5]))
        )
        out = tmp_path / "t.csv"
        assert main(["table", "--max-product", "35", "--out", str(out)]) == 0
        (row,) = read_csv(out)
        cases = [int(row[f"{k}_case_{c}"]) for c in ("i", "ii", "iii") for k in ("k", "kp")]
        assert (int(row["n_o"]), int(row["n_op"])) == (-1, 3)
        assert cases == [2, 1, -1, 3, -3, 2]


class TestTrace:
    def test_fig2_complete_transfer(self, tmp_path, cond_33):
        out = tmp_path / "fig2.csv"
        code = main(
            [
                "trace", "--alpha", "0", "--beta", "1",
                "--area", repr(cond_33.action_t0), "--periods", "1",
                "--steps-per-period", "4000", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert list(rows[0].keys()) == ["t", "p1", "p2", "p3", "p1_num", "p2_num", "p3_num"]
        t = np.array([float(r["t"]) for r in rows])
        p2 = np.array([float(r["p2"]) for r in rows])
        p2n = np.array([float(r["p2_num"]) for r in rows])
        T = 2.0 * math.pi
        for frac in (0.25, 0.75):
            idx = int(np.argmin(np.abs(t - frac * T)))
            assert p2[idx] == pytest.approx(1.0, abs=1e-8)
            assert p2n[idx] == pytest.approx(1.0, abs=1e-6)
        np.testing.assert_allclose(p2, p2n, atol=1e-6)

    def test_fig1_negative_control(self, tmp_path):
        out = tmp_path / "fig1.csv"
        main(
            [
                "trace", "--alpha", "2", "--beta", "1", "--area", "1.5",
                "--periods", "1", "--steps-per-period", "2000", "--out", str(out),
            ]
        )
        rows = read_csv(out)
        assert max(float(r["p2"]) for r in rows) < 1.0

    def test_fig4_sideband_oscillations(self, tmp_path, cond_351):
        """Large alpha*A: complete transfer plus rapid side bands (many local
        maxima of p2 away from the transfer instants)."""
        out = tmp_path / "fig4.csv"
        main(
            [
                "trace", "--alpha", repr(abs(cond_351.alpha)),
                "--area", repr(abs(cond_351.action_t0)),
                "--periods", "1", "--steps-per-period", "4000", "--out", str(out),
            ]
        )
        rows = read_csv(out)
        p2 = np.array([float(r["p2"]) for r in rows])
        assert p2.max() == pytest.approx(1.0, abs=1e-6)
        interior = p2[1:-1]
        peaks = int(np.sum((interior > p2[:-2]) & (interior > p2[2:])))
        assert peaks > 20

    def test_equal_couplings(self, tmp_path):
        """alpha = beta = 1 has a repeated dressed energy, where the paper's
        cubic vanishes; the trace still runs and agrees with RK4."""
        out = tmp_path / "trace.csv"
        code = main(
            [
                "trace", "--alpha", "1", "--beta", "1", "--area", "1.5",
                "--periods", "1", "--steps-per-period", "4000", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        analytic = np.array([[float(r[k]) for k in ("p1", "p2", "p3")] for r in rows])
        numeric = np.array([[float(r[k]) for k in ("p1_num", "p2_num", "p3_num")] for r in rows])
        np.testing.assert_allclose(analytic.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)

    def test_overflowing_coupling_is_an_error_without_a_warning(self, tmp_path, capsys):
        """alpha = 1e200 overflows in RK4: exit 2 with the drift error, and no
        numpy RuntimeWarning escapes the integrator."""
        out = tmp_path / "trace.csv"
        argv = ["trace", "--alpha", "1e200", "--area", "1", "--steps-per-period", "100", "--out", str(out)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "RuntimeWarning" not in err and err.splitlines()[-1].startswith("error: norm drift nan")
        assert not out.exists()


class TestVerify:
    def test_all_families_pass(self, tmp_path):
        out = tmp_path / "verify.csv"
        code = main(
            ["verify", "--max-product", "9", "--steps-per-period", "4000", "--out", str(out)]
        )
        assert code == 0
        rows = read_csv(out)
        assert [r["status"] for r in rows] == ["pass"] * 3
        assert all(float(r["ode_deviation"]) < 1e-6 for r in rows)

    def test_exit_code_contract_on_injected_fault(self, tmp_path, monkeypatch):
        """A coupling ratio off the family by 1e-3 drives RK4 away from the
        closed form: every member fails and ``verify`` exits 1."""
        ratios = conditions_module.TransferCondition.ratios
        monkeypatch.setattr(
            conditions_module.TransferCondition, "ratios",
            lambda cond: replace(ratios(cond), alpha=ratios(cond).alpha + 1e-3),
        )
        out = tmp_path / "verify.csv"
        code = main(["verify", "--max-product", "9", "--steps-per-period", "2000", "--out", str(out)])
        assert code == 1
        rows = read_csv(out)
        assert len(rows) == 3 and [r["status"] for r in rows] == ["fail"] * 3
        assert all(float(r["ode_deviation"]) >= 1e-6 for r in rows)

    def test_library_verify_matches_cli(self):
        checks = verify_conditions(9, IntegratorConfig(steps_per_period=2000))
        assert all(c.passed for c in checks)


class TestLeakage:
    def test_scan_rows_and_monotonicity(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "leakage", "--n-o", "1", "--n-op", "1",
                "--grid", "omega12:0:0.1:5,omega13:0",
                "--steps-per-period", "2000", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 5
        deficits = [float(r["deficit"]) for r in rows]
        assert all(a < b for a, b in zip(deficits, deficits[1:]))

    def test_degenerate_grid_point(self, tmp_path):
        out = tmp_path / "scan.csv"
        main(
            [
                "leakage", "--n-o", "-1", "--n-op", "3",
                "--grid", "omega12:0,omega13:0",
                "--steps-per-period", "2000", "--out", str(out),
            ]
        )
        rows = read_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["deficit"]) < 1e-6

    def test_omega_doubling_reduces_deficit(self, tmp_path):
        deficits = {}
        for omega in ("1.0", "2.0"):
            out = tmp_path / f"scan{omega}.csv"
            main(
                [
                    "leakage", "--n-o", "1", "--n-op", "1",
                    "--omega", omega, "--grid", "omega12:0.05,omega13:0",
                    "--steps-per-period", "2000", "--out", str(out),
                ]
            )
            deficits[omega] = float(read_csv(out)[0]["deficit"])
        assert deficits["2.0"] < deficits["1.0"]

    def test_malformed_grid_is_an_error(self, tmp_path, capsys):
        """An unknown axis, an axis given twice (the later value would
        silently win while the meta records the whole string), and a count
        or splitting that is no number: each exits 2 with one error line
        naming the fault."""
        out = tmp_path / "scan.csv"
        for grid, message in (
            ("bogus:1", "unknown grid axis 'bogus'"),
            ("omega12:0.1,omega13:0,omega12:0.3", "given twice"),
            ("omega12:0:0.1:abc,omega13:0", "grid count 'abc' is not an integer"),
            ("omega12:x,omega13:0", "omega12 splitting 'x' is not a number"),
        ):
            code = main(["leakage", "--n-o", "1", "--n-op", "1", "--grid", grid, "--out", str(out)])
            err = capsys.readouterr().err
            assert code == 2 and err.startswith("error: ") and err.count("\n") == 1 and message in err
            assert not out.exists()

    @pytest.mark.parametrize("axis", ["omega13:inf:-1e198:2", "omega13:-1.7e308:1.7e308:3"])
    def test_grid_range_past_the_floats_is_an_error(self, tmp_path, capsys, axis):
        """A range with an infinite end, or finite ends whose difference
        overflows, is refused before ``np.linspace`` can warn."""
        out = tmp_path / "x.csv"
        argv = [
            "leakage", "--n-o", "5", "--n-op", "3", "--grid", f"omega12:0:0.001:2,{axis}",
            "--steps-per-period", "200", "--out", str(out),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv)
        err = capsys.readouterr().err
        assert code == 2 and err == f"error: grid axis {axis!r} needs finite ends a finite distance apart\n"
        assert not out.exists()

    @pytest.mark.parametrize("omega, line", [
        pytest.param(omega, line, id=omega) for omega, line in [
            ("0", "harmonic pulse requires omega > 0"), ("-0.0", "harmonic pulse requires omega > 0"),
            ("-1", "harmonic pulse requires omega > 0"), ("nan", "pulse parameters must be finite"),
            ("inf", "pulse parameters must be finite"), ("-inf", "pulse parameters must be finite"),
        ]
    ])
    def test_unusable_omega_is_an_error(self, tmp_path, capsys, omega, line):
        """The harmonic pulse refuses the drive frequency, in its own words."""
        out = tmp_path / "scan.csv"
        code = main(
            [
                "leakage", "--n-o", "1", "--n-op", "1", f"--omega={omega}",
                "--grid", "omega12:0.05,omega13:0", "--out", str(out),
            ]
        )
        err = capsys.readouterr().err
        assert code == 2 and err.startswith(f"error: {line}") and err.count("\n") == 1
        assert not out.exists()


class TestConditions:
    def test_family_lookup_hit(self, tmp_path):
        out = tmp_path / "c.json"
        main(
            [
                "conditions", "--alpha", "0", "--area", "2.2214", "--tol", "1e-3",
                "--format", "json", "--out", str(out),
            ]
        )
        payload = json.loads(out.read_text())
        assert len(payload["rows"]) == 1
        assert (payload["rows"][0]["n1"], payload["rows"][0]["n2"]) == (3, 3)

    def test_family_lookup_miss(self, tmp_path):
        out = tmp_path / "c.json"
        main(
            [
                "conditions", "--alpha", "2", "--area", "1.5",
                "--format", "json", "--out", str(out),
            ]
        )
        assert json.loads(out.read_text())["rows"] == []


    @pytest.mark.parametrize("area", ["inf", "-inf", "nan", "1e200"])
    def test_unusable_area_is_an_error(self, tmp_path, capsys, area):
        out = tmp_path / "c.csv"
        assert main(["conditions", "--alpha", "0", f"--area={area}", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_large_area_answers(self, tmp_path):
        out = tmp_path / "c.csv"
        assert main(["conditions", "--alpha", "0.3", "--area", "1e4", "--out", str(out)]) == 0
        assert out.read_text().count("\n") == 1

    def test_loose_tolerance_at_large_area_is_an_error(self, tmp_path, capsys):
        out = tmp_path / "c.csv"
        argv = ["conditions", "--alpha", "0.3", "--area", "1e4", "--tol", "1", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: area 10000.0 with tol 1.0")


class TestKick:
    def test_ideal_and_gaussian_rows(self, tmp_path):
        out = tmp_path / "kick.csv"
        area = math.pi / math.sqrt(2.0)
        code = main(
            [
                "kick", "--alpha", "0", "--beta", "1", "--area", repr(area),
                "--widths", "0.1,0.05,0.025", "--steps-per-period", "20000",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0]["kind"] == "ideal"
        assert float(rows[0]["p2"]) == pytest.approx(1.0, abs=1e-12)
        p2 = [float(r["p2"]) for r in rows[1:]]
        assert p2[0] < p2[1] < p2[2]
        assert p2[2] > 0.999

    def test_zero_area_leaves_population(self, tmp_path):
        out = tmp_path / "kick.csv"
        main(
            [
                "kick", "--alpha", "0", "--beta", "1", "--area", "0",
                "--widths", "0.1,0.05", "--steps-per-period", "4000", "--out", str(out),
            ]
        )
        for row in read_csv(out):
            assert float(row["p1"]) == pytest.approx(1.0, abs=1e-9)

    def test_higher_odd_multiple_transfers(self, tmp_path):
        out = tmp_path / "kick.csv"
        main(
            [
                "kick", "--alpha", "0", "--beta", "1",
                "--area", repr(3.0 * math.pi / math.sqrt(2.0)),
                "--widths", "0.05", "--steps-per-period", "4000", "--out", str(out),
            ]
        )
        rows = read_csv(out)
        assert float(rows[0]["p2"]) == pytest.approx(1.0, abs=1e-12)

    def test_equal_magnitude_couplings(self, tmp_path):
        """alpha = beta = 2 leaves one dressed state without a level-1
        component; the ideal row is the exact propagator's."""
        out = tmp_path / "kick.csv"
        code = main(
            [
                "kick", "--alpha", "2", "--beta", "2", "--area", "1.5",
                "--widths", "0.1,0.05", "--steps-per-period", "4000", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_csv(out)
        k = CouplingRatios(2.0, 2.0).coupling_matrix()
        exact = np.abs(expm(-1j * 1.5 * k)[:, 0]) ** 2
        np.testing.assert_allclose([float(rows[0][p]) for p in ("p1", "p2", "p3")], exact, atol=1e-12)

    @pytest.mark.parametrize("area", ["nan", "inf", "-inf", "1e308"])
    def test_unusable_area_is_an_error(self, tmp_path, capsys, area):
        """An area whose phase is not finite exits 2 with one error line and
        no numpy warning."""
        out = tmp_path / "kick.csv"
        argv = ["kick", "--alpha", "2", f"--area={area}", "--widths", "", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("widths,bad", [("0.1,,0.05", "''"), ("a", "'a'")])
    def test_width_text_that_is_no_number_is_an_error(self, tmp_path, capsys, widths, bad):
        out = tmp_path / "kick.csv"
        assert main(["kick", "--alpha", "0", "--area", "1.0", "--widths", widths, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: kick width {bad} is not a number\n"
        assert not out.exists()

    def test_increasing_widths_rejected(self, tmp_path):
        out = tmp_path / "kick.csv"
        code = main(
            ["kick", "--alpha", "0", "--area", "1.0", "--widths", "0.05,0.1", "--out", str(out)]
        )
        assert code == 2


class TestOversizedRequests:
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", "--alpha", "0", "--area", "1.0", "--periods", "1e9"],
            ["trace", "--alpha", "0", "--area", "1.0", "--periods", "inf"],
            ["kick", "--alpha", "0", "--area", "1.0", "--steps-per-period", "100000000000000"],
            ["table", "--max-product", "100000000000"],
            ["trace", "--alpha", "0", "--area", "1.0", "--steps-per-period", "1" + "0" * 400],
            ["trace", "--alpha", "0", "--area", "1.0", "--periods", "1e306"],
            ["kick", "--alpha", "0", "--area", "1.0", "--steps-per-period", "1" + "0" * 400],
            ["leakage", "--n-o", "1", "--n-op", "1", "--grid", "omega12:0:1:100000,omega13:0:1:100000"],
            # 20,005,000 points: past the cap at any step, since each run holds two records at least
            ["leakage", "--n-o", "1", "--n-op", "1", "--grid", "omega12:0:1:5000,omega13:0:1:4001"],
            # one point past the cap at the default step, where each run is charged 501 records of 40 bytes
            # and 14,000 bytes for the core
            ["leakage", "--n-o", "1", "--n-op", "1", "--grid", "omega12:0:0.1:28203,omega13:0"],
            # 20,000,000 runs of 2 records: within a cap of records alone, but 200 GB of core buffers
            ["leakage", "--n-o", "1", "--n-op", "1", "--steps-per-period", "40",
             "--grid", "omega12:0:1:5000,omega13:0:1:4000"],
            # 108,781 members past the cap of 28,202 runs at the default step, refused before one is built
            ["verify", "--max-product", "100000"],
        ],
    )
    def test_refused_before_allocating(self, tmp_path, capsys, argv):
        """A run or table too large to hold exits 2 with one error line,
        at once and without allocating it, and writes no file."""
        out = tmp_path / "out.csv"
        tracemalloc.start()
        start = time.perf_counter()
        try:
            code = main([*argv, "--out", str(out)])
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert elapsed < 1.0 and peak < 10e6
        assert not out.exists()

    def test_largest_leakage_grid_reaches_the_scan(self, tmp_path, monkeypatch):
        """28,202 points, each charged 501 records of 40 bytes and 14,000
        bytes for the core's buffers, fill the cap without passing it, so
        the whole grid reaches leakage_scan."""

        class Reached(Exception):
            pass

        points = []

        def reached(cond, omega_ratios, **kwargs):
            points.append(len(omega_ratios))
            raise Reached

        monkeypatch.setattr(cli_module, "leakage_scan", reached)
        argv = ["leakage", "--n-o", "1", "--n-op", "1", "--grid", "omega12:0:0.1:28202,omega13:0"]
        with pytest.raises(Reached):
            main([*argv, "--out", str(tmp_path / "out.csv")])
        assert points == [28202]


class TestEnvOverride:
    def test_steps_env_variable(self, tmp_path, monkeypatch):
        """The environment does not enter a run: with TRIPOP_STEPS set, trace
        takes the default step count and writes the same bytes as without it."""
        argv = ["trace", "--alpha", "0", "--area", "1.0", "--periods", "1", "--out"]
        plain, with_env = tmp_path / "plain.csv", tmp_path / "env.csv"
        assert main([*argv, str(plain)]) == 0
        monkeypatch.setenv("TRIPOP_STEPS", "100")
        assert main([*argv, str(with_env)]) == 0
        # 20,000 steps/period with the default recording stride (every 10th step)
        assert len(read_csv(with_env)) == 2001
        assert with_env.read_bytes() == plain.read_bytes()


class TestLogging:
    @pytest.mark.parametrize("argv", [
        ["trace", "--alpha", "0", "--area", "1.0", "--periods", "0.5", "--steps-per-period", "4000"],
        ["verify", "--max-product", "35", "--steps-per-period", "500", "--format", "json"],
    ])
    def test_files_are_the_same_with_logging_on(self, tmp_path, caplog, argv):
        """The tripop logger's records, debug and drift warnings included,
        never reach the output file."""
        quiet, logged = tmp_path / "quiet", tmp_path / "logged"
        quiet_code = main([*argv, "--out", str(quiet)])
        caplog.set_level(logging.DEBUG, logger="tripop")
        assert main([*argv, "--out", str(logged)]) == quiet_code
        assert any(r.name == "tripop" and r.levelno == logging.DEBUG for r in caplog.records)
        assert logged.read_bytes() == quiet.read_bytes()

    DRIFTING = ["trace", "--alpha", "1e200", "--area", "1", "--steps-per-period", "100"]

    def test_refused_run_writes_one_error_line(self, tmp_path, capsys, monkeypatch):
        """With no handler configured anywhere, the drift warning of a refused
        run does not reach stderr through logging's last resort: stderr is
        the one error line, and the last resort is restored afterwards."""
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        last_resort = logging.lastResort
        assert main([*self.DRIFTING, "--out", str(tmp_path / "out.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: norm drift nan") and err.count("\n") == 1
        assert logging.lastResort is last_resort

    def test_configured_handler_gets_the_records(self, tmp_path, capsys, monkeypatch):
        """A handler that the caller puts on the tripop logger still gets the
        drift warning while main runs."""
        records = []
        handler = logging.Handler()
        handler.emit = records.append
        monkeypatch.setattr(logging.getLogger(), "handlers", [])
        monkeypatch.setattr(logging.getLogger("tripop"), "handlers", [handler])
        assert main([*self.DRIFTING, "--out", str(tmp_path / "out.csv")]) == 2
        assert [(r.levelname, r.getMessage()[:20]) for r in records] == [("WARNING", "norm drift past 1e-0")]
        assert capsys.readouterr().err.count("\n") == 1


def bit_equal(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def assert_csv_json_round_trip(argv: list[str], params: dict, codes=(0,)) -> None:
    """Run one subcommand to CSV and to JSON and compare the files field by
    field: the CSV header is the JSON row keys in order, the row counts are
    equal, and every CSV field parses to exactly the JSON value."""
    with tempfile.TemporaryDirectory() as tmp:
        csv_out, json_out = Path(tmp) / "out.csv", Path(tmp) / "out.json"
        assert main([*argv, "--out", str(csv_out)]) in codes
        assert main([*argv, "--format", "json", "--out", str(json_out)]) in codes
        with open(csv_out, newline="") as fh:
            header, *csv_rows = list(csv.reader(fh))
        payload = json.loads(json_out.read_text())
    assert payload["meta"]["command"] == argv[0]
    assert payload["meta"]["parameters"] == params
    assert len(csv_rows) == len(payload["rows"])
    for raw_row, json_row in zip(csv_rows, payload["rows"]):
        assert list(json_row) == header
        for raw, value in zip(raw_row, json_row.values()):
            if isinstance(value, bool):
                assert raw == ("true" if value else "false")
            elif isinstance(value, int):
                assert raw == str(value)
            elif isinstance(value, float):
                assert bit_equal(float(raw), value)
            else:
                assert isinstance(value, str) and raw == value


ROUND_TRIP = settings(max_examples=20, deadline=None)
# Couplings, areas and step counts small enough that every RK4 run keeps its
# norm drift below the integrator's limit.
RATIO = st.floats(-1.0, 1.0)
STEPS = st.integers(300, 400)


class TestCsvJsonRoundTrip:
    """Every subcommand writes the same values to CSV and to JSON, and its
    JSON meta records the arguments it was given."""

    @ROUND_TRIP
    @given(st.integers(-2, 60))
    def test_table(self, max_product):
        assert_csv_json_round_trip(["table", f"--max-product={max_product}"], {"max_product": max_product})

    @ROUND_TRIP
    @given(RATIO, RATIO, st.floats(0.0, 1.5), st.sampled_from([0.25, 0.5, 1.0]), STEPS)
    def test_trace(self, alpha, beta, area, periods, steps):
        argv = [
            "trace", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--area={area!r}",
            f"--periods={periods!r}", f"--steps-per-period={steps}",
        ]
        params = {"alpha": alpha, "beta": beta, "area": area, "periods": periods, "steps_per_period": steps}
        assert_csv_json_round_trip(argv, params)

    @ROUND_TRIP
    @given(st.integers(0, 60), STEPS)
    def test_verify(self, max_product, steps):
        argv = ["verify", f"--max-product={max_product}", f"--steps-per-period={steps}"]
        assert_csv_json_round_trip(argv, {"max_product": max_product, "steps_per_period": steps}, codes=(0, 1))

    @ROUND_TRIP
    @given(
        st.sampled_from([(1, 1), (-1, 3), (3, -1)]), st.sampled_from([1, -1]), st.floats(0.5, 2.0),
        st.floats(0.0, 0.1), st.floats(0.0, 0.1), st.integers(1, 3), st.floats(-0.1, 0.1), STEPS,
    )
    def test_leakage(self, pair, beta, omega, start, stop, count, w13, steps):
        grid = f"omega12:{start!r}:{stop!r}:{count},omega13:{w13!r}"
        argv = [
            "leakage", f"--n-o={pair[0]}", f"--n-op={pair[1]}", f"--beta={beta}",
            f"--omega={omega!r}", f"--grid={grid}", f"--steps-per-period={steps}",
        ]
        params = {
            "n_o": pair[0], "n_op": pair[1], "beta": beta, "omega": omega, "grid": grid,
            "steps_per_period": steps,
        }
        assert_csv_json_round_trip(argv, params)

    @ROUND_TRIP
    @given(st.data())
    def test_conditions(self, data):
        tol = 10.0 ** data.draw(st.floats(-12.0, math.log10(2.0)))
        if data.draw(st.booleans()):
            cond = data.draw(st.sampled_from(enumerate_conditions(60)))
            sign = data.draw(st.sampled_from([1, -1]))
            alpha, area = sign * cond.alpha, sign * cond.action_t0
        else:
            alpha, area = data.draw(st.floats(-10.0, 10.0)), data.draw(st.floats(-15.0, 15.0))
        beta = data.draw(st.sampled_from([1.0, -1.0, 0.5]))
        argv = ["conditions", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--area={area!r}", f"--tol={tol!r}"]
        assert_csv_json_round_trip(argv, {"alpha": alpha, "beta": beta, "area": area, "tol": tol})

    @ROUND_TRIP
    @given(
        RATIO, RATIO, st.floats(0.0, 1.0),
        st.lists(st.floats(0.01, 0.2), min_size=1, max_size=3, unique=True),
        st.floats(0.0, 1.0), st.floats(0.0, 1.0), STEPS,
    )
    def test_kick(self, alpha, beta, area, widths, omega12, omega13, steps):
        widths = ",".join(repr(w) for w in sorted(widths, reverse=True))
        argv = [
            "kick", f"--alpha={alpha!r}", f"--beta={beta!r}", f"--area={area!r}", f"--widths={widths}",
            f"--omega12={omega12!r}", f"--omega13={omega13!r}", f"--steps-per-period={steps}",
        ]
        params = {
            "alpha": alpha, "beta": beta, "area": area, "widths": widths,
            "omega12": omega12, "omega13": omega13, "steps_per_period": steps,
        }
        assert_csv_json_round_trip(argv, params)


# One quick run of each subcommand; a subcommand added to the parser must be added here.
SMALL_RUNS = {
    "table": ["--max-product", "35"],
    "trace": ["--alpha", "0", "--area", "1", "--periods", "0.25", "--steps-per-period", "400"],
    "verify": ["--max-product", "0"],
    "leakage": ["--n-o", "1", "--n-op", "1", "--grid", "omega12:0,omega13:0", "--steps-per-period", "400"],
    "conditions": ["--alpha", "2.530", "--area", "1.656", "--tol", "0.01"],
    "kick": ["--alpha", "0", "--area", "1", "--widths", "0.2"],
}
# the subcommands that run no RK4: they accept --steps-per-period and record nothing of it
NO_RK4 = ("table", "conditions")


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (action,) = [a for a in cli_module.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(action.choices)


# Floats where parsing, overflow and rounding break: signed zeros,
# subnormals, 1e+-300, the largest floats, infinities and NaN, or ordinary.
HOSTILE_FLOAT = st.one_of(
    st.sampled_from([
        0.0, -0.0, 5e-324, -5e-324, 2.5e-310, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
        math.inf, -math.inf, math.nan,
    ]),
    st.floats(-10.0, 10.0),
)
HOSTILE_COUNT = st.integers(-3, 60)  # negative counts, and family bounds small enough to run at once


def flag(name: str, value) -> str:
    return f"--{name}={value!r}"


@st.composite
def hostile_argv(draw) -> list[str]:
    """A subcommand and every flag of it drawn from hostile ranges, all of
    which the parser accepts, with --steps-per-period in 1 ... 200."""
    command = draw(st.sampled_from(sorted(SMALL_RUNS)))
    steps = flag("steps-per-period", draw(st.integers(1, 200)))
    if command in ("table", "verify"):
        return [command, flag("max-product", draw(HOSTILE_COUNT)), steps]
    if command == "leakage":
        axes = [
            f"{name}:{draw(HOSTILE_FLOAT)!r}" if draw(st.booleans())
            else f"{name}:{draw(HOSTILE_FLOAT)!r}:{draw(HOSTILE_FLOAT)!r}:{draw(st.integers(-2, 4))}"
            for name in ("omega12", "omega13")
        ]
        return [
            command, flag("n-o", draw(HOSTILE_COUNT)), flag("n-op", draw(HOSTILE_COUNT)),
            flag("beta", draw(st.sampled_from([1, -1]))), flag("omega", draw(HOSTILE_FLOAT)),
            f"--grid={','.join(axes)}", steps,
        ]
    argv = [command, *(flag(name, draw(HOSTILE_FLOAT)) for name in ("alpha", "beta", "area"))]
    if command == "trace":
        return [*argv, flag("periods", draw(HOSTILE_FLOAT)), steps]
    if command == "conditions":
        return [*argv, flag("tol", draw(HOSTILE_FLOAT))]
    widths = ",".join(map(repr, draw(st.lists(HOSTILE_FLOAT, max_size=3))))
    return [*argv, f"--widths={widths}", *(flag(name, draw(HOSTILE_FLOAT)) for name in ("omega12", "omega13")), steps]


def floats_written(path: Path, fmt: str):
    """(column, value) of every float in a written file."""
    if fmt == "json":
        for row in json.loads(path.read_text())["rows"]:
            yield from ((key, value) for key, value in row.items() if isinstance(value, float))
        return
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            for key, text in row.items():
                with contextlib.suppress(ValueError):  # true, false and the strings
                    yield key, float(text)


@settings(max_examples=200, deadline=None)
@given(hostile_argv(), st.sampled_from(["csv", "json"]))
@example(["leakage", "--n-o=1", "--n-op=1", "--grid=omega12:0,omega13:inf:-1e198:2"], "csv")
def test_hostile_argv_exits_cleanly(argv, fmt):
    """Any argv the parser accepts exits 0, 1 or 2, with no warning.  On 2
    stderr is one ``error:`` line; on 0 or 1 it is empty, and every float
    written is finite but ``verify``'s ``ode_deviation``, ``inf`` when a
    run tripped the norm drift gate."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, "--format", fmt, "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1, err.getvalue()
            return
        assert err.getvalue() == ""
        infinite = [(key, value) for key, value in floats_written(out, fmt) if not math.isfinite(value)]
        assert all(argv[0] == "verify" and key == "ode_deviation" for key, _ in infinite), infinite


class TestMetaFollowsTheParser:
    """The JSON meta records every flag the parser defines, in its order,
    but ``--out`` and ``--format``, so no subcommand can leave one out."""

    @pytest.mark.parametrize("command", sorted(SMALL_RUNS))
    def test_parameters_are_the_option_dests(self, tmp_path, command):
        parsers = subcommand_parsers()
        assert set(parsers) == set(SMALL_RUNS)
        options = [a for a in parsers[command]._actions if a.option_strings]
        dests = [a.dest for a in options if a.dest not in ("help", "out", "format")]
        if command in NO_RK4:
            dests.remove("steps_per_period")
        out = tmp_path / "out.json"
        assert main([command, *SMALL_RUNS[command], "--format", "json", "--out", str(out)]) == 0
        assert list(json.loads(out.read_text())["meta"]["parameters"]) == dests

    @pytest.mark.parametrize("command", NO_RK4)
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_steps_per_period_leaves_no_trace(self, tmp_path, command, fmt):
        plain, given = tmp_path / "plain", tmp_path / "given"
        argv = [command, *SMALL_RUNS[command], "--format", fmt, "--out"]
        assert main([*argv, str(plain)]) == 0
        assert main([*argv, str(given), "--steps-per-period", "7"]) == 0
        assert given.read_bytes() == plain.read_bytes()
        assert len(plain.read_text().splitlines()) > 1

    @pytest.mark.parametrize("command, fmt", [
        # a CSV case is named by its command alone
        pytest.param(command, fmt, id=command if fmt == "csv" else f"{command}-{fmt}")
        for fmt in ("csv", "json") for command in sorted(SMALL_RUNS)
    ])
    def test_a_run_leaves_no_cyclic_garbage(self, tmp_path, command, fmt):
        """The parser is built once a process and the JSON head is joined
        from plain ``json.dumps`` texts: a run frees all it made when it
        returns, with nothing left for the garbage collector."""
        argv = [command, *SMALL_RUNS[command], "--format", fmt, "--out", str(tmp_path / f"out.{fmt}")]
        assert main(argv) == 0
        gc.collect()
        assert main(argv) == 0
        assert gc.collect() == 0


# Values at the edges of each column type the writers take: floats whose
# texts differ between repr, str and json, or that sit at the edges of the
# float range (signed zeros, subnormals, the largest float, infinities and
# NaN); ints past 2**53, to the ends of int64; bools; and ASCII strings.
# numpy's str dtype drops trailing NULs, so a column drawn as an array could
# not hold one: the strings leave NUL out, and a test of each writer gives
# one in a list.
COLUMN_VALUES = {
    "float": st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e16, 1.7976931348623157e308, math.inf, -math.inf, math.nan]),
        st.floats(),
    ),
    "int": st.one_of(st.sampled_from([-(2**63), 2**53 + 1, 2**63 - 1]), st.integers(-(2**63), 2**63 - 1)),
    "bool": st.booleans(),
    "str": st.text(st.characters(min_codepoint=1, max_codepoint=0x7F), max_size=4),
}


def draw_columns(data, width: int) -> tuple[list, list[tuple]]:
    """``width`` typed columns of 0 to 7 rows, each an array or, at random, a
    list, and the same values as rows of plain Python values."""
    n_rows = data.draw(st.integers(0, 7))
    values = [
        data.draw(st.lists(COLUMN_VALUES[kind], min_size=n_rows, max_size=n_rows))
        for kind in data.draw(st.lists(st.sampled_from(sorted(COLUMN_VALUES)), min_size=width, max_size=width))
    ]
    columns = [np.asarray(column) if data.draw(st.booleans()) else column for column in values]
    return columns, list(zip(*values))


def csv_text(value) -> str:
    """One value's CSV text, decided value by value."""
    if isinstance(value, bool):
        return "true" if value else "false"
    return value if isinstance(value, str) else repr(value)


# the kinds of value a parsed flag can hold
PARAMETER_VALUE = st.one_of(st.floats(), st.integers(), st.text(max_size=4))
# Two rows a block, so that 0 to 7 rows end in a full block, a short one or none.
SMALL_BLOCKS = patch.object(cli_module, "_BLOCK_ROWS", 2)


class TestCsvWriter:
    """The CSV writer gives the bytes of a row-by-row writer."""

    @staticmethod
    def reference(path, header, rows) -> None:
        with open(path, "w", newline="") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(map(csv_text, row)) + "\n")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_row_by_row_writer(self, data):
        header = [f"c{i}" for i in range(data.draw(st.integers(1, 5)))]
        columns, rows = draw_columns(data, len(header))
        with tempfile.TemporaryDirectory() as tmp, SMALL_BLOCKS:
            ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
            cli_module._write_csv(str(ours), header, columns)
            self.reference(ref, header, rows)
            assert ours.read_bytes() == ref.read_bytes()

    def test_str_list_keeps_trailing_nul(self, tmp_path):
        cli_module._write_csv(str(tmp_path / "out.csv"), ["s"], [["a\x00", "b"]])
        assert (tmp_path / "out.csv").read_bytes() == b"s\na\x00\nb\n"


class TestJsonWriter:
    """The JSON writer gives the bytes of ``json.dump(..., indent=2)`` plus a newline."""

    @staticmethod
    def reference(path, command, params, header, rows) -> None:
        payload = {
            "meta": {"command": command, "parameters": params, "version": __version__},
            "rows": [dict(zip(header, row)) for row in rows],
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_matches_json_dump(self, data):
        header = data.draw(st.lists(st.text(max_size=6), min_size=1, max_size=5, unique=True))
        columns, rows = draw_columns(data, len(header))
        params = data.draw(st.dictionaries(st.text(max_size=4), PARAMETER_VALUE, max_size=3))
        with tempfile.TemporaryDirectory() as tmp, SMALL_BLOCKS:
            ours, ref = Path(tmp) / "ours.json", Path(tmp) / "ref.json"
            cli_module._write_json(str(ours), "cmd", params, header, columns)
            self.reference(ref, "cmd", params, header, rows)
            assert ours.read_bytes() == ref.read_bytes()

    def test_str_list_keeps_trailing_nul(self, tmp_path):
        cli_module._write_json(str(tmp_path / "out.json"), "cmd", {}, ["s"], [["a\x00", "b"]])
        assert json.loads((tmp_path / "out.json").read_text())["rows"] == [{"s": "a\x00"}, {"s": "b"}]

    def test_array_rows_and_braced_keys_match_json_dump(self, tmp_path):
        rows = np.array([[0.1, math.nan, -math.inf], [1e300, -0.0, 3.0]])
        header = ["t", "{}", 'a"{0}']
        cli_module._write_json(str(tmp_path / "ours.json"), "trace", {}, header, list(rows.T))
        self.reference(tmp_path / "ref.json", "trace", {}, header, rows.tolist())
        assert (tmp_path / "ours.json").read_bytes() == (tmp_path / "ref.json").read_bytes()


class TestWriterMemory:
    """A writer holds a block of rows' texts at a time, never the whole file:
    its memory does not grow with the number of rows."""

    @staticmethod
    def peak(write, columns) -> int:
        tracemalloc.start()
        try:
            write(columns)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind", ["array", "view"])
    def test_peak_does_not_grow_with_the_rows(self, tmp_path, fmt, kind):
        """Seven float columns, each a whole array or a strided view of a
        [rows, 7] array, as ``trace`` hands the writer its populations."""
        header = ["t", "p1", "p2", "p3", "p1_num", "p2_num", "p3_num"]
        path = str(tmp_path / f"out.{fmt}")
        write = {
            "csv": lambda columns: cli_module._write_csv(path, header, columns),
            "json": lambda columns: cli_module._write_json(path, "trace", {}, header, columns),
        }[fmt]
        rng = np.random.default_rng(3)
        small, large = (list(rng.random((7, n)) if kind == "array" else rng.random((n, 7)).T) for n in (4000, 40000))
        write(small)  # first-call imports and caches
        small_peak, large_peak = self.peak(write, small), self.peak(write, large)
        # ten times the rows: 5.4 MB of CSV text, 10 MB of JSON text
        assert large_peak < small_peak + 32 * 1024, (small_peak, large_peak)
