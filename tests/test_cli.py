"""End-to-end tests of the command-line surface.

Each subcommand runs in-process through cli.main; file contents are parsed
back and checked against library results and published values.
"""

import csv
import json
import logging
import math
import struct
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tripop import (
    CouplingRatios,
    OddPair,
    __version__,
    classify_cases,
    condition_from_odd_pair,
    enumerate_conditions,
    verify_conditions,
)
from tripop import conditions as conditions_module
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
    value-by-value formatting of the columnar writer's predecessor."""
    rows = []
    for cond in enumerate_conditions(max_product):
        cases = classify_cases(cond)
        rows.append(
            [
                cond.n1, cond.n2, cond.pair.n_o + cond.pair.n_op, cond.pair.n_o, cond.pair.n_op,
                *cases.case_i, *cases.case_ii, *cases.case_iii, cond.action_t0, cond.alpha,
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

    @pytest.mark.parametrize(
        "pair,message", [((1, 3), "even integer"), ((2, 4), "must be odd"), ((1, 5), None)]
    )
    def test_column_checks_refuse_a_foreign_pair(self, tmp_path, monkeypatch, capsys, pair, message):
        """A pair outside the family fails the table's array checks (exit 2,
        one error line); a family pair passes them."""
        monkeypatch.setattr(
            conditions_module, "family_integers",
            lambda max_product: (np.array([pair[0]]), np.array([pair[1]])),
        )
        code = main(["table", "--max-product", "35", "--out", str(tmp_path / "t.csv")])
        if message is None:
            assert code == 0
        else:
            assert code == 2 and message in capsys.readouterr().err


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

    def test_exit_code_contract_on_injected_fault(self):
        """A perturbed coupling ratio must fail the check battery; the library
        rejects it at construction, which the harness reports as a failure."""
        from dataclasses import replace

        import tripop.verification as verification

        cond = condition_from_odd_pair(OddPair(1, 1))
        object.__setattr__(cond, "alpha", cond.alpha + 1e-3)  # bypass validation
        check = verification.check_condition(cond, steps_per_period=2000)
        assert not check.passed
        with pytest.raises(Exception):
            verification.require_all_pass([check])

    def test_library_verify_matches_cli(self):
        checks = verify_conditions(9, steps_per_period=2000)
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

    def test_malformed_grid_is_an_error(self, tmp_path):
        """An unknown axis, and an axis given twice (the later value would
        silently win while the meta records the whole string)."""
        out = tmp_path / "scan.csv"
        for grid in ("bogus:1", "omega12:0.1,omega13:0,omega12:0.3"):
            code = main(["leakage", "--n-o", "1", "--n-op", "1", "--grid", grid, "--out", str(out)])
            assert code == 2
            assert not out.exists()

    @pytest.mark.parametrize("omega", ["0", "-1", "nan", "inf"])
    def test_unusable_omega_is_an_error(self, tmp_path, capsys, omega):
        out = tmp_path / "scan.csv"
        code = main(
            [
                "leakage", "--n-o", "1", "--n-op", "1", f"--omega={omega}",
                "--grid", "omega12:0.05,omega13:0", "--out", str(out),
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


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
            # 20,005,000 points: past MAX_RUN_RECORDS // 2, since each run records two steps at least
            ["leakage", "--n-o", "1", "--n-op", "1", "--grid", "omega12:0:1:5000,omega13:0:1:4001"],
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
