"""End-to-end tests of the command-line surface.

Each subcommand runs in-process through cli.main; file contents are parsed
back and checked against library results and published values.
"""

import csv
import json
import math

import numpy as np
import pytest
from scipy.linalg import expm

from tripop import CouplingRatios, OddPair, condition_from_odd_pair, verify_conditions
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
        out = tmp_path / "scan.csv"
        code = main(
            ["leakage", "--n-o", "1", "--n-op", "1", "--grid", "bogus:1", "--out", str(out)]
        )
        assert code == 2


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

    def test_increasing_widths_rejected(self, tmp_path):
        out = tmp_path / "kick.csv"
        code = main(
            ["kick", "--alpha", "0", "--area", "1.0", "--widths", "0.05,0.1", "--out", str(out)]
        )
        assert code == 2


class TestEnvOverride:
    def test_steps_env_variable(self, tmp_path, monkeypatch):
        """TRIPOP_STEPS sets the default step count when no flag is given."""
        monkeypatch.setenv("TRIPOP_STEPS", "100")
        out = tmp_path / "t.csv"
        main(["trace", "--alpha", "0", "--area", "1.0", "--periods", "1", "--out", str(out)])
        # 100 steps/period with the default recording stride (every 10th step)
        assert len(read_csv(out)) == 11
