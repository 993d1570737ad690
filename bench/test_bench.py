"""Self-tests of the benchmark: BENCHMARK.json, small runs, seeds, tracer.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# The end-to-end stage timings each workload reports.
STAGES = {
    "sweep": {"verify_s", "leakage_s", "kick_s"},
    "long_trace": {"trace_csv_s", "trace_json_s"},
    "analytic": {"family_s", "dressed_map_s", "shaped_pulse_s"},
}

# Every per-layer metric a traced run reports, BENCHMARK.json's list or not.
LAYER_METRICS = {
    "propagate.runs", "propagate.config_steps", "propagate.self_s",
    "propagate.us_per_config_step", "propagate.norm_drift_max",
    "pulses.value_calls", "pulses.value_s", "pulses.area_calls", "pulses.area_s",
    "pulses.area_us_p50", "pulses.area_us_tail",
    "dressed.basis_calls", "dressed.basis_ok_ratio", "dressed.basis_us_p50",
    "dressed.basis_us_tail", "dressed.pop_ns_per_action", "dressed.amp_us_p50",
    "conditions.rows", "conditions.enumerate_s", "conditions.validate_calls",
    "conditions.validate_us_p50", "conditions.closed_form_ns_per_action",
    "leakage.deficit_calls", "leakage.self_s",
    "verification.checks", "verification.pass_ratio", "verification.self_s",
    "cli.self_s", "cli.rows_written", "cli.bytes_written", "trace_overhead_frac",
}


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def small_run(workload, trace, seed=3):
    proc = run_bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace), "--size", "small")
    assert proc.returncode == 0, proc.stderr
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    full = json.loads((BENCH / "out" / f"BENCH_{workload}_seed{seed}_trace{trace}.json").read_text())
    return final, full


# -- BENCHMARK.json -------------------------------------------------------------


def test_benchmark_json_shape():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["bench"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer") for m in SPEC[group]]
    assert all(NAME.match(n) for n in names)
    assert len(set(m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"])) == len(SPEC["end_to_end"]) + len(SPEC["per_layer"])
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert {m["name"] for m in SPEC["per_layer"]} <= LAYER_METRICS


# -- small runs ----------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_untraced_run(workload):
    final, full = small_run(workload, trace=0)
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["correct"] is True and final["attempted"] >= 1
    assert list(final["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for name, m in final["metrics"].items():
        assert m["value"] > 0, name
    assert STAGES[workload] | {"setup_s", "setup_raw_s", "wall_s", "norm_wall_s", "peak_rss_mb", "fail_frac",
                               "known_refusals_per_pass"} == set(full["metrics"])
    for p in full["passes"]:
        assert all(s["probes"] >= 2 and s["norm_s"] > 0 for s in p["stages"].values())
    # No operation fails.  The cubic gauge's refusals of valid couplings are
    # reported apart from the failures, and only on analytic.
    assert final["failed"] == 0 and full["tally"]["reasons"] == {}
    assert all(reason.startswith("dressed: ") and "valid coupling" in reason
               for reason in full["tally"]["known_defects"])
    if workload != "analytic":
        assert full["tally"]["known_defects"] == {}
    env = full["environment"]
    assert env["seed"] == 3 and env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"commit", "source_sha256", "nproc", "python", "numpy", "blas"} <= set(env)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_small_traced_run(workload):
    final, full = small_run(workload, trace=1)
    assert list(final["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    assert set(full["layers"]) == LAYER_METRICS
    layers = {k: v["value"] for k, v in full["layers"].items()}
    if workload == "sweep":
        # 17 verify + 25 leakage quarter periods and 3 kick windows at 8,000 steps per period
        assert layers["propagate.config_steps"] == 17 * 2000 + 25 * 2000 + 3 * 8000
        assert layers["verification.checks"] == 17 and layers["leakage.deficit_calls"] == 25
    if workload == "analytic":
        assert layers["propagate.runs"] == 0 and layers["dressed.basis_calls"] == 500
    assert layers["cli.rows_written"] > 0
    spans = json.loads((ROOT / full["spans_file"]).read_text())
    assert spans["spans"] and spans["workload"] == workload


def test_run_without_package_source_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


# -- seeds ---------------------------------------------------------------------


def test_analytic_inputs_follow_the_seed(tmp_path):
    a = workloads.make("analytic", 5, "small", tmp_path / "a")
    b = workloads.make("analytic", 5, "small", tmp_path / "b")
    c = workloads.make("analytic", 6, "small", tmp_path / "c")
    assert a.lookups == b.lookups and a.couplings == b.couplings and a.queries == b.queries
    assert (tmp_path / "a" / "pulse.csv").read_bytes() == (tmp_path / "b" / "pulse.csv").read_bytes()
    assert a.couplings != c.couplings and a.queries != c.queries


def test_lookups_are_half_hits_half_misses(tmp_path):
    wl = workloads.make("analytic", 11, "small", tmp_path)
    expected = [e for _, _, e in wl.lookups]
    assert sum(e is None for e in expected) == len(expected) // 2


def test_family_members_match_the_paper_table():
    # The paper's table: 17 ordered members with n1 * n2 <= 35.
    assert len(workloads.family_members(35)) == 17
    assert len(workloads.family_members(20000)) == 19064


# -- tracer --------------------------------------------------------------------


def test_percentiles_keep_ten_samples_beyond_the_tail():
    p50, tail, pct, n = tracing.percentiles(list(range(1, 1001)))
    assert (p50, tail, n) == (500.5, 990, 1000) and pct == 99.0
    assert tracing.percentiles([4.0, 2.0])[:2] == (3.0, 4.0)
    assert tracing.percentiles([]) == (0.0, 0.0, 100.0, 0)


def test_tracer_wraps_and_restores():
    from tripop import cli, leakage, propagate, pulses, verification
    from tripop.dressed import CouplingRatios

    original = propagate.integrate
    tr = tracing.Tracer()
    tr.install()
    try:
        assert cli.integrate is propagate.integrate is leakage.integrate is verification.integrate
        assert propagate.integrate is not original
        pulse = pulses.Pulse.harmonic(1.0, 1.0)
        with tr.span("bench.test"):
            propagate.integrate(CouplingRatios(0.0, 1.0), propagate.LevelEnergies.degenerate(), pulse,
                                1.0, propagate.IntegratorConfig(steps_per_period=100))
    finally:
        tr.uninstall()
    assert propagate.integrate is original and cli.integrate is original
    metrics, _ = tracing.layer_metrics(tr)
    steps = int(np.ceil(1.0 / (2 * np.pi / 100)))
    assert metrics["propagate.runs"][0] == 1 and metrics["propagate.config_steps"][0] == steps
    assert metrics["pulses.value_calls"][0] == 4 * steps
    assert 0 < metrics["propagate.self_s"][0]
