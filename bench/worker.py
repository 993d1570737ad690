"""Run one workload in a fresh interpreter and print its raw results as JSON.

Started by ``run.py`` with the BLAS thread variables set to 1 and
``TRIPOP_STEPS`` removed.  It imports the package, builds the workload's
inputs, probes the core's speed, prints ``ready <probe seconds> <scale>``
(the end of set-up; see ``Clock`` for the scale), then runs passes and writes
its raw results to ``--result``.  With ``--setup-only`` it stops after ``ready``.

Untraced (``--trace 0``): passes run back to back until the next one would
end past ``--seconds`` (at least two, so the determinism check has a pair).
Traced (``--trace 1``): one untraced pass, then one pass under the tracer.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np

import tripop
import tracer as tracing
import workloads


SETUP_PROBES = 20  # probe the core's speed at the end of set-up, to normalise setup_s


def environment() -> dict:
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "tripop": tripop.__version__,
        "tripop_path": str(Path(tripop.__file__).parent),
    }


def timed_pass(wl, tally, **extra) -> dict:
    stages = wl.run_pass(tally)
    return {
        "stages": stages,
        "wall_s": sum(s["wall_s"] for s in stages.values()),
        "norm_s": sum(s["norm_s"] for s in stages.values()),
        **extra,
    }


def run_passes(wl, tally, seconds: float) -> list[dict]:
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(timed_pass(wl, tally))
        last = time.perf_counter() - t0
        if len(passes) >= 2 and time.perf_counter() - start + last > seconds:
            return passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", help="where the raw results go, as JSON")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    if "TRIPOP_STEPS" in os.environ:
        parser.error("TRIPOP_STEPS changes the integrator's step count; unset it")

    wl = workloads.make(args.workload, args.seed, args.size, Path(args.workdir))
    t0 = time.perf_counter()
    probes = [workloads.probe() for _ in range(SETUP_PROBES)]
    scale = workloads.PROBE_REF_S / (sum(probes) / len(probes))
    print(f"ready {time.perf_counter() - t0!r} {scale!r}", flush=True)
    if args.setup_only:
        return 0
    sys.stdout = sys.stderr  # the parent reads nothing after "ready"

    tally = workloads.Tally()
    result = {"environment": environment()}
    if not args.trace:
        result["passes"] = run_passes(wl, tally, args.seconds)
    else:
        untraced = timed_pass(wl, tally)
        wl.clock.sampling = False
        tr = tracing.Tracer()
        tr.install()
        try:
            with tr.span(f"bench.{args.workload}"):
                traced = timed_pass(wl, tally, traced=True)
        finally:
            tr.uninstall()
        metrics, detail = tracing.layer_metrics(tr)
        rows = [workloads.count_output_rows(p) for p in wl.outputs if p.exists()]
        metrics["cli.rows_written"] = (sum(rows), "count")
        metrics["cli.bytes_written"] = (sum(p.stat().st_size for p in wl.outputs if p.exists()), "bytes")
        metrics["trace_overhead_frac"] = (traced["norm_s"] / untraced["norm_s"] - 1.0, "1")
        result["passes"] = [untraced, traced]
        result["layers"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
        result["layer_detail"] = detail
        if args.spans:
            tr.write(args.spans, {"workload": args.workload, "seed": args.seed, "pass": 1})
    result["tally"] = tally.as_dict()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
