"""tripop benchmark: run one workload and print its metrics.

    python3 bench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Each workload runs in its own single-threaded worker process (``worker.py``),
a closed loop with one client making one call at a time.  ``--trace 0``
reports the end-to-end metrics of untraced passes; ``--trace 1`` makes one
untraced and one traced pass and reports the per-layer metrics.  Every
metric is printed by name with its unit; the last line of standard output is
one JSON object with the metrics that ``BENCHMARK.json`` declares, and the
full result goes to ``bench/out/BENCH_<workload>_seed<seed>_trace<t>.json``.
``--workload all`` runs the three workloads one after another.

The run fails (nonzero exit, no result line) when the package source
``src/tripop`` is missing or a worker fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOADS = ("sweep", "long_trace", "analytic")
SETUP_SAMPLES = 7       # fresh interpreters timed per run; setup_s is their median
RUN_DEADLINE_S = 170.0  # a run must end within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(["git", "--git-dir", str(git_dir), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "tripop").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def worker_env() -> tuple[dict, str | None]:
    env = dict(os.environ)
    cleared = env.pop("TRIPOP_STEPS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env, cleared


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, float]:
    """Start a worker and wait for its exit; returns its set-up time, raw and normalised.

    The raw time runs from the start of the interpreter to the worker's
    ``ready`` line, less the probes the worker runs just before it.  The
    normalised time is the raw time times the scale the worker reports:
    PROBE_REF_S / (mean probe time), as for the stages (``Clock`` in
    ``workloads.py``).
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py"), *args],
                            stdout=subprocess.PIPE, cwd=ROOT, env=env)
    try:
        fd, seen = proc.stdout.fileno(), b""
        while b"\n" not in seen:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise BenchError("worker timed out during set-up")
            chunk = os.read(fd, 64)
            if not chunk:
                raise BenchError(f"worker exited during set-up (code {proc.wait()})")
            seen += chunk
        elapsed = time.perf_counter() - t0
        fields = seen.split(b"\n", 1)[0].split()
        if len(fields) != 3 or fields[0] != b"ready":
            raise BenchError(f"unexpected worker output {seen!r}")
        raw = elapsed - float(fields[1])
        setup = (raw, raw * float(fields[2]))
        try:
            code = proc.wait(timeout=max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError("worker ran past the run deadline") from exc
        if code != 0:
            raise BenchError(f"worker exited with code {code}")
        return setup
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()


def run_workload(name: str, seed: int, seconds: int, trace: int, size: str) -> dict:
    deadline = time.monotonic() + RUN_DEADLINE_S
    env, cleared = worker_env()
    workdir = OUT / "work" / name
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds),
              "--size", size, "--workdir", str(workdir)]
    setups = [spawn(common + ["--setup-only"], env, deadline) for _ in range(SETUP_SAMPLES - 1)]
    result_path = OUT / f"worker_{name}.json"
    spans_path = OUT / f"spans_{name}_seed{seed}.json"
    extra = ["--trace", str(trace), "--result", str(result_path)]
    if trace:
        extra += ["--spans", str(spans_path)]
    setups.append(spawn(common + extra, env, deadline))
    worker = json.loads(result_path.read_text())
    result_path.unlink()

    tripop_path = Path(worker["environment"]["tripop_path"]).resolve()
    if tripop_path != (SRC / "tripop").resolve():
        raise BenchError(f"worker imported tripop from {tripop_path}, not from {SRC}")

    untraced = [p for p in worker["passes"] if not p.get("traced")]
    tally = worker["tally"]
    metrics = {
        "setup_s": {"value": statistics.median(norm for _, norm in setups), "unit": "s"},
        "setup_raw_s": {"value": statistics.median(raw for raw, _ in setups), "unit": "s"},
        "wall_s": {"value": statistics.median(p["wall_s"] for p in untraced), "unit": "s"},
        "norm_wall_s": {"value": statistics.median(p["norm_s"] for p in untraced), "unit": "s"},
        "peak_rss_mb": {"value": worker["peak_rss_mb"], "unit": "MB"},
        "fail_frac": {"value": tally["failed"] / tally["attempted"], "unit": "1"},
        "known_refusals_per_pass": {"value": sum(tally["known_defects"].values()) / len(worker["passes"]),
                                    "unit": "count"},
    }
    for stage in untraced[0]["stages"]:
        metrics[stage] = {"value": statistics.median(p["stages"][stage]["norm_s"] for p in untraced), "unit": "s"}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "size": size,
        "correct": tally["correct"],
        "attempted": tally["attempted"],
        "failed": tally["failed"],
        "metrics": metrics,
        "layers": worker.get("layers", {}),
        "layer_detail": worker.get("layer_detail"),
        "setup_samples_s": setups,
        "passes": worker["passes"],
        "tally": tally,
        "spans_file": str(spans_path.relative_to(ROOT)) if trace else None,
        "environment": {
            **worker["environment"],
            "commit": git_commit(),
            "source_sha256": source_digest(),
            "seed": seed,
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "thread_vars": {var: env[var] for var in THREAD_VARS},
            "tripop_steps_cleared": cleared,
        },
    }


def print_metrics(res: dict) -> None:
    mode = "traced" if res["trace"] else "untraced"
    print(f"# {res['workload']} seed={res['seed']} {mode} passes={len(res['passes'])} "
          f"attempted={res['attempted']} failed={res['failed']} correct={res['correct']}")
    for group in ("metrics", "layers"):
        for name, m in res[group].items():
            print(f"{name:<40} {m['value']:<24.10g} {m['unit']}")
    for reason, count in res["tally"]["reasons"].items():
        print(f"# failed {count:>6}  {reason}")
    for reason, count in res["tally"]["known_defects"].items():
        print(f"# known defect, not counted as failed {count:>6}  {reason}")


def declared(trace: int) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def summary(res: dict, names: list[str]) -> dict:
    source = res["layers"] if res["trace"] else res["metrics"]
    missing = [n for n in names if n not in source]
    if missing:
        raise BenchError(f"{res['workload']}: no value for declared metrics {missing}")
    return {
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {n: source[n] for n in names},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "small"), default="full",
                        help="'small' shrinks every workload; for the self-tests")
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (SRC / "tripop" / "__init__.py").is_file():
        print(f"error: package source {SRC / 'tripop'} not found", file=sys.stderr)
        return 2

    names = declared(args.trace)
    OUT.mkdir(parents=True, exist_ok=True)
    results = []
    try:
        for name in WORKLOADS if args.workload == "all" else (args.workload,):
            res = run_workload(name, args.seed, args.seconds, args.trace, args.size)
            out = OUT / f"BENCH_{name}_seed{args.seed}_trace{args.trace}.json"
            out.write_text(json.dumps(res, indent=1) + "\n")
            print_metrics(res)
            results.append((name, summary(res, names)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if len(results) == 1:
        final = results[0][1]
    else:
        final = {
            "correct": all(r["correct"] for _, r in results),
            "attempted": sum(r["attempted"] for _, r in results),
            "failed": sum(r["failed"] for _, r in results),
            "metrics": {f"{n}.{k}": v for n, r in results for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
