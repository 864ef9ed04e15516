"""Benchmark entry point: run one ptree workload and print its metrics.

    python3 perfbench/run.py --workload sampling --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15

Run it from any directory; it finds ptree under src/ next to this
directory. With --trace 0 the last line of output is a JSON object with
the end-to-end metrics; with --trace 1 it holds the per-layer metrics of
a separate traced run. --workload all runs the four workloads in turn and
prints every end-to-end metric with its unit.

Each workload runs in fresh interpreters started here: SETUP_RUNS
set-up-only processes, each timed from start to exit and paired with a
reference process, give setup_s as their median; one more process runs
the closed loop and reports the rest. All times are at
reference speed (see calibrate.py). The exit code is 0 only when every
process succeeded and printed a result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("sampling", "trials", "corpus_cli", "deep_queries")
SETUP_RUNS = 15
SETUP_TIMEOUT_S = 60
# Beyond --seconds a run sets up, runs a checked reference cycle and
# finishes the cycle under way at the deadline (the longest takes about a
# second).
RUN_MARGIN_S = 120

UNITS = {
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "ok_ratio": "ratio",
}


class BenchError(Exception):
    pass


def _run(cmd: list[str], what: str, timeout: float) -> str:
    # A fixed hash seed keeps set iteration, and so Fraction bit growth, repeatable.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{what} did not finish in {timeout} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{what} exited with code {proc.returncode}")
    return proc.stdout


def _worker(mode: str, workload: str, seed: int, seconds: float, timeout: float) -> str:
    cmd = [sys.executable, str(WORKER), mode, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    return _run(cmd, f"{mode} of {workload}", timeout)


def setup_seconds(workload: str, seed: int, runs: int) -> list[float]:
    """Set-up times at reference speed, each paired with a reference process."""
    times = []
    for _ in range(runs):
        start = perf_counter()
        _run([sys.executable, str(HERE / "calibrate.py")], "the reference process", SETUP_TIMEOUT_S)
        reference = perf_counter() - start
        start = perf_counter()
        _worker("setup", workload, seed, 0, SETUP_TIMEOUT_S)
        times.append((perf_counter() - start) / reference * calibrate.REFERENCE_PROCESS_S)
    return times


def _last_json(stdout: str) -> dict:
    lines = stdout.strip().splitlines()
    if not lines:
        raise BenchError("the worker printed no result")
    return json.loads(lines[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        result = _last_json(_worker("trace", workload, seed, seconds, seconds + RUN_MARGIN_S))
        metrics = result["metrics"]
    else:
        # Set-ups run before and after the timed phase, so their median
        # spans more than one phase of the machine's drifting speed.
        setups = setup_seconds(workload, seed, SETUP_RUNS // 2)
        result = _last_json(_worker("run", workload, seed, seconds, seconds + RUN_MARGIN_S))
        setups += setup_seconds(workload, seed, SETUP_RUNS - SETUP_RUNS // 2)
        print(f"{workload}: {result['raw_ops_per_s']:.6g} ops/s before calibration")
        values = {
            "ops_per_s": result["ops_per_s"],
            "op_ms.p50": result["p50_ms"],
            "op_ms.p90": result["p90_ms"],
            "setup_s": statistics.median(setups),
            "peak_rss_mib": result["peak_rss_mib"],
            "ok_ratio": (result["attempted"] - result["failed"]) / result["attempted"],
        }
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Run one ptree benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ptree" / "__init__.py").is_file():
        print(f"error: no ptree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for name, result in results.items():
        print(f"{name}: {result['attempted']} ops, {result['failed']} failed")
        for metric, m in result["metrics"].items():
            print(f"  {metric:32s} {m['value']:14.6g} {m['unit']}")
    if args.workload == "all":
        print(json.dumps(results))
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
