"""Run the benchmark over many seeds and collect a result set.

    python3 perfbench/sweep.py --seeds 1-10 --out runs.jsonl
    python3 perfbench/sweep.py --seeds 1-3 --trace 1 --out traced.jsonl
    python3 perfbench/sweep.py --seeds 1-10 --root ../parent --out parent.jsonl \
        --root . --out change.jsonl

Every workload runs for run_seconds of BENCHMARK.json. Each line of an
output file is one run: {"workload", "seed", "trace", "sweep", "result"},
where result is the JSON line run.py printed and sweep identifies this
call. With two --root/--out pairs the two checkouts run in turn for every
seed, and the one that goes first alternates, so drift in the machine
hits both alike; compare.py calls a gain only between two such sets.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import uuid
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from run import WORKLOADS  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{root}: {workload} seed {seed} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Collect benchmark runs over many seeds.")
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--root", action="append", type=Path, help="checkout to run (default: this one)")
    parser.add_argument("--out", action="append", required=True, type=Path)
    args = parser.parse_args(argv)

    roots = args.root or [HERE.parent]
    if len(roots) != len(args.out):
        parser.error("give one --out per --root")
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    sweep = uuid.uuid4().hex
    sides = list(zip(roots, args.out))
    for _, out in sides:
        out.write_text("")
    for workload in WORKLOADS:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for root, out in (sides if i % 2 == 0 else sides[::-1]):
                result = run_once(root, workload, seed, seconds, args.trace)
                record = {"workload": workload, "seed": seed, "trace": args.trace,
                          "sweep": sweep, "result": result}
                with out.open("a") as handle:
                    handle.write(json.dumps(record) + "\n")
                print(f"{root}: {workload} seed {seed}: correct={result['correct']}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
