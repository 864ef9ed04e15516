"""Summarize one result set, or compare two, metric by metric.

    python3 perfbench/compare.py runs.jsonl
    python3 perfbench/compare.py parent.jsonl change.jsonl

Result sets are the JSON-lines files sweep.py writes. For each workload
and metric the report gives the median and quartiles of each set and the
spread (quartile distance over median). With two sets it adds the change
of the median, the share of seed-matched pairs the second set won (ties
count for neither) and a verdict, using the bounds in BENCHMARK.json.
The two sets are paired when one sweep.py call wrote both, so that their
runs alternated on the same machine; only paired sets can show a gain,
since the machine's drift between two separate sweeps can exceed a
metric's quartile distance.

  regression   the median worsened by more than the metric's bound
  unresolved   a spread exceeds the bound, and not every run of the
               second set beats every run of the first
  gain         the sets are paired, at least MIN_PAIRS seeds match, nine
               tenths of the pairs won, and the medians differ by more
               than the first set's quartile distance
  same         none of the above
  -            per-layer metric (no bound); medians only

The exit code is 1 when a run was incorrect, the sets share no seed or
a regression was found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# Fewer pairs leave no quartile distance to beat and no share to speak of.
MIN_PAIRS = 5


def load(path: Path) -> tuple[dict[tuple[str, str], dict[int, float]], set]:
    """((workload, metric) -> seed -> value, sweep ids); raises on incorrect runs."""
    table: dict[tuple[str, str], dict[int, float]] = {}
    sweeps = set()
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        result = record["result"]
        sweeps.add(record.get("sweep"))
        if not result["correct"]:
            raise ValueError(f"{path}: {record['workload']} seed {record['seed']} was incorrect")
        for metric, m in result["metrics"].items():
            table.setdefault((record["workload"], metric), {})[record["seed"]] = m["value"]
    return table, sweeps


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def metric_specs() -> dict[str, dict]:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"]}
    specs.update({m["name"]: dict(m, bound=None) for m in bench["per_layer"]})
    return specs


def verdict(base: dict[int, float], new: dict[int, float], spec: dict,
            paired: bool) -> tuple[float, float, str]:
    """(change of the median as a share, share of seed-matched pairs won, verdict)."""
    sign = 1 if spec["better"] == "lower" else -1
    b_vals, n_vals = list(base.values()), list(new.values())
    b_med, n_med = statistics.median(b_vals), statistics.median(n_vals)
    worse = sign * (n_med - b_med) / b_med if b_med else 0.0
    seeds = sorted(set(base) & set(new))
    if not seeds:
        raise ValueError("the two sets share no seed")
    won = sum(1 for s in seeds if sign * (new[s] - base[s]) < 0) / len(seeds)
    bound = spec["bound"]
    if bound is None:
        return worse, won, "-"
    all_better = all(sign * (n - b) < 0 for n in n_vals for b in b_vals)
    q1, _, q3 = quartiles(b_vals)
    if max(spread(b_vals), spread(n_vals)) > bound and not all_better:
        return worse, won, "unresolved"
    if worse > bound:
        return worse, won, "regression"
    if paired and len(seeds) >= MIN_PAIRS and won >= 0.9 and abs(n_med - b_med) > q3 - q1 and worse < 0:
        return worse, won, "gain"
    return worse, won, "same"


def _fmt(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Summarize or compare benchmark result sets.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path, nargs="?")
    args = parser.parse_args(argv)
    specs = metric_specs()
    try:
        base, base_sweeps = load(args.base)
        new, new_sweeps = load(args.new) if args.new else (None, set())
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    paired = len(base_sweeps) == 1 and None not in base_sweeps and base_sweeps == new_sweeps
    if new is not None and not paired:
        print("the sets come from different sweeps: no gain is called")

    regressions = 0
    for key in sorted(base, key=lambda k: (k[0], list(specs).index(k[1]) if k[1] in specs else 999)):
        workload, metric = key
        spec = specs.get(metric, {"unit": "?", "better": "lower", "bound": None})
        b_vals = list(base[key].values())
        head = f"{workload:13s} {metric:30s} {spec['unit']:6s}"
        bound = spec["bound"]
        if new is None:
            s = spread(b_vals)
            status = "" if bound is None else ("ok" if s <= bound / 3 else "within" if s <= bound else "WIDE")
            bound_text = "" if bound is None else f"bound {bound:.3f}"
            print(f"{head} n={len(b_vals):2d} {_fmt(b_vals):40s} spread {s:.4f} {bound_text} {status}")
            continue
        if key not in new:
            print(f"{head} missing from {args.new}")
            continue
        try:
            worse, won, status = verdict(base[key], new[key], spec, paired)
        except ValueError as exc:
            print(f"error: {workload} {metric}: {exc}", file=sys.stderr)
            return 1
        regressions += status == "regression"
        print(f"{head} {_fmt(b_vals):34s} -> {_fmt(list(new[key].values())):34s} "
              f"worse {worse:+.2%} won {won:.0%} {status}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
