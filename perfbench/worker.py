"""One workload process of the ptree benchmark (started by run.py).

Modes:
  setup   import ptree, generate the inputs, and exit; run.py times this
          from process start to exit as the set-up time.
  run     set up, run one reference cycle with full checks, then run
          whole cycles in a closed loop (one caller, each op waits for the
          previous one) until --seconds have passed. Prints one JSON line;
          times are at reference speed (see calibrate.py).
  trace   set up and check as in `run`, then alternate three passes over
          the cycle until --seconds have passed: untraced, with layer
          spans, and with Fraction counters. Prints one JSON line.

In the timed passes each op's result is compared with the reference
cycle's result, so a repeated seed must give the same answer; an op fails
when that comparison fails or when its reference failed a check.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_workloads():
    src = ROOT / "src"
    if not (src / "ptree" / "__init__.py").is_file():
        raise SystemExit(f"no ptree package under {src}")
    sys.path.insert(0, str(src))
    import workloads

    return workloads


def reference_cycle(workload) -> tuple[list, set[int]]:
    """Run every op once with full checks; return results and failed op indices."""
    results, bad = [], set()
    for i, op in enumerate(workload.ops):
        try:
            result = op.run()
        except Exception as exc:  # an op that raises counts as failed, not fatal
            print(f"op {i} ({op.kind}) raised {exc!r}", file=sys.stderr)
            results.append(None)
            bad.add(i)
            continue
        results.append(result)
        try:
            reason = op.check(result)
        except Exception as exc:  # e.g. a result of the wrong shape
            reason = f"the check raised {exc!r}"
        if reason is not None:
            print(f"op {i} ({op.kind}) failed its check: {reason}", file=sys.stderr)
            bad.add(i)
    for group in workload.group_checks:
        reason = group.check([results[i] for i in group.ops])
        if reason is not None:
            print(f"ops {group.ops} failed a group check: {reason}", file=sys.stderr)
            bad.update(group.ops)
    return results, bad


_RAISED = object()


def _failed(i: int, result, refs, bad) -> bool:
    return result is _RAISED or i in bad or result != refs[i]


def timed_cycle(workload, refs, bad, record=None) -> int:
    """One pass over the cycle; returns the number of failed ops.

    `record` receives each op's duration.
    """
    failed = 0
    for i, op in enumerate(workload.ops):
        start = perf_counter()
        try:
            result = op.run()
        except Exception:
            result = _RAISED
        failed += _failed(i, result, refs, bad)
        if record is not None:
            record(perf_counter() - start)
    return failed


def instrumented_cycle(workload, refs, bad, patches) -> tuple[float, int]:
    """One pass with instrumentation installed; returns (seconds, failed ops).

    Results are compared with the references only after the patches are
    undone, so the comparisons add no calls or time to the counts.
    """
    results = []
    try:
        start = perf_counter()
        for op in workload.ops:
            try:
                results.append(op.run())
            except Exception:
                results.append(_RAISED)
        elapsed = perf_counter() - start
    finally:
        patches.undo()
    return elapsed, sum(_failed(i, r, refs, bad) for i, r in enumerate(results))


def run_timed(workload, refs, bad, seconds: float) -> dict:
    clock = calibrate.Clock()
    failed = 0
    gc.collect()
    deadline = perf_counter() + seconds
    while True:
        failed += timed_cycle(workload, refs, bad, clock.add)
        if perf_counter() >= deadline:
            break
    clock.flush()
    latencies = clock.scaled
    deciles = statistics.quantiles(latencies, n=10, method="inclusive")
    return {
        "attempted": len(latencies),
        "failed": failed,
        "ops_per_s": len(latencies) / sum(latencies),
        "p50_ms": statistics.median(latencies) * 1e3,
        "p90_ms": deciles[8] * 1e3,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "raw_ops_per_s": len(latencies) / sum(clock.raw),
    }


def run_traced(workload, refs, bad, seconds: float) -> dict:
    import spans

    n_ops = len(workload.ops)
    draws = sum(op.draws for op in workload.ops)
    plain, traced = calibrate.Clock(interval=0), calibrate.Clock(interval=0)
    self_s: dict[str, list[float]] = {layer: [] for layer in spans.LAYERS}
    tracer = counter = None
    failed = attempted = 0
    gc.collect()
    deadline = perf_counter() + seconds
    while not plain.raw or perf_counter() < deadline:
        start = perf_counter()
        failed += timed_cycle(workload, refs, bad)
        plain.add(perf_counter() - start)

        cycle_tracer = spans.Tracer()
        elapsed, n_failed = instrumented_cycle(
            workload, refs, bad, spans.install_spans(cycle_tracer))
        traced.add(elapsed)
        failed += n_failed
        tracer = tracer or cycle_tracer  # counts repeat, so one cycle's are kept
        speed = traced.scaled[-1] / traced.raw[-1]
        for layer in spans.LAYERS:
            self_s[layer].append(cycle_tracer.self_s[layer] * speed)

        cycle_counter = spans.FractionCounter()
        _, n_failed = instrumented_cycle(
            workload, refs, bad, spans.install_fraction_counter(cycle_counter))
        failed += n_failed
        counter = counter or cycle_counter
        attempted += 3 * n_ops

    plain_rate = n_ops / statistics.median(plain.scaled)
    traced_rate = n_ops / statistics.median(traced.scaled)
    metrics = {}
    for layer in spans.LAYERS:
        metrics[f"{layer}.calls"] = (tracer.layer_calls(layer), "count")
        metrics[f"{layer}.self_s"] = (statistics.median(self_s[layer]), "s")
    metrics.update({
        "trees.require.calls": (
            tracer.calls["trees.ExplicitTree.require"] + tracer.calls["trees.GeneratedTree.require"],
            "count"),
        "measures.node_mass.calls": (tracer.calls["measures.node_mass"], "count"),
        "intervals.locate_branch.calls": (tracer.calls["intervals.locate_branch"], "count"),
        "intervals.bits_per_draw": (tracer.bits / draws if draws else 0.0, "bits"),
        "fraction.ops": (counter.ops, "count"),
        "fraction.max_bits": (counter.max_bits, "bits"),
        "trace.untraced_ops_per_s": (plain_rate, "1/s"),
        "trace.traced_ops_per_s": (traced_rate, "1/s"),
        "trace.overhead_ops_per_s": (plain_rate - traced_rate, "1/s"),
    })
    return {"attempted": attempted, "failed": failed,
            "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("setup", "run", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    workloads = load_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        workload = workloads.build(args.workload, args.seed, workdir)
        if args.mode == "setup":
            return 0
        refs, bad = reference_cycle(workload)
        if args.mode == "run":
            result = run_timed(workload, refs, bad, args.seconds)
        else:
            result = run_traced(workload, refs, bad, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
