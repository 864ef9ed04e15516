"""Self-tests of the benchmark: python3 -m pytest perfbench -q

They check that each workload passes its own checks on the current
ptree, that every checker rejects a perturbed answer, that spans are
installed and removed cleanly with repeatable counts, that run.py keeps
its output contract, and that the compare tool's verdicts follow its
rules.
"""

from __future__ import annotations

import dataclasses
import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import ptree  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def checked(tmp_path_factory):
    """Each workload with its reference results, built and checked once."""
    built = {}
    for name in workloads.WORKLOADS:
        wl = workloads.build(name, 7, str(tmp_path_factory.mktemp(name)))
        refs, bad = worker.reference_cycle(wl)
        built[name] = (wl, refs, bad)
    return built


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_passes_its_checks(checked, name):
    wl, refs, bad = checked[name]
    assert wl.ops and not bad
    assert worker.timed_cycle(wl, refs, bad) == 0


def _has_fraction(value) -> bool:
    if isinstance(value, Fraction):
        return True
    if isinstance(value, str):
        return True
    if dataclasses.is_dataclass(value):
        return any(_has_fraction(getattr(value, f.name)) for f in dataclasses.fields(value))
    if isinstance(value, (tuple, list)):
        return any(_has_fraction(v) for v in value)
    return False


def perturb(value):
    """A copy of an op result with one exact number (or verdict) changed."""
    if isinstance(value, bool):
        return not value
    if isinstance(value, Fraction):
        return value + Fraction(1, 997)
    if isinstance(value, str):
        if "verification: ok" in value:
            return value.replace("verification: ok", "verification: FAILED")
        last = list(re.finditer(r"-?\d+(?:/\d+)?", value))[-1]
        return value[: last.start()] + str(Fraction(last.group()) + Fraction(1, 997)) + value[last.end():]
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            if _has_fraction(getattr(value, f.name)):
                return dataclasses.replace(value, **{f.name: perturb(getattr(value, f.name))})
    if isinstance(value, tuple) and hasattr(value, "_replace"):
        return value._replace(upper=perturb(value.upper))
    if isinstance(value, (tuple, list)):
        items = list(value)
        i = next(i for i, v in enumerate(items) if _has_fraction(v))
        items[i] = perturb(items[i])
        return type(value)(items)
    raise TypeError(f"cannot perturb {value!r}")


@pytest.mark.parametrize("name", ["trials", "corpus_cli", "deep_queries"])
def test_checkers_reject_a_perturbed_fraction(checked, name):
    wl, refs, _ = checked[name]
    for op, ref in zip(wl.ops, refs):
        assert op.check(perturb(ref)) is not None, op.kind


def test_sampling_checkers_reject_perturbed_draws(checked):
    wl, refs, _ = checked["sampling"]
    for op, draws in zip(wl.ops, refs):
        bad = list(draws)
        bad[0] = bad[0][:-1] + (-1,)  # no family has a child -1
        assert op.check(bad) is not None, op.kind
    for group in wl.group_checks:
        results = [refs[i] for i in group.ops]
        assert group.check(results) is None
        # every draw moved past the last child seen: frequency 1 on a cell
        # of mass zero (finite families) or of tiny mass (geometric)
        k = max(b[0] for draws in results for b in draws) + 1
        skewed = [[(k,) + b[1:] for b in draws] for draws in results]
        assert group.check(skewed) is not None


def test_spans_count_repeatably_and_uninstall(checked):
    wl, refs, bad = checked["deep_queries"]
    original = ptree.node_mass, ptree.measures.node_mass, ptree.trees.ExplicitTree.require
    counts = []
    for _ in range(2):
        tracer = spans.Tracer()
        patches = spans.install_spans(tracer)
        assert ptree.node_mass is not original[0]
        _, failed = worker.instrumented_cycle(wl, refs, bad, patches)
        assert failed == 0
        counts.append(dict(tracer.calls))
        assert all(tracer.self_s[layer] >= 0 for layer in spans.LAYERS)
    assert counts[0] == counts[1]
    assert counts[0]["measures.node_mass"] > 0 and counts[0]["trees.ExplicitTree.require"] > 0
    assert (ptree.node_mass, ptree.measures.node_mass, ptree.trees.ExplicitTree.require) == original


def test_fraction_counter_counts_and_uninstalls():
    counter = spans.FractionCounter()
    add = Fraction.__add__
    patches = spans.install_fraction_counter(counter)
    try:
        assert Fraction(1, 3) + Fraction(1, 6) * 2 == Fraction(2, 3)
    finally:
        patches.undo()
    assert counter.ops == 2 and counter.max_bits == 2
    assert Fraction.__add__ is add


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_run_prints_the_contract_line(trace, section):
    proc = _run(ROOT, "--workload", "sampling", "--seed", "3", "--seconds", "0.2", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCH[section]}


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work-*"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "trials", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.1}
    base = {s: 10.0 + 0.1 * (s % 3) for s in range(10)}
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, spec, True)[2] == "regression"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, spec, False)[2] == "regression"
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, spec, True)[2] == "gain"
    # Without pairing, drift between sweeps could pass for a gain.
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, spec, False)[2] == "same"
    assert compare.verdict(base, dict(base), spec, True)[2] == "same"
    noisy = {s: 10.0 * (1 + s % 2) for s in range(10)}
    assert compare.verdict(base, noisy, spec, True)[2] == "unresolved"
    few = {s: base[s] for s in range(compare.MIN_PAIRS - 1)}
    assert compare.verdict(few, {s: v * 0.5 for s, v in few.items()}, spec, True)[2] == "same"
    with pytest.raises(ValueError):
        compare.verdict(base, {s + 100: v for s, v in base.items()}, spec, True)
