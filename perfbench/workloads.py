"""The four seeded workloads of the ptree benchmark.

Each workload is a fixed cycle of operations ("ops"). An op is one call
into ptree's public API; its arguments are drawn from the seed, so the
same seed gives the same cycle. Every op has a checker that verifies the
answer against the benchmark's own exact arithmetic (the "oracle" below),
never against ptree itself. Checkers return None on success and a short
reason on failure.

The cycles are laid out for steady latency quantiles: sorted by cost,
the ops around the 50th and around the 90th percentile are each of one
kind, so both quantiles sit inside a run of like ops rather than on the
edge between two kinds of different cost.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable, Optional

import ptree
import ptree.cli

Path = tuple[int, ...]
Check = Callable[[Any], Optional[str]]

WORKLOADS = ("sampling", "trials", "corpus_cli", "deep_queries")


@dataclass
class Op:
    """One timed call: `run` does the work, `check` judges its result."""

    kind: str
    run: Callable[[], Any]
    check: Check
    draws: int = 0


@dataclass
class GroupCheck:
    """A check over the results of several ops, such as sampler frequencies."""

    ops: list[int]
    check: Callable[[list[Any]], Optional[str]]


@dataclass
class Workload:
    ops: list[Op]
    group_checks: list[GroupCheck] = field(default_factory=list)


# ---------------------------------------------------------------------------
# The oracle: exact masses and cells computed by the benchmark itself.


class Oracle:
    """Cells of a probability tree from a per-node child rule.

    `child(prefix, k)` returns (mass before child k, mass of child k) in
    the distribution at `prefix`, or None when k is not a child there.
    """

    def __init__(self, child: Callable[[Path, int], Optional[tuple[Fraction, Fraction]]]):
        self.child = child

    def cell(self, path: Path) -> Optional[tuple[Fraction, Fraction]]:
        """(lower endpoint, width) of the node's cell; None if not a node."""
        lower, width = Fraction(0), Fraction(1)
        for i, k in enumerate(path):
            c = self.child(path[:i], k)
            if c is None:
                return None
            before, mass = c
            lower += width * before
            width *= mass
        return lower, width

    def mass(self, path: Path) -> Optional[Fraction]:
        c = self.cell(path)
        return None if c is None else c[1]


def uniform_oracle(budget: int) -> Oracle:
    half = Fraction(1, 2)

    def child(prefix: Path, k: int):
        if len(prefix) >= budget or k not in (0, 1):
            return None
        return half * k, half

    return Oracle(child)


def geometric_oracle(budget: int, ratio: Fraction) -> Oracle:
    def child(prefix: Path, k: int):
        if len(prefix) >= budget or k < 0:
            return None
        rk = ratio**k
        return 1 - rk, (1 - ratio) * rk

    return Oracle(child)


def table_oracle(table: dict[Path, tuple[Fraction, ...]]) -> Oracle:
    def child(prefix: Path, k: int):
        row = table.get(prefix)
        if row is None or not 0 <= k < len(row):
            return None
        return sum(row[:k], Fraction(0)), row[k]

    return Oracle(child)


def table_nodes(table: dict[Path, tuple[Fraction, ...]]) -> list[Path]:
    """Every node of an explicit table: its interior rows and their children."""
    nodes = {()}
    for t, row in table.items():
        nodes.update(t + (k,) for k in range(len(row)))
    return sorted(nodes)


def table_front(table: dict[Path, tuple[Fraction, ...]], n: int) -> list[Path]:
    """The level-n front: nodes at depth n plus maximal nodes above it."""
    return [t for t in table_nodes(table) if len(t) == n or (len(t) < n and t not in table)]


def random_row(rng: random.Random, arity: int, allow_zero: bool) -> tuple[Fraction, ...]:
    low = 0 if allow_zero else 1
    weights = [rng.randint(low, 9) for _ in range(arity)]
    if sum(weights) == 0:
        weights[rng.randrange(arity)] = 1
    total = sum(weights)
    return tuple(Fraction(w, total) for w in weights)


def grow_table(
    rng: random.Random, nodes: int, max_depth: int, min_arity: int, max_arity: int,
    allow_zero: bool,
) -> dict[Path, tuple[Fraction, ...]]:
    """A random explicit family with about `nodes` nodes.

    Random frontier nodes are expanded until the tree reaches the target
    size, so the size is fixed by the caller while the shape follows the
    seed.
    """
    table: dict[Path, tuple[Fraction, ...]] = {}
    frontier: list[Path] = [()]
    count = 1
    while count < nodes and frontier:
        t = frontier.pop(rng.randrange(len(frontier)))
        arity = rng.randint(min_arity, max_arity)
        table[t] = random_row(rng, arity, allow_zero)
        count += arity
        if len(t) + 1 < max_depth:
            frontier.extend(t + (k,) for k in range(arity))
    return table


def binary_level(depth: int):
    """Every binary path of the given length, in lexicographic order."""
    for bits in range(1 << depth):
        yield tuple((bits >> (depth - 1 - i)) & 1 for i in range(depth))


def family_from_table(table: dict[Path, tuple[Fraction, ...]]) -> ptree.EdgeFamily:
    return ptree.EdgeFamily.from_table({t: list(row) for t, row in table.items()})


def fail_unless(ok: bool, reason: str) -> Optional[str]:
    return None if ok else reason


# ---------------------------------------------------------------------------
# sampling: descent (intervals) and cell lookups (dists).

SAMPLE_COUNT = 64
# Ops per family in one cycle. The cost of a 9/10 geometric draw has a
# heavy tail, so the cycle needs many draws for a steady mean.
SAMPLE_ROUNDS = 16
# Hoeffding bound with failure probability 1e-9 per check: a correct
# sampler meets it for any seed in practice.
_FREQ_DELTA = 1e-9


def _check_draws(oracle: Oracle, depth: int, leaves_only: bool, count: int) -> Check:
    def check(draws) -> Optional[str]:
        if len(draws) != count:
            return f"expected {count} draws, got {len(draws)}"
        for b in draws:
            mass = oracle.mass(tuple(b))
            if mass is None:
                return f"draw {b} is not a node"
            if mass <= 0:
                return f"draw {b} has mass {mass}"
            if leaves_only:
                if oracle.child(tuple(b), 0) is not None:
                    return f"draw {b} stops above a leaf"
            elif len(b) != depth:
                return f"draw {b} does not reach depth {depth}"
        return None

    return check


def frequency_check(oracle: Oracle) -> Callable[[list[Any]], Optional[str]]:
    """Depth-1 cylinder frequencies lie within a Hoeffding bound of their masses."""

    def check(results: list[Any]) -> Optional[str]:
        counts: dict[int, int] = {}
        total = 0
        for draws in results:
            for b in draws:
                if b:
                    counts[b[0]] = counts.get(b[0], 0) + 1
                total += 1
        if total == 0:
            return "no draws"
        cells = max(counts, default=0) + 2
        eps = math.sqrt(math.log(2 * cells / _FREQ_DELTA) / (2 * total))
        for k in range(cells):
            c = oracle.child((), k)
            mass = Fraction(0) if c is None else c[1]
            if abs(counts.get(k, 0) / total - float(mass)) > eps:
                return f"child {k}: frequency {counts.get(k, 0)}/{total} vs mass {mass} (bound {eps:.3f})"
        return None

    return check


def build_sampling(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    table = grow_table(rng, nodes=500, max_depth=8, min_arity=2, max_arity=4, allow_zero=True)
    height = max(len(t) for t in table_nodes(table))
    ub = ptree.uniform_binary(16)
    families = [
        ("uniform_binary/depth3", ub, 3, uniform_oracle(16), False),
        ("uniform_binary/depth16", ub, 16, uniform_oracle(16), False),
        ("geometric_1/2/depth8", ptree.geometric_omega(8, Fraction(1, 2)), 8,
         geometric_oracle(8, Fraction(1, 2)), False),
        ("geometric_9/10/depth8", ptree.geometric_omega(8, Fraction(9, 10)), 8,
         geometric_oracle(8, Fraction(9, 10)), False),
        ("explicit500/height", family_from_table(table), height, table_oracle(table), True),
    ]
    ops: list[Op] = []
    groups: dict[str, list[int]] = {kind: [] for kind, *_ in families}
    for _ in range(SAMPLE_ROUNDS):
        for kind, family, depth, oracle, leaves_only in families:
            s = rng.getrandbits(32)
            groups[kind].append(len(ops))
            ops.append(Op(
                kind=f"sample:{kind}",
                run=lambda family=family, s=s, depth=depth: ptree.sample_branches(
                    family, s, SAMPLE_COUNT, depth),
                check=_check_draws(oracle, depth, leaves_only, SAMPLE_COUNT),
                draws=SAMPLE_COUNT,
            ))
    group_checks = [
        GroupCheck(groups[kind], frequency_check(oracle)) for kind, _, _, oracle, _ in families
    ]
    return Workload(ops, group_checks)


# ---------------------------------------------------------------------------
# trials: trial-tree construction and the 2^n success-count walk.

# (kind, n, lower bound p), each slot run twice per cycle with its own
# seed. Sorted by cost the cycle reads d6 d7 i8 d8 | d9 d9 | d10 i11 |
# d12 d12 (doubled), so the median falls among the n=9 ops and the 90th
# percentile among the n=12 ops; the n=12 cost varies with the random
# denominators, so the cycle holds four such trees. The bounds are fixed
# per slot, not drawn, because they set the size of the fractions and so
# the cost; i.i.d. ops draw p = k/17, whose denominator never reduces.
TRIAL_PLAN = (
    ("dominance", 6, Fraction(1, 4)), ("dominance", 7, Fraction(1, 2)),
    ("iid", 8, None), ("dominance", 8, Fraction(2, 5)),
    ("dominance", 9, Fraction(1, 3)), ("dominance", 9, Fraction(1, 3)),
    ("dominance", 10, Fraction(1, 4)), ("iid", 11, None),
    ("dominance", 12, Fraction(1, 3)), ("dominance", 12, Fraction(1, 3)),
) * 2


def binomial_pmf(n: int, p: Fraction) -> list[Fraction]:
    return [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]


def success_pmf(table: dict[Path, tuple[Fraction, ...]], n: int) -> list[Fraction]:
    """Success-count pmf of a trial table by an explicit walk (child 0 = success)."""
    pmf = [Fraction(0)] * (n + 1)
    stack: list[tuple[Path, Fraction, int]] = [((), Fraction(1), 0)]
    while stack:
        t, mass, successes = stack.pop()
        if len(t) == n:
            pmf[successes] += mass
            continue
        p, q = table[t]
        stack.append((t + (0,), mass * p, successes + 1))
        stack.append((t + (1,), mass * q, successes))
    return pmf


def _check_dominance(n: int, seed: int, p: Fraction) -> Check:
    def check(report) -> Optional[str]:
        tree = ptree.random_trial_tree(n, seed, p)
        table = {}
        for depth in range(n):
            for t in binary_level(depth):
                success = tree.success_prob(t)
                table[t] = (success, 1 - success)
        pmf = success_pmf(table, n)
        binom = binomial_pmf(n, p)
        if len(report.rows) != n + 1:
            return f"expected {n + 1} rows, got {len(report.rows)}"
        cdf_y = cdf_b = Fraction(0)
        for z, row in enumerate(report.rows):
            cdf_y += pmf[z]
            cdf_b += binom[z]
            if row.z != z or row.cdf_successes != cdf_y or row.cdf_binomial != cdf_b:
                return f"row {z} is {row}, expected CDFs {cdf_y} and {cdf_b}"
            if cdf_y > cdf_b:
                return f"dominance fails at z={z}"
        return fail_unless(report.holds and report.violated_z is None, "report says dominance fails")

    return check


def _check_iid(n: int, p: Fraction) -> Check:
    expected = None

    def check(pmf) -> Optional[str]:
        nonlocal expected
        if expected is None:
            expected = tuple(binomial_pmf(n, p))
        return fail_unless(tuple(pmf) == expected, f"i.i.d. pmf differs from Binomial({n}, {p})")

    return check


def build_trials(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for kind, n, p in TRIAL_PLAN:
        if kind == "dominance":
            s = rng.getrandbits(32)
            ops.append(Op(
                kind=f"dominance/n{n}",
                run=lambda n=n, s=s, p=p: ptree.dominance_check(ptree.random_trial_tree(n, s, p), p),
                check=_check_dominance(n, s, p),
            ))
        else:
            p = Fraction(rng.randint(2, 15), 17)
            ops.append(Op(
                kind=f"iid/n{n}",
                run=lambda n=n, p=p: ptree.success_pmf(
                    ptree.DependentTrialTree.from_success_probs(n, lambda _t: p)),
                check=_check_iid(n, p),
            ))
    return Workload(ops)


# ---------------------------------------------------------------------------
# corpus_cli: spec parsing, parser construction and small-tree answers.

CORPUS_FAMILIES = 30
# The size sets the cost of every command (encode --verify grows with its
# square), so it is fixed and only shapes and probabilities follow the seed.
CORPUS_NODES = 40


def fmt_path(t: Path) -> str:
    return ".".join(str(k) for k in t)


def spec_document(table: dict[Path, tuple[Fraction, ...]]) -> str:
    nodes: dict[str, dict] = {}
    for t in table_nodes(table):
        row = table.get(t)
        nodes[fmt_path(t)] = {"arity": 0} if row is None else {
            "arity": len(row), "probs": [str(m) for m in row]}
    return json.dumps({"version": 1, "representation": "explicit", "nodes": nodes})


def run_cli(argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = ptree.cli.main(argv)
    return code, out.getvalue()


def _cli_check(expect_lines: Callable[[], list[str]]) -> Check:
    """The command must exit 0 and print exactly the expected lines."""
    expected = None

    def check(result) -> Optional[str]:
        nonlocal expected
        if expected is None:
            expected = expect_lines()
        code, out = result
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        if lines != expected:
            return f"printed {lines[-3:]!r}, expected {expected[-3:]!r}"
        return None

    return check


def _cli_ops(rng: random.Random, table, spec: str, values_path: str) -> list[Op]:
    oracle = table_oracle(table)
    nodes = table_nodes(table)
    height = max(len(t) for t in nodes)
    leaves = [t for t in nodes if t not in table]
    depth = rng.randint(1, height)
    front = table_front(table, depth)
    values = {t: Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for t in front}
    with open(values_path, "w", encoding="utf-8") as handle:
        json.dump({fmt_path(t): str(v) for t, v in values.items()}, handle)
    node = rng.choice(nodes)
    cell_node = rng.choice(nodes)
    label = lambda t: fmt_path(t) if t else "<root>"  # noqa: E731

    def front_lines():
        return [label(t) for t in sorted(front)] + ["mass = 1"]

    def expect_lines():
        return [str(sum((v * oracle.mass(t) for t, v in values.items()), Fraction(0)))]

    def embed_lines(t: Path):
        lower, width = oracle.cell(t)
        return [f"[{lower}, {lower + width}]"]

    def classify_lines():
        well_pruned = all(len(t) == height for t in leaves)
        return [f"well_pruned: {well_pruned} (exact)", "finitely_branching: True (exact)",
                "perfect: False (exact)", f"height: {height}"]

    def check_encode(result) -> Optional[str]:
        code, out = result
        if code != 0:
            return f"exit code {code}"
        lines = out.splitlines()
        mapped = [line for line in lines if " -> " in line]
        if len(mapped) != len(nodes):
            return f"encoded {len(mapped)} nodes, expected {len(nodes)}"
        return fail_unless(lines[-1:] == ["verification: ok"], f"verification printed {lines[-1:]!r}")

    # Seven ops per family. Two of them embed (one the measured node, so
    # its width is the measured mass), which puts the median inside the
    # cheap commands rather than on the edge between two of them.
    return [
        Op("cli:measure", lambda: run_cli(["measure", "--tree", spec, "--node", fmt_path(node)]),
           _cli_check(lambda: [str(oracle.mass(node))])),
        Op("cli:front", lambda: run_cli(["front", "--tree", spec, "--depth", str(depth), "--check-mass"]),
           _cli_check(front_lines)),
        Op("cli:expect", lambda: run_cli(
            ["expect", "--tree", spec, "--depth", str(depth), "--values", values_path]),
           _cli_check(expect_lines)),
        Op("cli:embed", lambda: run_cli(["embed", "--tree", spec, "--node", fmt_path(cell_node)]),
           _cli_check(lambda: embed_lines(cell_node))),
        Op("cli:embed", lambda: run_cli(["embed", "--tree", spec, "--node", fmt_path(node)]),
           _cli_check(lambda: embed_lines(node))),
        Op("cli:encode", lambda: run_cli(
            ["encode", "--tree", spec, "--depth", str(height), "--verify"]),
           check_encode),
        Op("cli:classify", lambda: run_cli(["classify", "--tree", spec]), _cli_check(classify_lines)),
    ]


def build_corpus_cli(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for i in range(CORPUS_FAMILIES):
        table = grow_table(rng, nodes=CORPUS_NODES, max_depth=6, min_arity=1, max_arity=4,
                           allow_zero=(i % 2 == 1))
        spec = os.path.join(workdir, f"family{i:02d}.json")
        with open(spec, "w", encoding="utf-8") as handle:
            handle.write(spec_document(table))
        ops.extend(_cli_ops(rng, table, spec, os.path.join(workdir, f"values{i:02d}.json")))
    return Workload(ops)


# ---------------------------------------------------------------------------
# deep_queries: long path walks, a 1,024-node front and the tower identity.

DEEP_HEIGHT = 10


def _path(rng: random.Random, depth: int, arity: int) -> Path:
    return tuple(rng.randrange(arity) for _ in range(depth))


def _check_mass(oracle: Oracle, t: Path) -> Check:
    return lambda mass: fail_unless(mass == oracle.mass(t), f"mass of {t} is {mass}")


def _check_interval(oracle: Oracle, t: Path) -> Check:
    def check(iv) -> Optional[str]:
        lower, width = oracle.cell(t)
        if iv.upper - iv.lower != width:
            return f"cell width {iv.upper - iv.lower} differs from the mass {width}"
        return fail_unless(iv.lower == lower, f"cell of {t} starts at {iv.lower}, expected {lower}")

    return check


def _check_window(oracle: Oracle, t: Path) -> Check:
    interval = _check_interval(oracle, t)
    return lambda w: fail_unless(w.prefix == t, f"window prefix {w.prefix}") or interval(w)


def build_deep_queries(seed: int, workdir: str) -> Workload:
    rng = random.Random(seed)
    ub, geo = ptree.uniform_binary(64), ptree.geometric_omega(64)
    ub_o, geo_o = uniform_oracle(64), geometric_oracle(64, Fraction(1, 2))
    table = {}
    for depth in range(DEEP_HEIGHT):
        for t in binary_level(depth):
            table[t] = random_row(rng, 2, allow_zero=False)
    explicit = family_from_table(table)
    ex_o = table_oracle(table)
    front = ptree.enumerate_front(explicit.tree, DEEP_HEIGHT)
    members = sorted(front.nodes)
    values = {t: Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for t in members}
    variable = ptree.FrontVariable(front, values)
    measure = ptree.induced_measure(explicit)
    level2 = _path(rng, 2, 2)

    def relative(t: Path) -> Fraction:
        base = ex_o.mass(t)
        return sum((v * ex_o.mass(s) for s, v in values.items() if s[: len(t)] == t), Fraction(0)) / base

    def walk_op(fn: str, family, oracle, name: str, t: Path) -> Op:
        checks = {"node_mass": _check_mass, "node_interval": _check_interval,
                  "branch_window": _check_window}
        args = (t, len(t)) if fn == "branch_window" else (t,)
        return Op(f"{fn}/{name}/depth{len(t)}",
                  lambda: getattr(ptree, fn)(family, *args), checks[fn](oracle, t))

    selected = frozenset(rng.sample(members, 300))
    ub_selected = frozenset(_path(rng, 16, 2) for _ in range(50))
    selection = ptree.ClopenSelection(DEEP_HEIGHT, selected)
    ub_selection = ptree.ClopenSelection(16, ub_selected, complemented=True)
    clopen_ex = sum((ex_o.mass(t) for t in selected), Fraction(0))
    clopen_ub = 1 - sum((ub_o.mass(t) for t in ub_selected), Fraction(0))

    def check_tower(report) -> Optional[str]:
        if not report.equal:
            return "tower report is not equal"
        return fail_unless(len(report.cases) == 1 and report.cases[0].lhs == relative(()),
                           "tower lhs differs from the root expectation")

    # Cost bands: d16/d32 walks | d64 walks | 4 x geometric d64 interval
    # (median) | clopen + level-2 expectation + front ops | 2 x root
    # expectation (90th percentile) | tower.
    ops = [
        walk_op("node_mass", ub, ub_o, "uniform", _path(rng, 16, 2)),
        walk_op("node_interval", geo, geo_o, "geometric", _path(rng, 16, 4)),
        walk_op("branch_window", ub, ub_o, "uniform", _path(rng, 16, 2)),
        walk_op("node_mass", geo, geo_o, "geometric", _path(rng, 32, 4)),
        walk_op("node_interval", ub, ub_o, "uniform", _path(rng, 32, 2)),
        walk_op("branch_window", geo, geo_o, "geometric", _path(rng, 32, 4)),
        walk_op("node_mass", ub, ub_o, "uniform", _path(rng, 64, 2)),
        walk_op("branch_window", ub, ub_o, "uniform", _path(rng, 64, 2)),
    ]
    ops += [walk_op("node_interval", geo, geo_o, "geometric", _path(rng, 64, 4)) for _ in range(4)]
    ops += [
        Op("clopen_mass/explicit", lambda: ptree.clopen_mass(explicit, selection),
           lambda m: fail_unless(m == clopen_ex, f"clopen mass {m}, expected {clopen_ex}")),
        Op("clopen_mass/uniform", lambda: ptree.clopen_mass(ub, ub_selection),
           lambda m: fail_unless(m == clopen_ub, f"clopen mass {m}, expected {clopen_ub}")),
        Op("relative_expect/level2", lambda: ptree.relative_expect(explicit, variable, level2),
           lambda e: fail_unless(e == relative(level2), f"E[X | {level2}] = {e}")),
        Op("is_front", lambda: ptree.is_front(explicit.tree, front.nodes),
           lambda ok: fail_unless(ok is True, "the level-10 front is not a front")),
        Op("front_mass", lambda: ptree.front_mass(measure, front),
           lambda m: fail_unless(m == 1, f"front mass {m}")),
    ]
    ops += [Op("relative_expect/root", lambda: ptree.relative_expect(explicit, variable, ()),
               lambda e: fail_unless(e == relative(()), f"E[X] = {e}")) for _ in range(2)]
    ops.append(Op("tower_check", lambda: ptree.tower_check(explicit, variable, 0, 5, DEEP_HEIGHT),
                  check_tower))
    return Workload(ops)


_BUILD = {
    "sampling": build_sampling,
    "trials": build_trials,
    "corpus_cli": build_corpus_cli,
    "deep_queries": build_deep_queries,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """Generate a workload's inputs from the seed; corpus files go under workdir."""
    return _BUILD[name](seed, workdir)
