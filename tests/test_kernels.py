"""Differential property tests for the front check, the path-walk kernel,
the exact-sum helper, the trial-tree builder and pmf kernel, descent, the
encoding's order check and verifier, `below_mass` and finite rows' accessors.

Every oracle here is a brute-force restatement of a definition that shares
no code with the library: pairwise prefix tests for fronts, and a sorted
pass with a coverage walk against the explicit-tree preorder index, products and
prefix folds of checked `family.dist` lookups for weights, masses, cells
and relative expectations, a running `Fraction` sum for the exact-sum
helper, a `Fraction` walk over every leaf history for success-count
pmfs, two `randint` calls and one `Fraction` per node for random trial
trees, and, for descent, a walk over absolute `Fraction` cell ends that
scans each finite row's cells and the child indices of closed-form nodes,
for the geometric child index, a squaring search over exact powers of the
ratio, for the order check, a test of every pair of encoded nodes, for the
encoding's image tree, every prefix of every image path, and for its pushed
masses, a longest-prefix search for the source node behind each image node
inside a gadget, for its verifier, the same four checks over `Fraction` masses
and cells (a violated law worded by the checked measure constructor), for
`below_mass`, an `is_prefix` filter over the front, for finite rows, the accessors as written when a row's integer grid was built
on first use (and, for rows written as strings, the row built from the same values as `Fraction`s), and, for walks over cell tables and rule rows the gate refuses, a `Fraction` product and
prefix fold over each family's rows as given (only the library's `show` is shared, for messages), and, for
descent through a shared finite row's power row, the one-level-per-step descent loop it replaced, and, for walks
and descents that step through an explicit family's node states, the loops that read each row by path. Results
must be identical fractions and verdicts. The sampler's interval descent is
checked by enumeration instead: every string of 2-bit chunks, weighted by
its probability, must give each branch exactly its `node_mass`.
"""

import bisect
import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction as F
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    ClopenSelection,
    DepthBudgetExceeded,
    DependentTrialTree,
    EdgeFamily,
    ExplicitTree,
    FiniteDist,
    Front,
    FrontVariable,
    GeneratedTree,
    HypothesisViolated,
    InductiveMeasure,
    InfiniteLevel,
    InvalidArgument,
    NodeNotBelowFront,
    NotADistribution,
    OversizedValue,
    PreconditionFrontMismatch,
    PTreeError,
    QPointError,
    UnknownNode,
    below_mass,
    binary_encode,
    binomial_pmf,
    cell_volume,
    clopen_mass,
    complete_binary_tree,
    dirac,
    dominance_check,
    encoded_measure,
    enumerate_front,
    flip_success_convention,
    geometric_omega,
    induced_measure,
    is_front,
    level,
    locate_branch,
    node_interval,
    node_mass,
    random_trial_tree,
    relative_expect,
    relative_expect_front,
    success_pmf,
    tower_check,
    tower_check_fronts,
    uniform_binary,
    verify_encoding,
)
from ptree import bernoulli, encoding, intervals
from ptree.dists import HEAD_BITS, Geometric, PointMass, _geometric_index, _power_index, fraction_sum, show
from ptree.encoding import EncodingReport
from ptree.measures import _row_cells, _support_mismatch, _walk, positive_part
from ptree.paths import OMEGA, compatible, is_prefix

from corpus import random_family, random_tree, random_variable, rule_family, spelled
from test_expectation import brute_conditional

FAST = settings(max_examples=40, deadline=None)
RANDOMS = st.randoms(use_true_random=False)


def brute_is_front(tree, nodes) -> bool:
    members = set(nodes)
    if not members:
        return False
    if any(s != t and is_prefix(s, t) for s in members for t in members):
        return False
    return all(any(is_prefix(s, leaf) for s in members) for leaf in tree.max_nodes())


def walk_is_front(tree, nodes) -> bool:
    """A sorted membership pass, neighbour prefix tests, then a depth-first walk that must end at members."""
    ordered = sorted({tuple(t) for t in nodes})
    for t in ordered:
        if not tree.contains(t):
            raise UnknownNode(f"no node {t} in tree")
    if not ordered or any(is_prefix(s, t) for s, t in zip(ordered, ordered[1:])):
        return False
    members, stack = frozenset(ordered), [()]
    while stack:
        t = stack.pop()
        if t not in members:
            if tree.is_maximal(t):
                return False
            stack.extend(tree.children(t))
    return True


def brute_weight(family, start, end) -> F:
    w = F(1)
    for i in range(len(start), len(end)):
        w *= family.dist(end[:i]).mass(end[i])
    return w


def brute_child(d, k) -> tuple:
    """(mass before child k, mass of child k), restated from each row's definition."""
    if isinstance(d, FiniteDist):
        return sum((m for j, m in d.items() if j < k), F(0)), dict(d.items())[k]
    if isinstance(d, Geometric):
        return 1 - d.ratio**k, (1 - d.ratio) * d.ratio**k
    return F(int(k > d.index)), F(int(k == d.index))  # a point mass


def brute_cell(family, start, end) -> tuple:
    """(lower end, width) of end's cell inside start's cell: a product and a prefix fold."""
    lower, width = F(0), F(1)
    for i in range(len(start), len(end)):
        before, mass = brute_child(family.dist(end[:i]), end[i])
        lower, width = lower + width * before, width * mass
    return lower, width


def refine(rng, tree, nodes, steps: int) -> set:
    """Replace random non-maximal members by their children; fronts stay fronts."""
    nodes = set(nodes)
    for _ in range(steps):
        interior = sorted(t for t in nodes if not tree.is_maximal(t))
        if not interior:
            break
        t = rng.choice(interior)
        nodes.remove(t)
        nodes.update(tree.children(t))
    return nodes


def random_front(rng, tree, steps: int) -> set:
    return refine(rng, tree, enumerate_front(tree, rng.randint(0, tree.height)).nodes, steps)


def prefixes(nodes) -> list:
    return sorted({s[:i] for s in nodes for i in range(len(s) + 1)})


@FAST
@given(RANDOMS)
def test_is_front_matches_pairwise_oracle(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    nodes = random_front(rng, tree, rng.randint(0, 5))
    everything = sorted(tree.nodes())
    for _ in range(rng.randint(0, 2)):
        if nodes and rng.random() < 0.5:
            nodes.discard(rng.choice(sorted(nodes)))
        else:
            nodes.add(rng.choice(everything))
    assert is_front(tree, nodes) is brute_is_front(tree, nodes)


def respaced(rng, tree) -> ExplicitTree:
    """The same shape with each node's child indices spread to a random increasing set."""
    renamed, children = {(): ()}, {}
    for t in sorted(tree.nodes(), key=len):
        kids = tree.child_indices(t)
        idx = sorted(rng.sample(range(3 * len(kids) + 1), len(kids)))
        children[renamed[t]] = tuple(idx)
        renamed.update((t + (k,), renamed[t] + (j,)) for k, j in zip(kids, idx))
    return ExplicitTree(children)


@settings(max_examples=100, deadline=None)
@given(RANDOMS, st.sampled_from(["front", "missing", "extension", "non-node"]))
def test_indexed_is_front_matches_the_walk_and_the_pairwise_oracle(rng, case):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    if rng.random() < 0.5:  # sparse child indices, as positive parts and encoded images keep
        tree = respaced(rng, tree)
    nodes = random_front(rng, tree, rng.randint(0, 5))
    if case == "missing":
        nodes.discard(rng.choice(sorted(nodes)))
    elif case == "extension" and (inner := sorted(t for t in nodes if not tree.is_maximal(t))):
        s = rng.choice(inner)
        nodes.add(rng.choice([t for t in tree.nodes() if len(t) > len(s) and t[: len(s)] == s]))
    elif case == "non-node":
        for _ in range(rng.randint(1, 3)):
            t = rng.choice(sorted(tree.nodes()))
            nodes.add(t + (0 if tree.is_maximal(t) else rng.choice([-1, 10]),))  # respaced indices stay below 10

    def outcome(check, given):
        try:
            return check(tree, given)
        except UnknownNode as exc:
            return type(exc), str(exc)

    expected = outcome(walk_is_front, nodes)
    assert outcome(is_front, nodes) == expected
    # any iterable of sequences, in any order, with repeats
    assert outcome(is_front, iter([list(t) for t in sorted(nodes, reverse=True) * 2])) == expected
    if case != "non-node":
        assert expected is brute_is_front(tree, nodes)


@pytest.mark.parametrize(
    "nodes",
    [
        # by length the short member comes first and its extension last;
        # in lexicographic order they are neighbours
        {(1,), (0, 0), (0, 1), (1, 1, 1)},
        {(0,), (1, 0, 0), (1, 0, 1), (1, 1), (0, 1, 1)},
        {(0, 0), (0, 1), (1, 0), (1, 1, 0), (1, 1, 1), (1,)},
        {(0,), (1, 0), (1, 1, 0), (1, 1, 1)},
        set(),
    ],
)
def test_is_front_far_apart_extensions(nodes):
    tree = complete_binary_tree(3)
    assert is_front(tree, nodes) is brute_is_front(tree, nodes)


@FAST
@given(RANDOMS)
def test_walk_weights_match_products(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    fam = random_family(rng, tree, allow_zero=True)
    start = rng.choice(sorted(tree.nodes()))
    below = [s for s in sorted(tree.nodes()) if is_prefix(start, s)]
    ends = rng.sample(below, rng.randint(0, len(below)))  # may hold a node and its extensions
    weights = {s: F(w, q) for s, (_, w, q) in _walk(fam, ends, start=start).items()}
    assert weights == {s: brute_weight(fam, start, s) for s in ends}


def assert_cells_match(fam, ends, start=()):
    cells = _walk(fam, ends, start=start)
    assert list(cells) == sorted(set(ends))
    for s, (lo, w, q) in cells.items():
        assert q > 0 and (F(lo, q), F(w, q)) == brute_cell(fam, start, s)


def random_sparse_family(rng, max_depth: int = 3) -> EdgeFamily:
    """An explicit family whose child indices skip values, as restrictions keep them."""
    children, dists, stack = {}, {}, [()]
    while stack:
        t = stack.pop()
        if len(t) >= max_depth or (t and rng.random() < 0.25):
            children[t] = ()
            continue
        idx = sorted(rng.sample(range(6), rng.randint(1, 4)))
        weights = [rng.randint(0, 9) for _ in idx]
        weights[rng.randrange(len(idx))] += 1
        children[t], dists[t] = tuple(idx), FiniteDist({k: F(w, sum(weights)) for k, w in zip(idx, weights)})
        stack.extend(t + (k,) for k in idx)
    return EdgeFamily(ExplicitTree(children), dists)


@FAST
@given(RANDOMS, st.sampled_from(["canonical", "positive-part", "sparse"]))
def test_walk_cells_match_explicit_products_and_prefix_folds(rng, kind):
    # with zero masses; positive parts and restrictions keep the original, sparse, child indices
    if kind == "sparse":
        fam = random_sparse_family(rng)
    else:
        fam = random_family(rng, random_tree(rng, max_depth=4, max_arity=4), allow_zero=True)
        fam = positive_part(fam)[0] if kind == "positive-part" else fam
    nodes = sorted(fam.tree.nodes())
    start = rng.choice(nodes)
    below = [s for s in nodes if is_prefix(start, s)]
    assert_cells_match(fam, rng.sample(below, rng.randint(0, len(below))), start)


@FAST
@given(
    st.fractions(min_value=0, max_value=1, max_denominator=10**6).filter(lambda r: 0 < r < 1),
    st.lists(st.lists(st.integers(0, 6), max_size=12), max_size=4),
)
def test_walk_cells_match_geometric_products_and_prefix_folds(r, paths):
    assert_cells_match(geometric_omega(12, r), [tuple(p) for p in paths])


@FAST
@given(st.integers(0, 3), st.lists(st.lists(st.integers(0, 4), max_size=8), max_size=4))
def test_walk_cells_match_dirac_products_and_prefix_folds(index, paths):
    # off the index every cell is a point, at 0 or at 1
    assert_cells_match(dirac(index, 8), [tuple(p) for p in paths])


# pairwise coprime and large: Mersenne primes, and two common moduli
PRIMES = [2**61 - 1, 2**89 - 1, 2**107 - 1, 2**127 - 1, 10**9 + 7, 998_244_353]


@FAST
@given(st.lists(st.tuples(st.integers(-(10**40), 10**40), st.one_of(st.sampled_from(PRIMES), st.integers(1, 60)))))
def test_fraction_sum_matches_a_running_fraction_sum(terms):
    total = fraction_sum(terms)
    assert type(total) is F and total == sum((F(n, d) for n, d in terms), F(0))


def test_fraction_sum_of_nothing_is_zero():
    assert fraction_sum([]) == 0 and fraction_sum(iter(())) == F(0)


class LazyGridRow:
    """Oracle: a finite row's accessors as written when the integer grid was built on first use."""

    def __init__(self, items):
        self._items, self._grid = tuple(items), None
        self.indices = tuple(k for k, _ in self._items)

    def grid(self):
        if self._grid is None:
            q = math.lcm(*(m.denominator for _, m in self._items))
            runs, nonnegative = [0], True
            for _, m in self._items:
                c = m.numerator * (q // m.denominator)
                nonnegative = nonnegative and c >= 0
                runs.append(runs[-1] + c)
            self._grid = q, runs, nonnegative and runs[-1] == q
        return self._grid

    def _position(self, k):
        items = self._items
        i = k if 0 <= k < len(items) and items[k][0] == k else bisect.bisect_left(items, k, key=lambda e: e[0])
        if i == len(items) or items[i][0] != k:
            raise InvalidArgument(f"child index {k} not in distribution support {self.indices}")
        return i

    def mass(self, k):
        return self._items[self._position(k)][1]

    def prefix_mass(self, k):
        q, runs, _ = self.grid()
        return F(runs[bisect.bisect_left(self._items, k, key=lambda e: e[0])], q)

    def cell(self, k):
        q, runs, _ = self.grid()
        i = self._position(k)
        return runs[i], runs[i + 1] - runs[i], q

    def locate(self, un, ud):
        q, runs, stochastic = self._grid or self.grid()
        if not stochastic:
            raise NotADistribution(f"the masses are not a probability distribution: {self.defect()}")
        x = un * q // ud
        i = bisect.bisect_right(runs, x) - 1 if x < q else bisect.bisect_left(runs, q) - 1
        return self._items[i][0], runs[i], runs[i + 1] - runs[i], q

    @property
    def total(self):
        q, runs, _ = self.grid()
        return F(runs[-1], q)

    def defect(self):
        if self.grid()[2]:
            return None
        for k, m in self._items:
            if not 0 <= m <= 1:
                return f"child {k} has mass {show(m)} outside [0, 1]"
        return f"masses sum to {show(self.total)}, not 1"

    def gate(self):
        """The verdict on the row at the root, a family's constructor's or a walk's: None, or its NotADistribution
        message."""
        return None if self.grid()[2] else f"the masses at node () are not a probability distribution: {self.defect()}"


def result_of(call, *args):
    """What a call gives: its value, or its error's type and message."""
    try:
        return call(*args)
    except Exception as error:
        return type(error), str(error)


def unit_fractions(bits):
    """Fractions in [0, 1] with numerators and denominators up to 2^bits."""
    return st.builds(lambda n, d: F(n % (d + 1), d), st.integers(0, 2**bits), st.integers(1, 2**bits))


MASS = st.one_of(st.just(F(0)), st.builds(F, st.integers(-12, 24), st.integers(1, 12)), unit_fractions(100))


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(1, 3), MASS), max_size=6),
    st.booleans(),
    st.lists(st.integers(-8, 20), max_size=6),
    st.lists(unit_fractions(40), max_size=4),
)
def test_finite_rows_built_with_their_grid_match_the_lazy_grid(gaps_masses, normalize, ks, points):
    # sparse indices, zeros, negative masses and sums other than one; normalized, rows that are distributions
    indices = list(accumulate(gap for gap, _ in gaps_masses))
    masses = [m for _, m in gaps_masses]
    if normalize and (total := sum(map(abs, masses))):
        masses = [abs(m) / total for m in masses]
    row, oracle = FiniteDist(dict(zip(indices, masses))), LazyGridRow(zip(indices, masses))
    for k in ks + indices:
        for query in ("cell", "mass", "prefix_mass"):
            assert result_of(getattr(row, query), k) == result_of(getattr(oracle, query), k)
    for u in points + [F(0), F(1)]:
        assert result_of(row.locate, u.numerator, u.denominator) == result_of(oracle.locate, u.numerator, u.denominator)
    assert row.total == oracle.total and row.defect() == oracle.defect()
    if indices:  # a table row sits at a non-maximal node; the constructor refuses one that is not a distribution
        tree = ExplicitTree({(): indices, **{(k,): () for k in indices}})
        verdict = oracle.gate()
        built = result_of(lambda: EdgeFamily(tree, {(): row})._state(())[0])
        assert built == (row if verdict is None else (NotADistribution, verdict))


ROW_ENTRY = st.tuples(
    st.one_of(st.fractions(-1, 2, max_denominator=12), st.builds(F, st.integers(0, 40), st.sampled_from([1, 4, 8, 20, 25]))),
    st.sampled_from(["canonical", "unreduced", "decimal", "exponent", "int", "fraction"]),
    st.integers(2, 6),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(ROW_ENTRY, max_size=5), st.booleans(), st.lists(st.integers(1, 3), min_size=5, max_size=5), st.booleans())
def test_a_row_read_from_strings_is_the_row_of_its_fractions(entries, normalize, gaps, sparse):
    # canonical and unreduced strings are read as integers, everything else through Fraction: the grid, cells,
    # masses, verdict, equality and hash must not tell the spellings apart
    values = [v for v, _, _ in entries]
    if normalize and (total := sum(map(abs, values))):
        values = [abs(v) / total for v in values]
    written = [spelled(v, kind, k) for v, (_, kind, k) in zip(values, entries)]
    indices = list(accumulate(gaps[: len(values)])) if sparse else list(range(len(values)))
    row = FiniteDist(dict(zip(indices, written))) if sparse else FiniteDist(written)
    ref = FiniteDist(dict(zip(indices, values))) if sparse else FiniteDist(values)
    assert row._grid == ref._grid and row._hits == ref._hits
    assert row._grid[:2] == LazyGridRow(zip(indices, values)).grid()[:2]  # q is the lcm of the reduced denominators
    assert row.masses == ref.masses == tuple(values) and row.items() == tuple(zip(indices, values))
    assert row.defect() == ref.defect() == LazyGridRow(zip(indices, values)).defect()
    assert row == ref and hash(row) == hash(ref)


@FAST
@given(RANDOMS)
def test_relative_expect_matches_brute_sums(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    fam = random_family(rng, tree, allow_zero=True)
    X = random_variable(rng, Front(tree, frozenset(random_front(rng, tree, rng.randint(0, 5)))))
    n = max(len(s) for s in X.front.nodes)
    candidates = prefixes(X.front.nodes)
    for t in rng.sample(candidates, min(4, len(candidates))):
        expected = brute_conditional(fam, X, t)
        assert relative_expect_front(fam, X, t) == expected
        if all(len(s) == n for s in X.front.nodes if is_prefix(t, s)):
            assert relative_expect(fam, X, t) == expected
        else:
            with pytest.raises(PreconditionFrontMismatch):
                relative_expect(fam, X, t)


@FAST
@given(RANDOMS)
def test_tower_check_matches_brute_sums(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3, well_pruned=rng.random() < 0.5)
    fam = random_family(rng, tree, allow_zero=True)
    k = tree.height
    X = random_variable(rng, enumerate_front(tree, k))
    n = rng.randint(0, k)
    m = rng.randint(0, n)
    short = any(
        len(r) != k for t in level(tree, m) for r in X.front.nodes if is_prefix(t, r)
    )
    if short:
        with pytest.raises(PreconditionFrontMismatch):
            tower_check(fam, X, m, n, k)
        return
    report = tower_check(fam, X, m, n, k)
    assert [case.node for case in report.cases] == sorted(level(tree, m))
    for case in report.cases:
        t = case.node
        assert case.lhs == brute_conditional(fam, X, t)
        assert case.rhs == sum(
            (brute_weight(fam, t, s) * brute_conditional(fam, X, s)
             for s in level(tree, n) if is_prefix(t, s)),
            F(0),
        )


@FAST
@given(RANDOMS)
def test_tower_check_fronts_matches_brute_sums(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    fam = random_family(rng, tree, allow_zero=True)
    inner = random_front(rng, tree, rng.randint(0, 3))
    X = random_variable(rng, Front(tree, frozenset(refine(rng, tree, inner, rng.randint(0, 6)))))
    candidates = prefixes(inner)
    for t in rng.sample(candidates, min(3, len(candidates))):
        (case,) = tower_check_fronts(fam, X, Front(tree, frozenset(inner)), t).cases
        assert case.lhs == brute_conditional(fam, X, t)
        assert case.rhs == sum(
            (brute_weight(fam, t, s) * brute_conditional(fam, X, s)
             for s in inner if is_prefix(t, s)),
            F(0),
        )


def tower_sides(family, variable, t, inner) -> tuple:
    """Both sides of the tower identity at t, as brute sums over the inner nodes below t."""
    rhs = sum(
        (brute_weight(family, t, s) * brute_conditional(family, variable, s)
         for s in inner if is_prefix(t, s)),
        F(0),
    )
    return brute_conditional(family, variable, t), rhs


def run_query(family, variable, query):
    """The answer to one query, or the type and message of the error it raised."""
    kind, *args = query
    call = {"relative": relative_expect, "front": relative_expect_front,
            "tower": tower_check, "fronts": tower_check_fronts}[kind]
    try:
        return call(family, variable, *args)
    except PTreeError as exc:
        return type(exc), str(exc)


@FAST
@given(RANDOMS)
def test_memoized_queries_match_brute_sums(rng):
    # one variable answers a random mix of queries under two families in
    # turn; a fresh variable (and fresh fronts) gives the reference errors
    tree = random_tree(rng, max_depth=4, max_arity=3, well_pruned=rng.random() < 0.5)
    families = [random_family(rng, tree, allow_zero=True) for _ in range(2)]
    inner = random_front(rng, tree, rng.randint(0, 3))
    steps = rng.choice([rng.randint(0, 6), tree.node_count()])  # or down to the leaves
    front = Front(tree, frozenset(refine(rng, tree, inner, steps)))
    X = random_variable(rng, front)
    # the second is a refinement of X's front: not below it once anything was refined
    intermediates = [Front(tree, frozenset(nodes)) for nodes in (inner, refine(rng, tree, front.nodes, 2))]
    nodes = sorted(tree.nodes())
    for _ in range(12):
        kind = rng.choice(["relative", "front", "tower", "fronts"])
        t = rng.choice(nodes)
        if kind == "tower":
            k = rng.choice([rng.randint(0, tree.height), max(map(len, front.nodes))])
            n = rng.randint(0, k)
            query = (kind, rng.randint(0, n), n, k)
        elif kind == "fronts":
            query = (kind, rng.choice(intermediates), t)
        else:
            query = (kind, t)
        fam = rng.choice(families)
        got = run_query(fam, X, query)
        fresh_query = query if kind != "fronts" else (kind, Front(tree, query[1].nodes), t)
        assert got == run_query(fam, FrontVariable(Front(tree, front.nodes), X.values), fresh_query)
        if isinstance(got, tuple):
            continue
        if kind in ("relative", "front"):
            assert got == brute_conditional(fam, X, t)
        elif kind == "tower":
            assert [case.node for case in got.cases] == sorted(level(tree, query[1]))
            for case in got.cases:
                assert (case.lhs, case.rhs) == tower_sides(fam, X, case.node, level(tree, query[2]))
        else:
            (case,) = got.cases
            assert (case.lhs, case.rhs) == tower_sides(fam, X, t, query[1].nodes)


def test_variable_values_are_read_only():
    fam = uniform_binary(8)
    front = enumerate_front(fam.tree, 2)
    X = FrontVariable(front, {t: sum(t) for t in front.nodes})
    with pytest.raises(TypeError):
        X.values[(0, 0)] = F(5)
    Y = X.scale_add(2, X, -1)
    assert Y == FrontVariable(front, dict(X.values))
    assert Y != X.scale_add(1, X, 1)
    assert relative_expect(fam, Y, (1,)) == F(3, 2)


@FAST
@given(st.lists(st.integers(0, 1), min_size=64, max_size=64))
def test_uniform_binary_walks_at_depth_64(path):
    t = tuple(path)
    fam = uniform_binary(64)
    lower = sum((F(k, 2 ** (i + 1)) for i, k in enumerate(t)), F(0))
    assert node_mass(fam, t) == F(1, 2**64)
    assert node_interval(fam, t) == (lower, lower + F(1, 2**64))


@FAST
@given(
    st.lists(st.integers(0, 9), min_size=64, max_size=64),
    st.sampled_from([F(1, 2), F(2, 3), F(1, 10)]),
)
def test_geometric_omega_walks_at_depth_64(path, r):
    t = tuple(path)
    fam = geometric_omega(64, r)
    lower, mass = F(0), F(1)
    for k in t:
        lower += mass * (1 - r**k)
        mass *= (1 - r) * r**k
    assert node_mass(fam, t) == mass
    assert node_interval(fam, t) == (lower, lower + mass)


@FAST
@given(
    st.lists(st.integers(0, 1), max_size=6),
    st.integers(2, 5),
    st.lists(st.integers(0, 1), max_size=4),
)
def test_invalid_path_fails_before_any_arithmetic(head, bad, tail):
    queried = []
    half = FiniteDist([F(1, 2), F(1, 2)])

    def rule(t):
        queried.append(t)
        return half

    fam = EdgeFamily(GeneratedTree(lambda t: 2, 16), rule)
    t = tuple(head) + (bad,) + tuple(tail)
    with pytest.raises(UnknownNode):
        node_mass(fam, t)
    with pytest.raises(UnknownNode):
        node_interval(fam, t)
    with pytest.raises(UnknownNode):
        _walk(fam, [tuple(head), t])  # a valid end does not start the walk early
    assert queried == []


def interior_nodes(n: int) -> list:
    return [tuple((bits >> (d - 1 - i)) & 1 for i in range(d)) for d in range(n) for bits in range(2**d)]


def brute_trial_pmf(n: int, probs: dict) -> tuple:
    """Success-count pmf by a Fraction walk over every leaf history (child 0 = success)."""
    pmf = [F(0)] * (n + 1)
    stack = [((), F(1), 0)]
    while stack:
        t, mass, successes = stack.pop()
        if len(t) == n:
            pmf[successes] += mass
            continue
        p = probs[t]
        stack.append((t + (0,), mass * p, successes + 1))
        stack.append((t + (1,), mass * (1 - p), successes))
    return tuple(pmf)


PROBS = st.one_of(
    st.just(F(0)), st.just(F(1)), st.fractions(min_value=0, max_value=1, max_denominator=60)
)


@FAST
@given(st.integers(0, 8), st.data())
def test_trial_pmf_and_dominance_match_leaf_walk(n, data):
    check_trial_kernel(n, data)


@FAST
@given(st.integers(0, 8), st.data())
def test_trial_leaf_walk_fallback_matches_oracle(n, data):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bernoulli, "_MAX_MASS_BITS", 0)  # every tree with a trial takes the leaf walk
        check_trial_kernel(n, data)


def check_trial_kernel(n, data):
    nodes = interior_nodes(n)
    probs = dict(zip(nodes, data.draw(st.lists(PROBS, min_size=len(nodes), max_size=len(nodes)))))
    tt = DependentTrialTree.from_success_probs(n, probs)
    pmf = brute_trial_pmf(n, probs)
    assert success_pmf(tt) == pmf
    adopted = DependentTrialTree(n, EdgeFamily.from_table({t: [p, 1 - p] for t, p in probs.items()}))
    assert {t: adopted.success_prob(t) for t in nodes} == probs
    assert success_pmf(flip_success_convention(tt)) == tuple(reversed(pmf))

    p = data.draw(st.sampled_from(sorted(set(probs.values())) or [F(1, 2)]) | PROBS)
    violators = sorted(t for t in nodes if probs[t] < p)
    if violators:
        with pytest.raises(HypothesisViolated) as info:
            dominance_check(tt, p)
        assert info.value.node == violators[0]
        return
    report = dominance_check(tt, p)
    expected = []
    cdf_successes = cdf_binomial = F(0)
    for z in range(n + 1):
        cdf_successes += pmf[z]
        cdf_binomial += math.comb(n, z) * p**z * (1 - p) ** (n - z)
        expected.append((z, cdf_successes, cdf_binomial))
    assert [(r.z, r.cdf_successes, r.cdf_binomial) for r in report.rows] == expected
    failing = [z for z, s, b in expected if s > b]
    assert report.violated_z == (failing[0] if failing else None)
    assert report.holds == (not failing)


def test_coprime_denominators_take_the_leaf_walk():
    # 4,095 denominators up to 10^6 have an lcm of about 32,000 bits, so
    # integer masses over its powers would reach 380,000 bits; the leaf
    # walk keeps each path's own denominators
    tt = random_trial_tree(12, 1, denominator_bound=10**6)
    assert bernoulli._over_common_denominator(tt) is None
    probs = {t: tt.success_prob(t) for t in interior_nodes(12)}
    start = time.perf_counter()
    pmf = success_pmf(tt)
    report = dominance_check(tt, 0)
    assert time.perf_counter() - start < 5
    assert pmf == brute_trial_pmf(12, probs)
    assert [r.cdf_successes for r in report.rows] == list(accumulate(pmf))


def test_integer_kernel_mass_bound_is_inclusive():
    n, bound = 8, bernoulli._MAX_MASS_BITS
    for bits, kernel in [(bound // n, True), (bound // n + 1, False)]:
        p = F(1, 2 ** (bits - 1) + 1)
        tt = DependentTrialTree.from_success_probs(n, lambda t: p)
        assert (bernoulli._over_common_denominator(tt) is not None) == kernel
        assert success_pmf(tt) == binomial_pmf(n, p)


def preorder_child_1_first(n: int, t=()):
    if len(t) < n:
        yield t
        yield from preorder_child_1_first(n, t + (1,))
        yield from preorder_child_1_first(n, t + (0,))


def randint_trial_probs(n: int, rng, min_p, bound: int) -> dict:
    """Success probabilities drawn with two `randint` calls and one Fraction per node."""
    probs = {}
    for t in preorder_child_1_first(n):
        den = rng.randint(1, bound)
        probs[t] = min_p + (1 - min_p) * F(rng.randint(0, den), den)
    return probs


@FAST
@given(
    st.integers(0, 8),
    st.integers(0, 2**64),
    st.booleans(),
    PROBS,
    st.sampled_from([*range(1, 65), 10**6]),
)
def test_random_trial_tree_matches_randint_builder(n, seed, shared, min_p, bound):
    # a shared rng must be left where two randint calls per node leave it,
    # so a second tree drawn from it continues the same stream
    rng, oracle_rng = random.Random(seed), random.Random(seed)
    for _ in range(2 if shared else 1):
        tt = random_trial_tree(n, rng if shared else seed, min_p, bound)
        probs = randint_trial_probs(n, oracle_rng, min_p, bound)
        assert {t: tt.success_prob(t) for t in probs} == probs
        if shared:
            assert rng.getstate() == oracle_rng.getstate()
        oracle = DependentTrialTree.from_success_probs(n, probs)
        assert success_pmf(tt) == success_pmf(oracle)
        assert dominance_check(tt, min_p) == dominance_check(oracle, min_p)


@FAST
@given(
    st.integers(1, 8),
    st.integers(0, 2**64),
    PROBS,
    st.sampled_from([*range(1, 65), 10**6]),
    st.data(),
)
def test_unreduced_random_trial_trees_read_as_the_reduced_oracle(n, seed, min_p, bound, data):
    # random_trial_tree stores lo + (1 - lo) * k / den over lo's denominator times den, unreduced; the flip, the
    # cell volumes, both pmf kernels and the hypothesis test must answer as for the reduced randint probabilities
    tt = random_trial_tree(n, seed, min_p, bound)
    probs = randint_trial_probs(n, random.Random(seed), min_p, bound)
    pmf = brute_trial_pmf(n, probs)
    assert success_pmf(flip_success_convention(tt)) == tuple(reversed(pmf))
    if n <= 6:
        for leaf in itertools.product((0, 1), repeat=n):
            edges = [probs[leaf[:i]] if bit == 0 else 1 - probs[leaf[:i]] for i, bit in enumerate(leaf)]
            assert cell_volume(tt, leaf) == math.prod(edges)
    above = sorted({q for q in probs.values() if q > min_p}) or [F(1)]
    p = data.draw(st.sampled_from(above) | st.fractions(min_value=min_p, max_value=1, max_denominator=60))
    violators = sorted(t for t in probs if probs[t] < p)
    for mass_bits in [bernoulli._MAX_MASS_BITS, 0]:  # the integer kernel, then the leaf walk
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(bernoulli, "_MAX_MASS_BITS", mass_bits)
            assert success_pmf(tt) == pmf
            if not violators:
                assert [r.cdf_successes for r in dominance_check(tt, p).rows] == list(accumulate(pmf))
                continue
            with pytest.raises(HypothesisViolated) as info:
                dominance_check(tt, p)
            t = violators[0]
            assert info.value.node == t
            assert str(info.value) == f"success probability {show(probs[t])} at {t} is below {show(p)}"


def test_random_trial_trees_store_unreduced_pairs():
    # the differential above only means something if some stored pair has a common factor
    tt = random_trial_tree(8, 1, F(1, 3))
    assert any(math.gcd(a, d) > 1 for a, d in zip(tt._nums, tt._dens))
    assert all(d % 3 == 0 for d in tt._dens)  # min_p's denominator times the drawn one


def descend_finite(d, y, lower, width):
    """The child cell of a finite row that holds y, as (k, lower, width);
    None when no positive cell holds it. Scans the row's Fraction cells."""
    upper = lower + width
    prev_nondegenerate = False
    chosen = None
    afters = list(accumulate(m for _, m in d.items()))
    for (k, _), before, after in zip(d.items(), [F(0)] + afters, afters):
        if before == after:
            continue
        a = lower + width * before
        b = lower + width * after
        if a <= y < b or (y == b and b == upper):  # last cell is closed on the right
            chosen = (k, a, b)
            break
        prev_nondegenerate = True
    if chosen is None:
        return None
    k, a, b = chosen
    if y == a and prev_nondegenerate:
        raise QPointError("shared endpoint")
    return k, a, b - a


def fraction_locate_branch(family, y, depth: int):
    """Descent over absolute cell ends in Fractions: finite rows by a scan
    of their cells, closed-form nodes by a scan over child indices."""
    t = ()
    lower, width = F(0), F(1)
    for _ in range(depth):
        if family.tree.is_maximal(t):
            break
        d = family.dist(t)
        if isinstance(d, FiniteDist):
            step = descend_finite(d, y, lower, width)
            if step is None:
                raise QPointError("not interior to a positive cell")
            k, lower, width = step
            t += (k,)
            continue
        if y == lower + width:
            raise QPointError("limit endpoint")
        k = 0
        while y >= lower + width * d.prefix_mass(k + 1):
            k += 1
        a = lower + width * d.prefix_mass(k)
        if y == a and d.prefix_mass(k) > 0:
            raise QPointError("shared endpoint")
        lower, width = a, width * d.mass(k)
        t += (k,)
    return t


ROWS = st.one_of(
    # integer weights 0..3 put zero masses first, inside and last
    st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(any).map(lambda w: FiniteDist([F(x, sum(w)) for x in w])),
    st.fractions(min_value=F(1, 20), max_value=F(19, 20), max_denominator=20).map(Geometric),
    st.integers(0, 5).map(PointMass),
)


@settings(max_examples=60, deadline=None)
@given(ROWS, st.lists(st.integers(0, 2**16), max_size=6), st.integers(1, 3))
def test_locate_returns_the_cell_that_holds_the_point(row, points, scale):
    if isinstance(row, FiniteDist):
        ends = {row.prefix_mass(k) for k in row.indices} | {F(1)}
    else:
        ends = {row.prefix_mass(k) for k in range(12)}
    for u in ends | {F(n, 2**16) for n in points} | {F(0), F(1)}:
        un, ud = u.numerator * scale, u.denominator * scale  # descent passes unreduced ratios
        hit = row.locate(un, ud)
        if u == 1 and row.support is OMEGA:
            assert hit is None  # the limit endpoint of infinitely many cells
            continue
        k, b, c, q = hit
        assert (b, c, q) == row.cell(k)
        if u == 1:
            assert 0 < c and b + c == q  # the last cell of positive width
        else:
            assert b * ud <= un * q < (b + c) * ud


def test_locate_refuses_a_row_that_is_not_a_distribution():
    with pytest.raises(NotADistribution, match="masses sum to 1/2, not 1"):
        FiniteDist(["1/2"]).locate(3, 4)


def squaring_index(rn, rd, vn, vd, kmax):
    """The largest k with r^k >= v and r^k as (numerator, denominator), or
    None once k is known to pass kmax: squaring r until it drops below v
    bounds k by a power of two, and a greedy pass down the squares fixes
    its bits."""
    squares = [(rn, rd)]  # squares[i] = r^(2^i)
    while squares[-1][0] * vd >= vn * squares[-1][1]:
        if 1 << (len(squares) - 1) > kmax:
            return None
        sn, sd = squares[-1]
        squares.append((sn * sn, sd * sd))
    k, pn, pd = 0, 1, 1  # invariant: r^k = pn / pd >= v
    for i in range(len(squares) - 2, -1, -1):
        sn, sd = squares[i]
        qn, qd = pn * sn, pd * sd
        if qn * vd >= vn * qd:
            k, pn, pd = k + (1 << i), qn, qd
    return (k, pn, pd) if k <= kmax else None


GEOMETRIC_RATIOS = [F(1, 2), F(9, 10), F(99, 100), F(1, 10**6), F(1, 2**64), 1 - F(1, 2**20)]


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(GEOMETRIC_RATIOS),
    st.sampled_from(["random", "in cell j", "r^j", "below r^j", "above r^j"]),
    st.integers(0, 400),
    st.integers(1, 2**64),
    st.integers(1, 3),
    st.integers(0, 500),
    # the float estimate sets only how many exact steps run: skewed, zero
    # and missing (nan, as within 10^-300 of 1) estimates give the same answer
    st.sampled_from([1.0, 1.0, 1.0, 0.0, 0.5, 2.0, math.nan]),
)
def test_geometric_index_matches_the_squaring_search(r, kind, j, n, scale, kmax, skew):
    rn, rd = r.numerator, r.denominator
    pn, pd = rn**j, rd**j
    if kind == "random":
        vn, vd = n, 2**64
    elif kind == "in cell j":  # r^j · w for w = r + (1 - r)·n/2^64 in (r, 1]: inside child j
        vn, vd = pn * (rn * 2**64 + (rd - rn) * n), pd * rd * 2**64
    else:
        vn, vd = pn * scale + {"r^j": 0, "below r^j": -1, "above r^j": 1}[kind], pd * scale
    vn, vd = vn * scale, vd * scale  # descent passes unreduced ratios
    if not 0 < vn <= vd:
        return
    inv_log = Geometric(r)._inv_log * skew
    expected = squaring_index(rn, rd, vn, vd, kmax)
    if expected is None:  # past the size limit: refused before r^k is built
        with pytest.raises(OversizedValue):
            _geometric_index(rn, rd, vn, vd, inv_log, kmax)
    else:
        assert _geometric_index(rn, rd, vn, vd, inv_log, kmax) == expected


def answer(call, *args):
    """What call(*args) returns, or the type of the exception it raises."""
    try:
        return call(*args)
    except Exception as exc:
        return type(exc)


def formula_cell(row, k):
    """Child k's cell from the closed form: two powers of r, no table."""
    rn, rd = row._rn, row._rd
    pn, pd = rn ** _power_index(k, row._kmax), rd**k
    return (pd - pn) * rd, (rd - rn) * pn, pd * rd


def formula_locate(row, un, ud):
    """The child whose cell holds un/ud by the certified float step alone, with its cell; None at 1."""
    if un == ud:
        return None
    k, _, _ = _geometric_index(row._rn, row._rd, ud - un, ud, row._inv_log, row._kmax)
    return (k, *formula_cell(row, k))


# near 0, the sampled ratios, and two next to 1: 1 - 2^-64 has 3 head children (3 · 65 <= 256), 1 - 2^-300 one
HEAD_RATIOS = [F(1, 10**6), F(1, 2), F(9, 10), F(99, 100), 1 - F(1, 2**64), 1 - F(1, 2**300)]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(HEAD_RATIOS), st.lists(st.integers(0, 2**64), max_size=4), st.integers(1, 3))
def test_a_geometric_head_answers_as_the_closed_form(r, points, scale):
    row = Geometric(r)
    row._build_head()
    n = len(row._head[2])
    assert n == max(1, HEAD_BITS // r.denominator.bit_length())
    # random points over the head and as many tail cells again, every end of the head's last cell and of the
    # tail's first two, and the ends of [0, 1]
    spread = {(1 - r ** (2 * n)) * F(x, 2**64) for x in points}
    for u in spread | {1 - r**k for k in (0, n - 1, n, n + 1, n + 2)} | {F(0), F(1)}:
        un, ud = u.numerator * scale, u.denominator * scale  # descent passes unreduced ratios
        assert answer(row.locate, un, ud) == answer(formula_locate, row, un, ud)
    for k in range(-2, n + 3):
        assert answer(row.cell, k) == answer(formula_cell, row, k)


@pytest.mark.parametrize("r", [1 - F(1, 2**64), 1 - F(1, 2**300)], ids=["1-2^-64", "1-2^-300"])
def test_a_geometric_head_leaves_a_point_past_the_power_limit_to_the_tail(r):
    # u = 1/2 lies in child ~2^63 (or ~2^299): past the head and refused by the tail step, as without a head
    row = Geometric(r)
    row._build_head()
    with pytest.raises(OversizedValue, match="geometric children past"):
        row.locate(1, 2)
    assert answer(formula_locate, row, 1, 2) is OversizedValue


@st.composite
def entry_rows(draw):
    """A row of each kind and the children to read: canonical and sparse finite rows (zero masses included), a
    shared geometric row at children 0, K - 1, K and one tail child past its K-child head, a fresh geometric row
    (an empty head) and a point mass."""
    kind = draw(st.sampled_from(["canonical", "sparse", "shared geometric", "fresh geometric", "point mass"]))
    if kind in ("canonical", "sparse"):
        weights = draw(st.lists(st.integers(0, 3), min_size=1, max_size=6).filter(any))
        masses = [F(w, sum(weights)) for w in weights]
        if kind == "canonical":
            return FiniteDist(masses), list(range(len(masses)))
        indices = list(accumulate(draw(st.lists(st.integers(1, 3), min_size=len(masses), max_size=len(masses)))))
        return FiniteDist(dict(zip(indices, masses))), indices
    if kind == "point mass":
        row = PointMass(draw(st.integers(0, 5)))
        return row, [0, row.index, row.index + 1, draw(st.integers(0, 20))]
    r = draw(st.sampled_from([F(1, 2), F(2, 3), F(9, 10), F(99, 100)]))
    row = geometric_omega(4, r).row if kind == "shared geometric" else Geometric(r)
    n = len(row._head[2])  # K children in a shared row's head, none in a fresh one's
    return row, sorted({0, max(n - 1, 0), n, n + draw(st.integers(1, 40))})


@settings(max_examples=80, deadline=None)
@given(entry_rows(), st.lists(st.integers(0, 2**32 - 1), max_size=4), st.integers(1, 3))
def test_every_row_answers_its_table_and_locate_with_one_entry(row_ks, points, scale):
    # the walk's table[k] (a closed form's row[k]) is child k's entry (k, b, c, q) with its cell and mass, and
    # locate(u) hands back the entry of the child whose cell holds u
    row, ks = row_ks
    table = _row_cells(row, ())
    assert table is row or row.__class__ is FiniteDist
    us = {F(0), F(1), *(F(n, 2**32) for n in points)}
    for k in ks:
        entry = table[k]
        assert entry == (k, *row.cell(k)) and F(entry[2], entry[3]) == row.mass(k)
        _, b, c, q = entry
        us |= {F(b, q), F(2 * b + c, 2 * q)}  # the cell's lower end and midpoint
    for u in sorted(us):
        un, ud = u.numerator * scale, u.denominator * scale  # descent passes unreduced ratios
        hit = row.locate(un, ud)
        if u == 1 and row.support is OMEGA:
            assert hit is None  # the limit endpoint of infinitely many cells
            continue
        k, b, c, q = hit
        assert hit == table[k]
        if u == 1:  # a finite row's last cell of positive width
            assert 0 < c and b + c == q
        else:
            assert b * ud <= un * q < (b + c) * ud


def test_a_row_stores_each_entry_once():
    # the walk's table and locate hand back the very entries the row built, not copies
    canonical = FiniteDist(["1/4", "0", "3/4"])
    assert canonical._grid[2] is canonical._hits
    sparse = FiniteDist({1: "1/3", 4: "0", 6: "2/3"})
    assert [sparse._grid[2][k] for k in sparse.indices] == list(sparse._hits)
    assert all(sparse._grid[2][k] is entry for k, entry in zip(sparse.indices, sparse._hits))
    shared = geometric_omega(4, F(9, 10)).row
    head = shared._head[2]
    assert len(head) == 64 and all(shared[k] is head[k] for k in range(64))
    for u in (F(0), F(1, 3), 1 - F(9, 10) ** 63, 1 - F(9, 10) ** 64 - F(1, 10**30)):
        hit = shared.locate(u.numerator, u.denominator)
        assert any(hit is entry for entry in head)


def outcome(locate, family, y, depth):
    try:
        return locate(family, y, depth)
    except QPointError:
        return QPointError


@FAST
@given(
    st.fractions(min_value=F(1, 50), max_value=F(49, 50), max_denominator=50),
    st.integers(0, 6),
    st.integers(1, 3),
    st.data(),
)
def test_locate_branch_closed_forms_match_scan(r, index, depth, data):
    family = data.draw(st.sampled_from([geometric_omega(3, r), dirac(index, 3)]))
    # random points, the shared endpoints 1 - r^k of the first level, and the ends of [0, 1]
    y = data.draw(
        st.builds(lambda n: F(n, 2**16), st.integers(0, 2**16))
        | st.builds(lambda k: 1 - r**k, st.integers(0, 40))
        | st.sampled_from([F(0), F(1)])
    )
    assert outcome(locate_branch, family, y, depth) == outcome(fraction_locate_branch, family, y, depth)


@FAST
@given(
    RANDOMS,
    st.sampled_from(["explicit", "geometric", "dirac"]),
    st.fractions(min_value=F(1, 20), max_value=F(9, 10), max_denominator=20),
    st.lists(st.integers(0, 2**16), max_size=10),
    st.lists(st.integers(0, 2**128), max_size=10),
)
def test_locate_branch_matches_fraction_descent(rng, kind, r, short, long):
    if kind == "explicit":
        tree = random_tree(rng, max_depth=4, max_arity=4)
        family = random_family(rng, tree, allow_zero=True)
        nodes, depth = list(tree.nodes()), tree.height
    else:
        family = geometric_omega(3, r) if kind == "geometric" else dirac(rng.randint(0, 3), 3)
        nodes, depth = [()] + [(i,) for i in range(5)] + [(i, j) for i in range(3) for j in range(3)], 3
    # every cell endpoint, where the shared-endpoint and last-cell cases live, and dyadic points
    points = {e for t in nodes for e in node_interval(family, t)}
    points |= {F(n, 2**16) for n in short} | {F(n, 2**128) for n in long}
    for y in sorted(points):
        for d in {1, depth}:
            assert outcome(locate_branch, family, y, d) == outcome(fraction_locate_branch, family, y, d)


def chunked_descent_masses(family, depth: int, chunks: int) -> dict:
    """Every string of `chunks` 2-bit chunks, weighted 4^-chunks and summed
    per branch, where a string's branch is the descent of its first chunk's
    interval, refined with the next chunk whenever it spills."""
    masses: dict = {}
    for s in range(4**chunks):
        digits = [(s >> 2 * i) & 3 for i in reversed(range(chunks))]  # first chunk first
        feed = iter(digits[1:])

        def refine_by_chunk(un, wn, ud, feed=feed):
            return un * 4 + wn * next(feed), wn, ud * 4

        t = intervals._descend(family, digits[0], 1, 4, depth, refine_by_chunk)
        masses[t] = masses.get(t, F(0)) + F(1, 4**chunks)
    return masses


@pytest.mark.parametrize(
    "family, depth, chunks",
    [
        (
            EdgeFamily.from_table(
                {(): ["1/4", "0", "3/4"], (0,): ["1/2", "1/2"], (2,): ["1/8", "5/8", "1/4"], (2, 1): ["0", "1"]}
            ),
            3,
            4,
        ),
        (uniform_binary(16), 8, 5),
        (uniform_binary(16), 11, 6),
    ],
    ids=["explicit-with-zero-mass-child", "uniform_binary", "uniform_binary-past-a-stride"],
)
def test_chunked_descent_is_exact_on_dyadic_families(family, depth, chunks):
    # the sampler's oracle: with enough bits every cell end is a chunk
    # boundary, so each branch gets exactly its mass
    front = enumerate_front(family.tree, depth).nodes
    expected = {t: node_mass(family, t) for t in front if node_mass(family, t) > 0}
    assert chunked_descent_masses(family, depth, chunks) == expected


def path_row(family, t):
    """The row at a node known to be valid, read by path: the table row, the shared row or the rule, with the row
    gate's texts; None at a maximal node. Independent of the node states the kernels step through."""
    d = family.row
    if d is None:
        if family.is_explicit:
            d = family._dists.get(t)
        elif not (a := family.tree._arity_unchecked(t)):
            return None
        else:
            d = family._dists(t)
            if mismatch := _support_mismatch(d, a):
                raise NotADistribution(f"at node {t}, {mismatch}")
    if d.__class__ is FiniteDist and d._grid[2] is None:
        raise NotADistribution(f"the masses at node {t} are not a probability distribution: {d.defect()}")
    return d


def per_level_descend(family, un, wn, ud, depth, refine=None):
    """Descent one level per bisection, reading each row by path: as written before shared finite rows stepped
    through a power row and explicit families through node states."""
    y = un, ud
    shared = path_row(family, ()) if family.row is not None and depth else None
    t = ()
    while len(t) < depth:
        d = shared or path_row(family, t)
        if d is None:
            break
        hit = d.locate(un, ud)
        if hit is None:
            raise QPointError(f"{show(F(*y))} is the limit endpoint of an infinite subdivision")
        k, b, c, q = hit
        if (un + wn) * q > (b + c) * ud:
            un, wn, ud = refine(un, wn, ud)
            continue
        if not wn and b and un * q == b * ud:
            raise QPointError(f"{show(F(*y))} is a shared cell endpoint")
        un, wn, ud = un * q - b * ud, wn * q, c * ud
        t = t + (k,)
    return t


def located(family, y, depth):
    """The branch locate_branch finds, or its QPointError message."""
    try:
        return locate_branch(family, y, depth)
    except QPointError as e:
        return str(e)


@st.composite
def shared_finite_rows(draw):
    """Rows of arity 1-6 over a denominator of at most 60, zero masses included."""
    n, den = draw(st.integers(1, 6)), draw(st.integers(1, 60))
    cuts = sorted(draw(st.lists(st.integers(0, den), min_size=n - 1, max_size=n - 1)))
    return [F(b - a, den) for a, b in zip([0, *cuts], [*cuts, den])]


# rows whose q has 101 and 159 bits: their power rows take m = 2 levels, and none (m = 1)
WIDE_ROWS = [[F(1, 2**100), 1 - F(1, 2**100)], [F(1, 3**100), F(1, 3**99), 1 - F(4, 3**100)]]


@FAST
@given(shared_finite_rows() | st.sampled_from(WIDE_ROWS), st.data())
def test_power_row_descent_matches_the_per_level_descent(row, data):
    m = FiniteDist(row)._stride()
    depth = data.draw(st.integers(0, 3 * m + 1))
    family = EdgeFamily(GeneratedTree(len(row), 3 * m + 1), FiniteDist(row))
    seed = data.draw(st.integers(0, 2**32))
    draws = intervals.sample_branches(family, seed, 5, depth)
    with mock.patch.object(intervals, "_descend", per_level_descend):
        assert draws == intervals.sample_branches(family, seed, 5, depth)
    # random points, every level-1 and level-2 cell endpoint, and the ends of [0, 1]
    points = set(data.draw(st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=5)))
    points |= {e for k in range(len(row)) for t in [(k,), *((k, j) for j in range(len(row)))] for e in node_interval(family, t)}
    for y in sorted(points | {F(0), F(1)}):
        with mock.patch.object(intervals, "_descend", per_level_descend):
            expected = located(family, y, depth)
        assert located(family, y, depth) == expected


# 1/2, 9/10 and 19/20 get a two-level table (r^16 <= 1/2; 19/20 just inside), 24/25 and 99/100 none; over a
# 41-bit and a 27-bit denominator it takes 3 and 4 children a level
GEOMETRIC_POWER_RATIOS = [F(1, 2), F(9, 10), F(19, 20), F(24, 25), F(99, 100), F(1, 2**40), F(2**25 + 3, 2**26 + 3)]


@FAST
@given(st.sampled_from(GEOMETRIC_POWER_RATIOS), st.integers(0, 5), st.data())
def test_geometric_power_descent_matches_the_per_level_descent(r, depth, data):
    family = geometric_omega(5, r)
    k = min(16, HEAD_BITS // (2 * r.denominator.bit_length()))  # the table's children per level
    assert family._stride == (2 if r ** k <= F(1, 2) else 1)
    seed = data.draw(st.integers(0, 2**32))
    draws = intervals.sample_branches(family, seed, 5, depth)
    with mock.patch.object(intervals, "_descend", per_level_descend):
        assert draws == intervals.sample_branches(family, seed, 5, depth)  # and so drew as many 128-bit chunks
    # random points, every level-1 and level-2 cell endpoint of the table's children and of the first past them
    # (child k of a first child starts its tail entry), and the ends of [0, 1]
    points = set(data.draw(st.lists(st.fractions(0, 1, max_denominator=10**6), max_size=5)))
    points |= {e for i in range(k + 1) for t in [(i,), *((i, j) for j in range(k + 1))] for e in node_interval(family, t)}
    for y in sorted(points | {F(0), F(1)}):
        with mock.patch.object(intervals, "_descend", per_level_descend):
            expected = located(family, y, depth)
        assert located(family, y, depth) == expected


def path_reading_walk(family, ends, start=(), require=None):
    """The walk kernel as written before explicit families carried a state: each step reads its row by path."""
    row, rows = family.row, family._dists if family.is_explicit else None
    shared, closed = (row._grid[2], None) if row.__class__ is FiniteDist else (None, row and row.cell)
    base = len(start)
    out = {}
    prev = start
    cells = [(0, 1, 1)]
    for s in sorted(set(map(require or family.tree.require, map(tuple, ends)))):
        j, common = base, min(len(prev), len(s))
        while j < common and prev[j] == s[j]:
            j += 1
        del cells[j - base + 1 :]
        lo, w, q = cells[-1]
        for i in range(j, len(s)):
            table = shared if rows is None else rows[s[:i]]._grid[2]
            b, c, r = table[s[i]][1:] if table is not None else (closed or path_row(family, s[:i]).cell)(s[i])
            lo, w, q = lo * r + w * b, w * c, q * r
            cells.append((lo, w, q))
        out[s] = lo, w, q
        prev = s
    return out


def with_a_bad_row(rng, table):
    """The table with one interior row, off most paths, replaced by masses that are not a distribution."""
    u = rng.choice(sorted(table))
    idx = table[u].indices
    short, negative = dict.fromkeys(idx, F(1, len(idx) + 1)), {**dict.fromkeys(idx, F(0)), idx[0]: F(3, 2)}
    return {**table, u: FiniteDist(rng.choice([short, negative]))}


def state_case(rng, kind):
    """A family of the kind, a prefix-closed sample of its nodes, and the deepest descent to try."""
    if kind == "shared":  # a finite row with a zero entry (power steps once a descent reaches its stride), or a closed form
        budget, n = rng.randint(1, 5), rng.randint(2, 4)
        weights = [rng.randint(0, 4) for _ in range(n)]
        zero = rng.randrange(n)
        weights[zero], weights[zero - 1] = 0, weights[zero - 1] + 1
        finite = FiniteDist([F(w, sum(weights)) for w in weights])
        row = rng.choice([finite, Geometric(F(rng.randint(1, 11), 12)), PointMass(rng.randint(0, 3))])
        fam = EdgeFamily(GeneratedTree(n if row is finite else OMEGA, budget), row)
        width = n if row is finite else 5
        paths = [tuple(rng.randrange(width) for _ in range(rng.randint(0, budget))) for _ in range(8)]
        return fam, sorted({t[:i] for t in paths for i in range(len(t) + 1)}), budget
    fam = random_family(rng, random_tree(rng, max_depth=5, max_arity=4), allow_zero=True)
    if kind == "positive-part":  # sparse child sets: a zero edge's child is gone, the others keep their index
        fam = positive_part(fam)[0]
    tree, rule = fam.tree, kind in ("bad-row", "rule")
    if rule:  # the same rows, read by a rule over a generated tree with the explicit tree's nodes; only a rule's are lazy
        table = fam.dist_table()
        if table and (kind == "bad-row" or rng.random() < 0.5):
            table = with_a_bad_row(rng, table)
        fam = rule_family(table)
    return fam, sorted(tree.nodes()), tree.height + (not rule)  # past an explicit tree's height, descent stops


@settings(max_examples=60, deadline=None)
@given(RANDOMS, st.sampled_from(["canonical", "positive-part", "bad-row", "shared", "rule"]))
def test_state_walks_and_descents_match_the_path_reading_loops(rng, kind):
    fam, nodes, deepest = state_case(rng, kind)
    for _ in range(3):
        start = rng.choice(nodes)
        below = [s for s in nodes if is_prefix(start, s)]
        ends = rng.sample(below, rng.randint(0, min(6, len(below))))
        assert result_of(_walk, fam, ends, start) == result_of(path_reading_walk, fam, ends, start)
    depth = rng.randint(0, deepest)
    seed = rng.getrandbits(32)
    draws = result_of(intervals.sample_branches, fam, seed, 8, depth)
    with mock.patch.object(intervals, "_descend", per_level_descend):
        assert result_of(intervals.sample_branches, fam, seed, 8, depth) == draws
    # random points, the ends of cells the walk reaches (shared endpoints among them), and the ends of [0, 1]
    cells = result_of(path_reading_walk, fam, rng.sample(nodes, min(4, len(nodes))))
    ends = cells.values() if isinstance(cells, dict) else ()
    points = {F(rng.randint(0, 60), 60), F(0), F(1)} | {F(lo + e, q) for lo, w, q in ends for e in (0, w)}
    for y in sorted(points):
        expected = result_of(per_level_descend, fam, y.numerator, 0, y.denominator, depth)
        assert result_of(intervals._descend, fam, y.numerator, 0, y.denominator, depth) == expected


def pairwise_order_ok(h) -> bool:
    """Order preservation checked on every pair of nodes of the map h."""
    nodes = sorted(h)  # tuple order puts a prefix before its extensions
    for i, s in enumerate(nodes):
        for t in nodes[i + 1 :]:
            if is_prefix(s, t):
                if not is_prefix(h[s], h[t]):
                    return False
            elif compatible(h[s], h[t]):
                return False
    return True


@FAST
@given(RANDOMS, st.sampled_from(["none", "child", "any"]), st.integers(1, 4))
def test_order_check_matches_pairwise_oracle(rng, move, count):
    tree = random_tree(rng, max_depth=4, max_arity=4)
    family = random_family(rng, tree, allow_zero=True)
    real = encoding.binary_encode(tree, tree.height)
    images = sorted(real.image.nodes())
    h = dict(real.h)
    # a node moved onto a child's image loses extension to its other
    # children but keeps every incompatibility; "any" breaks either
    for t in rng.sample(sorted(h), min(count, len(h))) if move != "none" else ():
        if move == "any":
            h[t] = rng.choice(images)
        elif not tree.is_maximal(t):
            h[t] = real.h[rng.choice(tree.children(t))]
    broken = dataclasses.replace(real, h=h)
    with mock.patch.object(encoding, "binary_encode", lambda tree, depth: broken):
        report = verify_encoding(family, tree.height)
    assert report.order_ok is pairwise_order_ok(h)


def chain_tree(rng, max_depth=5, max_nodes=60):
    """A random canonical tree of arities up to 5 where arity-one chains are common."""
    children, stack = {}, [()]
    while stack:
        t = stack.pop()
        leaf = len(t) >= max_depth or len(children) + len(stack) > max_nodes or (t and rng.random() < 0.25)
        children[t] = () if leaf else tuple(range(rng.choice([1, 1, 1, 2, 3, 4, 5])))
        stack.extend(t + (k,) for k in children[t])
    return ExplicitTree(children)


def prefix_scan_encoding(tree, depth):
    """h by the child rule, then the image tree from every prefix of every image path."""
    h, stack = {(): ()}, [()]
    while stack:
        t = stack.pop()
        if len(t) < depth and not tree.is_maximal(t):
            a = tree.arity(t)
            for k in range(a):
                h[t + (k,)] = h[t] if a == 1 else h[t] + (1,) * k + (0,) * (k < a - 1)
                stack.append(t + (k,))
    preimages, children = {}, {(): set()}
    for t in sorted(h, key=len):
        preimages.setdefault(h[t], []).append(t)
    for s in preimages:
        for i in range(len(s)):
            children.setdefault(s[:i], set()).add(s[i])
        children.setdefault(s, set())
    image = ExplicitTree({s: tuple(sorted(ks)) for s, ks in children.items()})
    return h, image, {s: tuple(ts) for s, ts in preimages.items()}


def longest_prefix_masses(family, h, image, preimages):
    """An image of a source node takes its shallowest preimage's mass; any other image node the
    masses of those children of its longest preimage prefix whose images extend it."""
    masses = {}
    for s in image.nodes():
        if s in preimages:
            masses[s] = brute_weight(family, (), preimages[s][0])
            continue
        anchor = next(s[:n] for n in range(len(s) - 1, -1, -1) if s[:n] in preimages)
        kids = family.tree.children(preimages[anchor][-1])
        masses[s] = sum((brute_weight(family, (), c) for c in kids if c in h and is_prefix(s, h[c])), F(0))
    return masses


@FAST
@given(RANDOMS)
def test_gadget_encoding_matches_the_prefix_scan_and_longest_prefix_search(rng):
    tree = chain_tree(rng)
    family = random_family(rng, tree, allow_zero=True)
    for depth in range(tree.height + 1):
        enc = binary_encode(tree, depth)
        h, image, preimages = prefix_scan_encoding(tree, depth)
        assert (enc.h, enc.image, enc.preimages) == (h, image, preimages)
        assert dict(encoded_measure(family, enc).items()) == longest_prefix_masses(family, h, image, preimages)


def fraction_verify_encoding(family, enc):
    """The encoding verifier as written over Fractions: each source cell a product and prefix fold, masses
    pushed bottom-up and judged by the checked measure constructor (whose message words a violation), image
    cells from running Fraction sums, and `is_prefix` and `compatible` on every edge and sibling pair."""
    failures, source = [], {t: brute_cell(family, (), t) for t in enc.h}
    masses = {}
    for s in sorted(enc.image.nodes(), reverse=True):
        if s in enc.preimages:
            masses[s] = source[enc.preimages[s][0]][1]
        else:
            masses[s] = sum((masses[s + (k,)] for k in enc.image.child_indices(s)), F(0))
    try:
        measure = InductiveMeasure(enc.image, masses)
    except ValueError as exc:
        failures.append(f"pushed measure violates the inductive law: {exc}")
        measure = None
    inductive_ok = intervals_ok = measure is not None
    if measure is not None:
        cells, free = {(): (F(0), F(1))}, {}
        for s, m in sorted(measure.items())[1:]:
            lower = free.get(s[:-1], cells[s[:-1]][0])
            free[s[:-1]], cells[s] = lower + m, (lower, m)
        for t, s in enc.h.items():
            (a, w), (b, m) = source[t], cells[s]
            if (a, w) != (b, m):
                intervals_ok = False
                failures.append(f"interval mismatch at {t}: {intervals.Interval(a, a + w)} vs {intervals.Interval(b, b + m)} at image {s}")
    order_ok, siblings = True, {}
    for t in sorted(enc.h):
        if t:
            siblings.setdefault(t[:-1], []).append(t)
    for parent, kids in siblings.items():
        for i, s in enumerate(kids):
            if not is_prefix(enc.h[parent], enc.h[s]):
                order_ok = False
                failures.append(f"extension not preserved: {parent} vs {s}")
            for t in kids[i + 1 :]:
                if compatible(enc.h[s], enc.h[t]):
                    order_ok = False
                    failures.append(f"incompatibility not preserved: {s} vs {t}")
    image_shape_ok = True
    for s in enc.image.nodes():
        if len(enc.image.child_indices(s)) == 1:
            image_shape_ok = False
            failures.append(f"image node {s} has a single child")
    for s in enc.image.max_nodes():
        if s not in enc.preimages:
            image_shape_ok = False
            failures.append(f"maximal image node {s} is not the image of a source node")
    return EncodingReport(inductive_ok, intervals_ok, order_ok, image_shape_ok, tuple(failures))


def corrupt_encoding(rng, enc, kind):
    """The encoding with its image tree, its node map or both altered at random; every image stays an image node.

    A pruned image node loses its subtree and takes the images that lay in it; a grafted one gains
    children that are no node's image, beside any it had.
    """
    h, children = dict(enc.h), enc.image.child_map()
    if kind in ("image", "both"):
        s = rng.choice(sorted(children))
        if children[s] and rng.random() < 0.5:
            for u in [u for u in children if len(u) > len(s) and is_prefix(s, u)]:
                del children[u]
            children[s] = ()
            h = {t: s if is_prefix(s, v) else v for t, v in h.items()}
        else:
            children[s] = tuple(sorted({*children[s], *rng.sample(range(4), rng.randint(1, 2))}))
            for k in children[s]:
                children.setdefault(s + (k,), ())
    if kind in ("h", "both"):
        images = sorted(children)
        for t in rng.sample(sorted(h), rng.randint(1, min(3, len(h)))):
            h[t] = rng.choice(images)
    return dataclasses.replace(enc, h=h, image=ExplicitTree(children))


@settings(max_examples=60, deadline=None)
@given(RANDOMS, st.sampled_from(["none", "image", "h", "both"]))
def test_integer_verifier_matches_the_fraction_verifier(rng, kind):
    # zero masses give zero-width cells and let a grafted leaf keep the law; a graft mixes denominators
    tree = random_tree(rng, max_depth=4, max_arity=3)
    family = random_family(rng, tree, allow_zero=True)
    for depth in sorted({1, tree.height}):
        enc = corrupt_encoding(rng, binary_encode(tree, depth), kind)
        report = enc.verify(family)
        assert report == fraction_verify_encoding(family, enc)
        assert report.ok or kind != "none"


@FAST
@given(RANDOMS)
def test_below_mass_matches_the_prefix_filter(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    measure = induced_measure(random_family(rng, tree, allow_zero=True))
    front = Front(tree, frozenset(random_front(rng, tree, rng.randint(0, 5))))
    nodes = sorted(tree.nodes())
    outside = [t + (5,) for t in rng.sample(nodes, 2)] + [(9,) * rng.randint(1, 5)]  # no child index reaches 5
    for t in rng.sample(nodes, min(6, len(nodes))) + outside:
        members = [s for s in front.nodes if is_prefix(t, s)]
        expected = sum(map(measure.mass, members), F(0)) if members else (NodeNotBelowFront, f"node {t} has no extension in the front")
        assert result_of(below_mass, measure, t, front) == expected


class SeparateExplicitAccessors:
    """The node accessors `ExplicitTree` used to define for itself, over the tree's child map."""

    def __init__(self, tree):
        self._children = tree._children

    def contains(self, t):
        return tuple(t) in self._children

    def require(self, t):
        t = tuple(t)
        if t not in self._children:
            raise UnknownNode(f"no node {t} in tree")
        return t

    def arity(self, t):
        return len(self._children[self.require(t)])

    def child_indices(self, t):
        return self._children[self.require(t)]

    def children(self, t):
        t = self.require(t)
        return tuple(t + (k,) for k in self._children[t])

    def is_maximal(self, t):
        return not self._children[self.require(t)]


class SeparateGeneratedAccessors:
    """The node accessors `GeneratedTree` used to define for itself, over its shared arity or rule."""

    def __init__(self, tree):
        self.shared, self.rule, self.budget = tree.shared_arity, tree._rule, tree.depth_budget

    def _arity(self, t):
        if self.shared is not None:
            return self.shared
        a = self.rule(t)
        if a is not OMEGA and a < 0:
            raise ValueError(f"negative arity {a} at {t}")
        return a

    def contains(self, t):
        t = tuple(t)
        if len(t) > self.budget:
            raise DepthBudgetExceeded(f"node {t} lies beyond the depth budget {self.budget}")
        for j in range(len(t)):
            a = self._arity(t[:j])
            if t[j] < 0 or (a is not OMEGA and t[j] >= a):
                return False
        return True

    def require(self, t):
        t = tuple(t)
        if not self.contains(t):
            raise UnknownNode(f"no node {t} in tree")
        return t

    def arity(self, t):
        return self._arity(self.require(t))

    def child_indices(self, t):
        a = self.arity(t)
        if a is OMEGA:
            raise InfiniteLevel(f"node {tuple(t)} has infinitely many successors")
        return tuple(range(a))

    def children(self, t):
        t = tuple(t)
        return tuple(t + (k,) for k in self.child_indices(t))

    def is_maximal(self, t):
        return self.arity(t) == 0


def sparse_tree(rng, depth_budget):
    """A random explicit tree whose child sets are sparse subsets of 0..5, as positive parts and images have."""
    children, stack = {}, [()]
    while stack:
        t = stack.pop()
        kids = () if len(t) >= 3 or rng.random() < 0.3 else tuple(sorted(rng.sample(range(6), rng.randint(1, 3))))
        children[t] = kids
        stack.extend(t + (k,) for k in kids)
    return ExplicitTree(children, depth_budget)


def accessor_outcome(accessor, t):
    """What one accessor call gives: its value with its type, or its error's type and message."""
    try:
        value = accessor(t)
    except (PTreeError, ValueError, KeyError) as exc:
        return "raised", type(exc), str(exc)
    return "returned", type(value), value


ACCESSORS = ("require", "contains", "arity", "child_indices", "children", "is_maximal")


@settings(max_examples=60, deadline=None)
@given(RANDOMS, st.sampled_from(["sparse", "shared", "omega", "rule"]))
def test_shared_accessors_match_the_separate_ones(rng, kind):
    budget = rng.randint(1, 4)
    if kind == "sparse":
        tree = sparse_tree(rng, rng.choice([None, 3, 5]))
        oracle = SeparateExplicitAccessors(tree)
        nodes = sorted(tree.nodes())
    else:
        if kind == "rule":
            arities = [rng.choice([0, 1, 2, 3, OMEGA]) for _ in range(5)]
            tree = GeneratedTree(lambda t: arities[(7 * sum(t) + len(t)) % 5], budget)
        else:
            tree = GeneratedTree(OMEGA if kind == "omega" else rng.randint(0, 3), budget)
        oracle = SeparateGeneratedAccessors(tree)
        nodes = [tuple(rng.randrange(3) for _ in range(rng.randint(0, budget))) for _ in range(6)]
    # nodes, their children and siblings past the last, non-nodes, negative
    # indices, and paths past the height or the depth budget
    queries = [()] + nodes + [t + (k,) for t in nodes for k in (-1, 0, 2, 6)]
    queries += [(rng.randrange(-1, 7),) * rng.randint(1, 6) for _ in range(4)]
    queries += [list(t) for t in nodes[:3]]  # any sequence is read as a path
    for t in queries:
        for name in ACCESSORS:
            assert accessor_outcome(getattr(tree, name), t) == accessor_outcome(getattr(oracle, name), t), (name, t)


def rule_row(t) -> list:
    """The rule family's row at t: arity 2 or 3 by t, masses normalized from small weights."""
    weights = [1 + (7 * sum(t) + 3 * len(t) + j) % 4 for j in range(2 + (sum(t) + len(t)) % 2)]
    return [F(w, sum(weights)) for w in weights]


def cell_table_case(rng, kind):
    """A family, its rows as Fraction lists or closed-form rules (child -> (mass before, mass)), and some of its nodes."""
    if kind in ("explicit", "positive-part"):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        table = {}
        for t in tree.nodes():
            if (a := tree._arity_unchecked(t)) > 0:
                weights = [rng.randint(0, 4) for _ in range(a)]
                weights[rng.randrange(a)] += 1
                table[t] = [F(w, sum(weights)) for w in weights]
        fam = EdgeFamily.from_table(table)
        if kind == "positive-part":  # sparse rows: a zero edge's child is gone, the others keep their index
            fam = positive_part(fam)[0]
        nodes = sorted(fam.tree.nodes())
        return fam, lambda t, k: (sum(table[t][:k], F(0)), table[t][k]), rng.sample(nodes, min(8, len(nodes)))
    depth = rng.randint(0, 10)
    if kind == "uniform":
        fam, arity, child = uniform_binary(10), 2, lambda t, k: (F(k, 2), F(1, 2))
    elif kind == "geometric":
        r = F(rng.randint(1, 11), 12)
        fam, arity, child = geometric_omega(10, r), 6, lambda t, k: (1 - r**k, (1 - r) * r**k)
    elif kind == "dirac":
        index = rng.randint(0, 3)
        fam, arity, child = dirac(index, 10), 5, lambda t, k: (F(int(k > index)), F(int(k == index)))
    else:  # a rule family: a row read at each node
        tree = GeneratedTree(lambda t: len(rule_row(t)), 10)
        fam, arity = EdgeFamily(tree, lambda t: FiniteDist(rule_row(t))), 2
        child = lambda t, k: (sum(rule_row(t)[:k], F(0)), rule_row(t)[k])  # noqa: E731
    return fam, child, [tuple(rng.randrange(arity) for _ in range(depth)) for _ in range(8)]


def fraction_cell(child, t) -> tuple:
    """(lower end, width) of t's cell: a Fraction product and prefix fold over the rows as given."""
    lower, width = F(0), F(1)
    for i in range(len(t)):
        before, mass = child(t[:i], t[i])
        lower, width = lower + width * before, width * mass
    return lower, width


@settings(max_examples=60, deadline=None)
@given(RANDOMS, st.sampled_from(["explicit", "positive-part", "uniform", "geometric", "dirac", "rule"]))
def test_cell_table_walks_match_fraction_products(rng, kind):
    fam, child, nodes = cell_table_case(rng, kind)
    for t in nodes:
        lower, width = fraction_cell(child, t)
        assert node_mass(fam, t) == width
        assert node_interval(fam, t) == (lower, lower + width)
    if kind in ("explicit", "positive-part"):
        n = rng.randint(0, fam.tree.height)
        level_nodes = sorted(enumerate_front(fam.tree, n).nodes)
    else:
        n = len(nodes[0])
        level_nodes = [t for t in nodes if len(t) == n]
    selected = frozenset(rng.sample(level_nodes, rng.randint(0, len(level_nodes))))
    total = sum((fraction_cell(child, t)[1] for t in selected), F(0))
    assert clopen_mass(fam, ClopenSelection(n, selected)) == total
    assert clopen_mass(fam, ClopenSelection(n, selected, complemented=True)) == 1 - total


@settings(max_examples=60, deadline=None)
@given(RANDOMS, st.integers(0, 2))
def test_a_table_is_refused_when_built_exactly_when_a_row_is_not_a_distribution(rng, corrupt):
    table = random_family(rng, random_tree(rng, max_depth=4, max_arity=3), allow_zero=True).dist_table()
    order = list(table)
    rng.shuffle(order)  # the constructor checks rows in the table's own order
    bad = set(rng.sample(order, min(corrupt, len(order))))
    reasons = {}
    for t in bad:
        masses, i = list(table[t].masses), rng.randrange(len(table[t].masses))
        defect = rng.choice(["short-sum", "negative", "above-one"])
        if defect == "short-sum":  # every mass scaled by c < 1
            c = F(rng.randint(1, 5), 6)
            masses, reasons[t] = [m * c for m in masses], f"masses sum to {c}, not 1"
        else:
            masses[i] = F(-1, rng.randint(1, 5)) if defect == "negative" else 1 + F(1, rng.randint(1, 5))
            reasons[t] = f"child {i} has mass {masses[i]} outside [0, 1]"
        table[t] = FiniteDist(masses)
    table = {t: table[t] for t in order}
    first = next((t for t in order if t in bad), None)
    expected = None if first is None else (
        NotADistribution, f"the masses at node {first} are not a probability distribution: {reasons[first]}"
    )
    tree = ExplicitTree.from_arities({t: len(d.masses) for t, d in table.items()})
    rows = {t: d.masses for t, d in table.items()}
    for build in (lambda: EdgeFamily(tree, table), lambda: EdgeFamily.from_table(rows)):
        built = result_of(build)
        if expected:
            assert built == expected
        else:
            assert built.dist_table() == table


@settings(max_examples=60, deadline=None)
@given(RANDOMS, st.sampled_from(["table", "every-node", "one-node"]), st.sampled_from(["short-sum", "negative"]))
def test_a_defective_row_is_refused_exactly_when_a_walk_crosses_it(rng, kind, defect):
    # rule families only: a table or shared row that is not a distribution is refused when the family is built
    def bad_row(a):
        if defect == "short-sum":  # every child 1/(a + 1)
            return [F(1, a + 1)] * a, f"masses sum to {F(a, a + 1)}, not 1"
        return [F(3, 2), F(-1, 2)] + [F(0)] * (a - 2), "child 0 has mass 3/2 outside [0, 1]"

    if kind == "table":  # a rule serving a random table's rows
        tree = random_tree(rng, max_depth=4, max_arity=3)
        interior = sorted(t for t in tree.nodes() if tree._arity_unchecked(t) >= 2)
        if not interior:
            return
        u = rng.choice(interior)
        table = {t: [F(1, a)] * a for t in tree.nodes() if (a := tree._arity_unchecked(t))}
        table[u], reason = bad_row(len(table[u]))
        fam = rule_family(table)
        nodes = sorted(tree.nodes())
    elif kind == "every-node":  # one row at every node: a walk crosses it with its first step
        u, (row, reason) = (), bad_row(2)
        fam = EdgeFamily(GeneratedTree(2, 6), lambda t: FiniteDist(row))
        nodes = [tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))) for _ in range(8)]
    else:
        u = tuple(rng.randrange(2) for _ in range(rng.randint(0, 3)))
        row, reason = bad_row(2)
        fam = EdgeFamily(GeneratedTree(2, 6), lambda t: FiniteDist(row if t == u else [F(1, 2)] * 2))
        nodes = [u + tuple(rng.randrange(2) for _ in range(rng.randint(0, 3))) for _ in range(4)]
        nodes += [tuple(rng.randrange(2) for _ in range(rng.randint(0, 6))) for _ in range(4)]
    expected = (NotADistribution, f"the masses at node {u} are not a probability distribution: {reason}")

    def crosses(t):
        return len(t) > len(u) and t[: len(u)] == u

    def outcome(call, *args):
        try:
            call(*args)
        except NotADistribution as error:
            return type(error), str(error)
        return None

    for t in rng.sample(nodes, min(6, len(nodes))):
        assert outcome(node_mass, fam, t) == (expected if crosses(t) else None)
        assert outcome(node_interval, fam, t) == (expected if crosses(t) else None)
    n = rng.randint(0, min(4, fam.tree.depth_budget))  # a table's rule tree is as deep as the table
    front = sorted(t for t in nodes if len(t) == n) if kind != "table" else sorted(enumerate_front(tree, n).nodes)
    selected = frozenset(rng.sample(front, rng.randint(0, len(front))))
    crossed = any(map(crosses, selected))
    assert outcome(clopen_mass, fam, ClopenSelection(n, selected)) == (expected if crossed else None)
    if kind == "every-node":  # descent reads the root's row only when it takes a step
        assert outcome(locate_branch, fam, F(1, 3), n) == (expected if n else None)
