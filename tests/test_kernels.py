"""Differential property tests for the front check and the path-walk kernel.

Every oracle here is a brute-force restatement of a definition that shares
no code with the library: pairwise prefix tests for fronts, and products of
checked `family.dist` lookups for weights, masses, cells and relative
expectations. Results must be identical fractions.
"""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    EdgeFamily,
    FiniteDist,
    Front,
    GeneratedTree,
    PreconditionFrontMismatch,
    UnknownNode,
    complete_binary_tree,
    enumerate_front,
    geometric_omega,
    is_front,
    level,
    node_interval,
    node_mass,
    relative_expect,
    relative_expect_front,
    tower_check,
    tower_check_fronts,
    uniform_binary,
)
from ptree.measures import _walk
from ptree.paths import is_prefix

from corpus import random_family, random_tree, random_variable
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


def brute_weight(family, start, end) -> F:
    w = F(1)
    for i in range(len(start), len(end)):
        w *= family.dist(end[:i]).mass(end[i])
    return w


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
    assert _walk(fam, ends, start=start) == {s: brute_weight(fam, start, s) for s in ends}


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
