import random
import time
from fractions import Fraction as F
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    CyclicInput,
    DepthBudgetExceeded,
    EdgeFamily,
    ExplicitTree,
    FiniteDist,
    Front,
    FrontVariable,
    GeneratedTree,
    InfiniteLevel,
    MultipleRoots,
    NotAFront,
    UnknownNode,
    below_mass,
    canonicalize,
    classify,
    complete_binary_tree,
    enumerate_front,
    expect,
    front_mass,
    induced_measure,
    is_front,
    level,
    relative_expect,
    tower_check,
    tower_check_fronts,
    uniform_binary,
    geometric_omega,
)
from ptree import trees
from ptree.errors import InvalidAdjacency
from ptree.paths import OMEGA

from corpus import random_tree


def test_canonicalize_two_leaves():
    tree, labels = canonicalize({"root": ["L", "R"]})
    assert set(tree.nodes()) == {(), (0,), (1,)}
    assert labels == {"root": (), "L": (0,), "R": (1,)}


def test_canonicalize_figure_tree_is_complete_binary_height_2():
    adjacency = {
        "w": ["w10", "w11"],
        "w10": ["w20", "w21"],
        "w11": ["w22", "w23"],
    }
    tree, labels = canonicalize(adjacency)
    assert tree == complete_binary_tree(2)
    assert labels["w22"] == (1, 0)


def test_canonicalize_single_node():
    tree, labels = canonicalize({"only": []})
    assert set(tree.nodes()) == {()}
    assert tree.height == 0
    assert labels == {"only": ()}


def test_canonicalize_label_invariance():
    rng = random.Random(7)
    for _ in range(20):
        t = random_tree(rng, max_depth=3, max_arity=3)
        adjacency = {n: [n + (k,) for k in t.child_indices(n)] for n in t.nodes()}
        renamed = {str(n): [str(c) for c in kids] for n, kids in adjacency.items()}
        t1, _ = canonicalize(adjacency)
        t2, _ = canonicalize(renamed)
        assert t1 == t2 == t


def test_canonicalize_errors():
    with pytest.raises(MultipleRoots):
        canonicalize({"a": [], "b": []})
    with pytest.raises(CyclicInput):
        canonicalize({"a": ["b"], "b": ["a"]})
    with pytest.raises(CyclicInput):
        canonicalize({"a": [], "b": ["c"], "c": ["b"]})
    with pytest.raises(InvalidAdjacency):
        canonicalize({"a": ["c"], "b": ["c"]})


def test_level_complete_binary():
    tree = complete_binary_tree(3)
    assert level(tree, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    assert level(tree, 0) == {()}
    assert level(tree, 4) == frozenset()


def test_level_root_only_above_height():
    tree, _ = canonicalize({"r": []})
    assert level(tree, 1) == frozenset()


def test_level_generated_full_sequence_tree():
    fam = uniform_binary(depth_budget=8)
    assert level(fam.tree, 2) == {(0, 0), (0, 1), (1, 0), (1, 1)}
    with pytest.raises(DepthBudgetExceeded):
        level(fam.tree, 9)


def test_level_infinite_arity_fails():
    fam = geometric_omega(depth_budget=8)
    with pytest.raises(InfiniteLevel):
        level(fam.tree, 1)
    assert level(fam.tree, 0) == {()}


def test_level_disjoint_union_of_successors():
    rng = random.Random(11)
    for _ in range(25):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        for n in range(tree.height):
            expected = set()
            for t in level(tree, n):
                kids = tree.children(t)
                assert expected.isdisjoint(kids)
                expected.update(kids)
            assert frozenset(expected) == level(tree, n + 1)


def test_enumerate_front_well_pruned_equals_level():
    tree = complete_binary_tree(3)
    for n in range(4):
        assert enumerate_front(tree, n).nodes == level(tree, n)


def test_enumerate_front_with_short_maximal_node():
    tree = ExplicitTree({(): (0, 1), (0,): (), (1,): (0, 1), (1, 0): (), (1, 1): ()})
    front = enumerate_front(tree, 2)
    assert front.nodes == {(0,), (1, 0), (1, 1)}


def test_enumerate_front_root():
    tree = complete_binary_tree(2)
    assert enumerate_front(tree, 0).nodes == {()}


def test_enumerate_front_always_is_front():
    rng = random.Random(13)
    for _ in range(30):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        for n in range(tree.height + 2):
            front = enumerate_front(tree, n)
            assert is_front(tree, front.nodes)


def test_is_front_examples():
    tree = complete_binary_tree(2)
    assert is_front(tree, {(0,), (1, 0), (1, 1)})
    assert not is_front(tree, {(0,), (0, 0)})
    assert not is_front(tree, {(0,)})
    with pytest.raises(UnknownNode):
        is_front(tree, {(5,)})


def test_is_front_deeper_than_the_recursion_limit():
    # a comb: (1,), (0, 1), (0, 0, 1), ... and the spine's end, 1,500 deep
    depth = 1500
    comb = {(0,) * i + (1,) for i in range(depth)} | {(0,) * depth}
    children = {(0,) * i: (0, 1) for i in range(depth)}
    children.update({t: () for t in comb})
    for tree in (ExplicitTree(children), uniform_binary(2000).tree):
        assert is_front(tree, comb)
        assert not is_front(tree, comb - {(0,) * 700 + (1,)})


def test_comb_front_on_a_rule_tree_checks_each_member_past_its_shared_prefix():
    # a rule tree has no cheaper membership test than calling the rule, so
    # each member may cost only the rule calls past the member before it
    depth = 1500
    comb = {(0,) * i + (1,) for i in range(depth)} | {(0,) * depth}
    tree = GeneratedTree(lambda t: 2, depth + 5)
    start = time.perf_counter()
    assert is_front(tree, comb)
    assert time.perf_counter() - start < 1
    assert not is_front(tree, comb - {(0,) * 700 + (1,)})
    with pytest.raises(UnknownNode):
        is_front(tree, comb | {(0,) * 700 + (2,)})


@settings(max_examples=60, deadline=None)
@given(st.sets(st.lists(st.integers(-1, 2), max_size=5).map(tuple), max_size=12))
def test_is_front_on_a_rule_tree_agrees_with_the_shared_arity(nodes):
    # the rule tree answers from prefix-by-prefix rule calls, the shared
    # arity from the whole path, so the sorted pass must decide alike
    def outcome(tree):
        try:
            return is_front(tree, nodes)
        except (UnknownNode, DepthBudgetExceeded) as exc:
            return type(exc), str(exc)

    assert outcome(GeneratedTree(lambda t: 2, 4)) == outcome(GeneratedTree(2, 4))


def test_invalid_front_raises_on_every_call():
    fam = EdgeFamily.from_table({(): ["1/2", "1/2"]})
    measure = induced_measure(fam)
    front = Front(fam.tree, frozenset({(0,)}))  # misses the branch through (1,)
    X = FrontVariable(front, {(0,): F(1)})
    valid = enumerate_front(fam.tree, 1)
    calls = [
        lambda: front_mass(measure, front),
        lambda: below_mass(measure, (), front),
        lambda: expect(measure, X),
        lambda: relative_expect(fam, X, ()),
        lambda: tower_check(fam, X, 0, 1, 1),
        lambda: tower_check_fronts(fam, X, valid),
        lambda: tower_check_fronts(fam, FrontVariable(valid, {(0,): 1, (1,): 2}), front),
    ]
    for call in calls:
        for _ in range(2):
            with pytest.raises(NotAFront):
                call()


def test_front_check_runs_once_per_tree_object():
    def binary():
        return EdgeFamily.from_table({(): ["1/2", "1/2"]})

    small, twin = binary(), binary()
    wide = EdgeFamily.from_table({(): ["1/3", "1/3", "1/3"]})
    X = FrontVariable(Front(small.tree, frozenset({(0,), (1,)})), {(0,): F(1), (1,): F(3)})
    with mock.patch.object(trees, "is_front", wraps=is_front) as spy:
        for _ in range(3):
            assert relative_expect(small, X, ()) == 2
        assert spy.call_count == 1
        # valid for `small`, but `wide` has a root child the front misses
        for _ in range(2):
            with pytest.raises(NotAFront):
                relative_expect(wide, X, ())
        assert spy.call_count == 3
        # an equal tree that is another object is checked again, once
        assert twin.tree == small.tree and twin.tree is not small.tree
        assert relative_expect(twin, X, ()) == 2
        assert relative_expect(twin, X, (1,)) == 3
        assert spy.call_count == 4


def test_is_front_on_omega_tree():
    fam = geometric_omega(depth_budget=8)
    assert is_front(fam.tree, {()})
    assert not is_front(fam.tree, {(0,), (1,)})


def test_level_front_fact_for_non_well_pruned():
    # maximal node at depth 1 inside a height-3 tree
    tree = ExplicitTree(
        {
            (): (0, 1),
            (0,): (),
            (1,): (0,),
            (1, 0): (0, 1),
            (1, 0, 0): (),
            (1, 0, 1): (),
        }
    )
    n0 = 1  # least level holding a maximal node
    for n in range(tree.height + 1):
        assert is_front(tree, level(tree, n)) == (n <= n0)


def test_classify_explicit():
    tree = complete_binary_tree(2)
    report = classify(tree)
    assert report.exact
    assert report.well_pruned and report.finitely_branching
    assert not report.perfect  # finite trees never split above their leaves
    assert report.height_or_budget == 2

    lopsided = ExplicitTree({(): (0, 1), (0,): (), (1,): (0,), (1, 0): (0,), (1, 0, 0): ()})
    assert not classify(lopsided).well_pruned

    path = ExplicitTree.from_arities({(): 1, (0,): 1})
    assert not classify(path).perfect


def test_classify_generated_profiles():
    report = classify(uniform_binary(16).tree)
    assert report.exact
    assert report.well_pruned and report.finitely_branching and report.perfect

    report = classify(geometric_omega(16).tree)
    assert report.well_pruned and report.perfect
    assert not report.finitely_branching


def test_classify_generated_without_profile():
    tree = GeneratedTree(lambda t: 2, depth_budget=16)
    report = classify(tree)
    assert not report.exact
    assert report.well_pruned and report.finitely_branching and report.perfect

    stunted = GeneratedTree(lambda t: 0 if t == (0,) else 2, depth_budget=16)
    report = classify(stunted)
    assert not report.well_pruned and not report.perfect


@pytest.mark.parametrize("arity", [0, 1, 2, 3, OMEGA], ids=["0", "1", "2", "3", "omega"])
def test_classify_shared_arity_is_exact_and_agrees_with_exploring(arity):
    report = classify(GeneratedTree(arity, depth_budget=6))
    assert report.exact and report.height_or_budget == 6
    for d in range(5):
        explored = classify(GeneratedTree(lambda t: arity, depth_budget=6), explore_depth=d)
        assert not explored.exact
        flags = (explored.well_pruned, explored.finitely_branching, explored.perfect)
        assert (report.well_pruned, report.finitely_branching, report.perfect) == flags


def test_generated_tree_rejects_a_negative_arity():
    with pytest.raises(ValueError, match="negative arity"):
        GeneratedTree(-1, depth_budget=8)
    with pytest.raises(ValueError, match="negative arity"):
        GeneratedTree(lambda t: -1, depth_budget=8).arity(())


def test_generated_tree_rejects_negative_child_indices():
    for tree in (uniform_binary(4).tree, geometric_omega(4).tree, GeneratedTree(lambda t: 2, 4)):
        assert not tree.contains((0, -1))
        with pytest.raises(UnknownNode):
            tree.require((-1,))


def test_generated_tree_membership_and_budget():
    tree = uniform_binary(4).tree
    assert tree.contains((0, 1, 0))
    assert not tree.contains((2,))
    with pytest.raises(DepthBudgetExceeded):
        tree.contains((0,) * 5)
    assert tree.arity(()) == 2


def test_omega_arity_marker():
    tree = geometric_omega(4).tree
    assert tree.arity(()) is OMEGA
    with pytest.raises(InfiniteLevel):
        tree.children(())


def test_explicit_tree_validation():
    with pytest.raises(ValueError):
        ExplicitTree({(0,): ()})  # missing root
    with pytest.raises(ValueError):
        ExplicitTree({(): (0,)})  # declared child missing
    with pytest.raises(ValueError):
        ExplicitTree({(): (), (3,): ()})  # unattached node


def test_a_front_iterates_and_counts_its_members():
    front = enumerate_front(complete_binary_tree(2), 2)
    assert set(front) == front.nodes == {(0, 0), (0, 1), (1, 0), (1, 1)} and len(front) == 4


def test_equal_explicit_trees_hash_equal_and_trees_name_their_shape():
    a = complete_binary_tree(2)
    b = ExplicitTree({(): (0, 1), (0,): (0, 1), (1,): (0, 1), **{(i, j): () for i in (0, 1) for j in (0, 1)}})
    assert a == b and hash(a) == hash(b)
    assert repr(a) == "ExplicitTree(7 nodes, height 2)"
    assert repr(GeneratedTree(2, 5)) == "GeneratedTree(custom, budget 5)"
    assert repr(uniform_binary(4).tree) == "GeneratedTree(uniform_binary, budget 4)"
