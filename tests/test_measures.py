import gc
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    DepthBudgetExceeded,
    EdgeFamily,
    ExplicitTree,
    FiniteDist,
    Front,
    GeneralPair,
    GeneratedTree,
    Geometric,
    InductiveMeasure,
    InfiniteLevel,
    MalformedPair,
    NodeNotBelowFront,
    NotADistribution,
    NotAFront,
    NullNodeSet,
    UnknownNode,
    below_mass,
    classify,
    complete_binary_tree,
    dirac,
    enumerate_front,
    family_from_pair,
    front_mass,
    geometric_omega,
    induced_measure,
    locate_branch,
    node_mass,
    pair_from_family,
    positive_equivalent,
    positive_equivalent_measures,
    positive_part,
    sample_branches,
    split_measure,
    uniform_binary,
    validate_edge_family,
)

from ptree.paths import OMEGA

from corpus import random_dist, random_family, random_tree, rule_family


def uniform_height(h):
    tree = complete_binary_tree(h)
    half = F(1, 2)
    dists = {t: FiniteDist([half, half]) for t in tree.nodes() if not tree.is_maximal(t)}
    return EdgeFamily(tree, dists)


def figure_family():
    # complete binary of height 2 with distinct edge probabilities
    return EdgeFamily.from_table(
        {
            (): ["2/3", "1/3"],
            (0,): ["1/4", "3/4"],
            (1,): ["1/5", "4/5"],
        }
    )


def test_validate_uniform_ok():
    report = validate_edge_family(uniform_height(3))
    assert report.ok and not report.violations


def test_validate_bad_sum_reports_node():
    fam = rule_family({(): FiniteDist([F(1, 3), F(1, 3)])})
    report = validate_edge_family(fam)
    assert not report.ok
    assert report.violations[0][0] == ()


def test_validate_geometric_closed_form_ok():
    report = validate_edge_family(geometric_omega(8))
    assert report.ok


def test_validate_reads_no_shared_row():
    # the constructor checked the row; walking the 2^32 nodes of uniform_binary up to depth 32 used to take hours
    start = time.perf_counter()
    report = validate_edge_family(uniform_binary(), 32)
    assert (report.ok, report.violations, report.checked_depth) == (True, (), 32)
    assert time.perf_counter() - start < 0.5
    assert validate_edge_family(uniform_binary(8), 20).checked_depth == 8


def test_node_mass_uniform():
    fam = uniform_binary(8)
    for t in [(0, 0, 0), (1, 0, 1), (1, 1, 1)]:
        assert node_mass(fam, t) == F(1, 8)
    assert node_mass(fam, ()) == 1


def test_node_mass_geometric_example():
    fam = geometric_omega(8)
    assert node_mass(fam, (1, 0)) == F(1, 8)
    # general closed form: 2^-|t| * 2^-sum(t)
    for t in [(0,), (2, 1), (3, 0, 1)]:
        assert node_mass(fam, t) == F(1, 2 ** (len(t) + sum(t)))


def test_node_mass_unknown_node():
    fam = uniform_height(2)
    with pytest.raises(UnknownNode):
        node_mass(fam, (0, 1, 1))


def test_induced_measure_uniform_depth2():
    m = induced_measure(uniform_height(2))
    assert m.mass(()) == 1
    assert m.mass((0,)) == m.mass((1,)) == F(1, 2)
    for t in [(0, 0), (0, 1), (1, 0), (1, 1)]:
        assert m.mass(t) == F(1, 4)


def test_induced_measure_figure_tree_leaf_masses():
    fam = figure_family()
    m = induced_measure(fam)
    assert m.mass((0, 0)) == F(2, 3) * F(1, 4)
    assert m.mass((1, 1)) == F(1, 3) * F(4, 5)
    assert sum(m.mass(t) for t in fam.tree.level_nodes(2)) == 1


def test_induced_measure_infinite_level():
    with pytest.raises(InfiniteLevel):
        induced_measure(dirac(5, 8), depth=2)


@pytest.mark.parametrize(
    "table, node",
    [
        ({(): ["1/3", "1/3"]}, ()),
        ({(): ["3/2", "-1/2"]}, ()),
        # a row below a zero-mass node passed the inductive law (0 = 0)
        ({(): ["1", "0"], (1,): ["1/3", "1/3"]}, (1,)),
    ],
    ids=["short-sum", "negative-mass", "below-null-node"],
)
def test_induced_measure_rejects_rows_that_are_not_distributions(table, node):
    with pytest.raises(NotADistribution, match=f"node {re.escape(str(node))}"):
        induced_measure(EdgeFamily.from_table(table))


def test_node_mass_dirac_point_mass_everywhere():
    fam = dirac(5, 8)
    assert node_mass(fam, (5, 5)) == 1
    for t in [(3,), (5, 4), (0, 5), (5, 5, 6)]:
        assert node_mass(fam, t) == 0


def test_inductive_law_everywhere_random():
    rng = random.Random(23)
    for _ in range(40):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        fam = random_family(rng, tree, allow_zero=True)
        m = induced_measure(fam)
        for t in tree.nodes():
            if not tree.is_maximal(t):
                assert sum(m.mass(c) for c in tree.children(t)) == m.mass(t)


def test_inductive_measure_validation_rejects_bad_law():
    tree = complete_binary_tree(1)
    with pytest.raises(ValueError):
        InductiveMeasure(tree, {(): 1, (0,): F(1, 2), (1,): F(1, 3)})
    with pytest.raises(ValueError):
        InductiveMeasure(tree, {(): F(1, 2), (0,): F(1, 4), (1,): F(1, 4)})


def test_inductive_measure_rejects_masses_beyond_its_depth():
    # the law is checked only above the depth, so deeper masses are refused,
    # not adopted unchecked: here the children of (0,) sum to 2/3
    masses = {(): 1, (0,): F(1, 2), (1,): F(1, 2), (0, 0): F(1, 3), (0, 1): F(1, 3), (1, 0): F(1, 2), (1, 1): 0}
    with pytest.raises(ValueError, match="beyond the materialized depth 1"):
        InductiveMeasure(complete_binary_tree(2), masses, depth=1)
    shallow = {t: m for t, m in masses.items() if len(t) <= 1}
    assert InductiveMeasure(complete_binary_tree(2), shallow, depth=1).mass((0,)) == F(1, 2)


def test_front_mass_is_one_and_below_mass():
    fam = uniform_height(3)
    m = induced_measure(fam)
    front = enumerate_front(fam.tree, 3)
    assert front_mass(m, front) == 1
    assert below_mass(m, (0,), front) == F(1, 2)
    assert below_mass(m, (0, 1), front) == F(1, 4)
    with pytest.raises(NodeNotBelowFront):
        below_mass(m, (0, 0, 0), Front(fam.tree, frozenset({()})))


def test_front_mass_past_the_materialized_depth_raises():
    fam = uniform_binary(4)
    shallow = induced_measure(fam, 1)
    front = enumerate_front(fam.tree, 2)
    with pytest.raises(DepthBudgetExceeded, match="beyond the materialized depth 1"):
        front_mass(shallow, front)
    with pytest.raises(DepthBudgetExceeded, match="beyond the materialized depth 1"):
        below_mass(shallow, (1,), front)


def test_front_mass_rejects_non_front():
    fam = uniform_height(2)
    m = induced_measure(fam)
    with pytest.raises(NotAFront):
        front_mass(m, Front(fam.tree, frozenset({(0,)})))


def test_front_mass_custom_front():
    fam = uniform_height(2)
    m = induced_measure(fam)
    front = Front(fam.tree, frozenset({(0,), (1, 0), (1, 1)}))
    assert front_mass(m, front) == F(1, 2) + F(1, 4) + F(1, 4)


def test_positive_part_strictly_positive_is_identity():
    fam = figure_family()
    pos, null = positive_part(fam)
    assert pos == fam
    assert len(null) == 0


def test_positive_part_zero_edge_prunes_subtree():
    fam = EdgeFamily.from_table(
        {
            (): ["1", "0"],
            (0,): ["1/2", "1/2"],
            (1,): ["1/2", "1/2"],
        }
    )
    pos, null = positive_part(fam)
    assert set(pos.tree.nodes()) == {(), (0,), (0, 0), (0, 1)}
    assert set(null) == {(1,), (1, 0), (1, 1)}
    # restriction keeps original child indices and masses
    assert pos.dist(()).indices == (0,)
    assert pos.dist(()).mass(0) == 1


def test_positive_part_dirac_generated():
    fam = dirac(5, depth_budget=16)
    pos, null = positive_part(fam, depth=2)
    assert set(pos.tree.nodes()) == {(), (5,), (5, 5)}
    assert (3,) in null
    assert (5,) not in null
    with pytest.raises(InfiniteLevel):
        len(null)


def test_positive_part_everywhere_positive_generated():
    fam = geometric_omega(8)
    pos, null = positive_part(fam)
    assert pos is fam
    assert (2, 2) not in null


def test_positive_part_of_a_shared_row_with_a_zero_edge_is_materialized():
    fam = EdgeFamily(GeneratedTree(2, depth_budget=8), FiniteDist(["1", "0"]))
    pos, null = positive_part(fam, depth=3)
    assert pos is not fam
    assert set(pos.tree.nodes()) == {(), (0,), (0, 0), (0, 0, 0)}
    assert (0, 1) in null and (0, 0) not in null


def positive_part_from_the_split_measure(fam):
    """The positive part of an explicit family, split off its induced measure."""
    positive, null = split_measure(induced_measure(fam))
    sub = positive.tree
    rows = {
        t: FiniteDist({k: fam.dist(t).mass(k) for k in sub.child_indices(t)})
        for t in sub.nodes()
        if not sub.is_maximal(t)
    }
    return EdgeFamily(sub, rows), null


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_positive_part_of_an_explicit_family_matches_its_split_measure(rng):
    fam = random_family(rng, random_tree(rng, max_depth=4, max_arity=4), allow_zero=True)
    pos, null = positive_part(fam)
    expected, expected_null = positive_part_from_the_split_measure(fam)
    assert pos == expected
    assert set(null) == expected_null
    assert isinstance(null, frozenset)


def test_an_explicit_null_set_answers_a_non_node_with_false():
    fam = EdgeFamily.from_table({(): ["1", "0"], (1,): ["1/2", "1/2"]})
    null = positive_part(fam)[1]
    assert null == {(1,), (1, 0), (1, 1)}
    assert (7, 7) not in null and (0, 0) not in null  # neither is a node; no walk is made


def test_a_generated_null_set_answers_membership_only():
    fam = dirac(2, depth_budget=6)
    null = positive_part(fam, depth=2)[1]
    assert isinstance(null, NullNodeSet) and repr(null) == "NullNodeSet(<generated>)"
    assert (0,) in null and (2, 2) not in null and (2, 2, 1) in null
    with pytest.raises(UnknownNode):
        (-1,) in null
    for refused in (len, iter):
        with pytest.raises(InfiniteLevel, match="not enumerable"):
            refused(null)
    assert null == positive_part(dirac(2, depth_budget=6), depth=1)[1]  # equal families, equal sets
    assert null != positive_part(dirac(3, depth_budget=6), depth=2)[1]
    assert null != set() and null != frozenset()
    assert positive_part(geometric_omega(8))[1] == NullNodeSet(geometric_omega(8))


@pytest.mark.parametrize(
    "tree, row",
    [
        (GeneratedTree(2, 8), FiniteDist(["1/3", "1/3", "1/3"])),
        (GeneratedTree(3, 8), FiniteDist({0: "1/2", 2: "1/2"})),
        (GeneratedTree(OMEGA, 8), FiniteDist(["1/2", "1/2"])),
        (GeneratedTree(2, 8), Geometric("1/2")),
        (GeneratedTree(0, 8), FiniteDist([])),
        (GeneratedTree(lambda t: 2, 8), FiniteDist(["1/2", "1/2"])),
        (complete_binary_tree(2), FiniteDist(["1/2", "1/2"])),
    ],
    ids=["short-row", "sparse-row", "finite-row-on-omega", "geometric-on-binary", "arity-0", "rule-tree", "explicit"],
)
def test_a_shared_row_must_match_the_shared_arity(tree, row):
    with pytest.raises(ValueError, match="shared row"):
        EdgeFamily(tree, row)


def two_children_on_a_unary_tree():
    # a rule row over children 0 and 1 on a tree where every node has one child
    return EdgeFamily(GeneratedTree(lambda t: 1, 5), lambda t: FiniteDist(["1/2", "1/2"]))


def test_validation_reports_a_rule_row_that_is_not_over_the_node_children():
    report = validate_edge_family(two_children_on_a_unary_tree(), 3)
    assert not report.ok
    assert [t for t, _ in report.violations] == [(), (0,), (0, 0), (0, 0, 0)]
    assert "not over the node's children 0..0" in report.violations[0][1]
    omega_rows = EdgeFamily(GeneratedTree(lambda t: 2, 5), lambda t: Geometric("1/2"))
    assert [t for t, _ in validate_edge_family(omega_rows, 1).violations] == [(), (1,), (0,)]
    sparse_rows = EdgeFamily(GeneratedTree(lambda t: 2, 5), lambda t: FiniteDist({0: "1/2", 2: "1/2"}))
    assert [t for t, _ in validate_edge_family(sparse_rows, 1).violations] == [(), (1,), (0,)]


def test_positive_part_refuses_a_rule_row_with_foreign_children():
    with pytest.raises(NotADistribution, match=r"at node \(\), the row .* is not over the node's children 0..0"):
        positive_part(two_children_on_a_unary_tree(), 3)


@pytest.mark.parametrize(
    "query",
    [
        lambda fam: sample_branches(fam, 1, 4, 3),
        lambda fam: locate_branch(fam, "1/3", 2),
        lambda fam: node_mass(fam, (0, 0)),
    ],
    ids=["sample_branches", "locate_branch", "node_mass"],
)
def test_every_walk_refuses_a_rule_row_with_foreign_children(query):
    # each used to answer from the row: draws such as (1, 1, 0) that the tree does not contain, (0, 1), 1/4
    with pytest.raises(NotADistribution, match=r"at node \(\), the row .* is not over the node's children 0..0"):
        query(two_children_on_a_unary_tree())


def test_positive_part_refuses_a_rule_row_that_is_not_a_distribution():
    # it used to return a truncated family built from the row's positive entries
    fam = EdgeFamily(GeneratedTree(2, 5), lambda t: FiniteDist(["1/3", "1/3"]))
    with pytest.raises(NotADistribution, match=r"the masses at node \(\) are not a probability distribution"):
        positive_part(fam, 2)


def test_shared_row_families_compare_by_row_and_budget():
    half = FiniteDist(["1/2", "1/2"])
    a = EdgeFamily(GeneratedTree(2, 8), FiniteDist(["1/2", "1/2"]))
    b = EdgeFamily(GeneratedTree(2, 8), FiniteDist(["1/2", "1/2"]))
    assert a == b and hash(a) == hash(b)
    assert a == uniform_binary(8) and hash(a) == hash(uniform_binary(8))
    assert a != EdgeFamily(GeneratedTree(2, 9), half)
    assert a != EdgeFamily(GeneratedTree(2, 8), FiniteDist(["1/3", "2/3"]))
    assert EdgeFamily(GeneratedTree(OMEGA, 8), Geometric("1/3")) == geometric_omega(8, F(1, 3))
    # a rule is compared by identity: two rules that agree cannot be told apart
    rule = EdgeFamily(GeneratedTree(2, 8), lambda t: half)
    assert rule == rule and rule != EdgeFamily(GeneratedTree(2, 8), lambda t: half) and rule != a


def test_a_shared_row_is_read_at_every_node():
    fam = EdgeFamily(GeneratedTree(OMEGA, 8), Geometric("1/3"))
    assert fam.row == Geometric("1/3") and fam.dist((4, 0, 7)) is fam.row
    assert node_mass(fam, (1, 0)) == F(2, 3) * F(1, 3) * F(2, 3)
    assert uniform_binary(4).row == FiniteDist(["1/2", "1/2"])
    assert EdgeFamily.from_table({(): ["1/2", "1/2"]}).row is None


def test_only_a_shared_geometric_row_builds_a_head_table(monkeypatch):
    built = []
    build_head = Geometric._build_head
    monkeypatch.setattr(Geometric, "_build_head", lambda row: built.append(row) or build_head(row))
    shared = geometric_omega(8, F(9, 10))
    assert built == [shared.row] and len(shared.row._head[2]) == 64  # 64 · bits(10) = 256
    fresh: list[Geometric] = []
    rule = EdgeFamily(GeneratedTree(OMEGA, 8), lambda t: fresh.append(Geometric("9/10")) or fresh[-1])
    assert sample_branches(rule, 3, 10, 8) == sample_branches(shared, 3, 10, 8)
    assert node_mass(rule, (70, 1, 5)) == node_mass(shared, (70, 1, 5))
    assert len(built) == 1 and len(fresh) >= 80 and not any(row._head[2] for row in fresh)


def test_edge_prob_refuses_a_row_that_is_not_a_distribution():
    fam = rule_family({(): ["1/3", "1/3"]})
    with pytest.raises(NotADistribution) as info:
        fam.edge_prob((), 0)
    with pytest.raises(NotADistribution) as walked:
        node_mass(fam, (0,))
    assert str(info.value) == str(walked.value)
    assert fam.dist(()).masses == (F(1, 3), F(1, 3))  # the raw row stays readable
    assert EdgeFamily.from_table({(): ["1/3", "2/3"]}).edge_prob((), 1) == F(2, 3)
    with pytest.raises(UnknownNode):
        fam.edge_prob((0,), 0)


@pytest.mark.parametrize(
    "fam, t, k",
    [
        (geometric_omega(8), (), -1),
        (dirac(2, 8), (), -1),
        (uniform_binary(8), (), 5),
        (uniform_binary(8), (1,), -1),
        (EdgeFamily.from_table({(): ["1/2", "1/2"]}), (), 2),
        (EdgeFamily(GeneratedTree(lambda t: 3, 8), lambda t: FiniteDist(["1/3"] * 3)), (0,), 3),
    ],
    ids=["geometric-negative", "dirac-negative", "binary-past-arity", "binary-negative", "table", "rule"],
)
def test_edge_prob_refuses_a_child_index_the_node_does_not_have(fam, t, k):
    with pytest.raises(UnknownNode, match=re.escape(f"no node {t + (k,)} in tree")):
        fam.edge_prob(t, k)


def test_edge_prob_does_not_check_the_child_against_the_depth_budget():
    assert uniform_binary(8).edge_prob((0,) * 8, 1) == F(1, 2)
    assert dirac(2, 8).edge_prob((), 3) == 0 and dirac(2, 8).edge_prob((), 2) == 1


def test_edge_prob_reads_a_rule_row_once():
    # the row is read once, through the gate: reading it by path through `dist` as well would call the rule twice
    calls = []
    fam = EdgeFamily(GeneratedTree(2, 40), lambda t: calls.append(t) or FiniteDist(["1/4", "3/4"]))
    assert [fam.edge_prob((1,) * n, n % 2) for n in (0, 1, 39)] == [F(1, 4), F(3, 4), F(3, 4)]
    assert calls == [(), (1,), (1,) * 39]


def test_a_rule_family_on_an_explicit_tree_is_refused():
    # it used to be built, and then positive_part, validate_edge_family and pair_from_family failed on it
    with pytest.raises(ValueError, match="distribution rules require a generated tree"):
        EdgeFamily(complete_binary_tree(2), lambda t: FiniteDist(["1/2", "1/2"]))
    rule = EdgeFamily(GeneratedTree(2, 4), lambda t: FiniteDist(["1/2", "1/2"]))
    for fam in (rule, uniform_binary(4), figure_family()):
        assert fam.is_explicit == fam.tree.is_explicit


def test_positive_part_idempotent():
    rng = random.Random(5)
    for _ in range(20):
        tree = random_tree(rng, max_depth=3, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        pos, _ = positive_part(fam)
        pos2, null2 = positive_part(pos)
        assert pos2 == pos
        assert len(null2) == 0


def test_pair_of_positive_family_has_no_fillers():
    pair = pair_from_family(uniform_height(2))
    assert pair.fillers == {}
    assert set(pair.positive.tree.nodes()) == set(complete_binary_tree(2).nodes())


def test_pair_round_trip_explicit():
    rng = random.Random(17)
    for _ in range(30):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        pair = pair_from_family(fam)
        assert family_from_pair(pair) == fam
        # and the inverse composition
        pair2 = pair_from_family(family_from_pair(pair))
        assert pair2 == pair


def test_pair_reproduces_measure():
    rng = random.Random(19)
    for _ in range(30):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        pair = pair_from_family(fam)
        rebuilt = induced_measure(family_from_pair(pair))
        for t in tree.nodes():
            assert rebuilt.mass(t) == pair.induced_mass(t)


def test_delta_quotient_example():
    # masses 1; 2/3, 1/3 produce those edge probabilities back
    tree = complete_binary_tree(1)
    positive = InductiveMeasure(tree, {(): 1, (0,): F(2, 3), (1,): F(1, 3)})
    pair = GeneralPair(tree, positive, {})
    fam = family_from_pair(pair)
    assert fam.dist(()).masses == (F(2, 3), F(1, 3))


def test_delta_filler_example():
    # zero mass below (1,): the filler dictates the family there
    tree = complete_binary_tree(2)
    pos_tree = ExplicitTree({(): (0,), (0,): (0, 1), (0, 0): (), (0, 1): ()})
    positive = InductiveMeasure(pos_tree, {(): 1, (0,): 1, (0, 0): F(1, 2), (0, 1): F(1, 2)})
    fillers = {(1,): FiniteDist([F(1, 4), F(3, 4)])}
    pair = GeneralPair(tree, positive, fillers)
    fam = family_from_pair(pair)
    assert fam.dist((1,)).masses == (F(1, 4), F(3, 4))
    assert fam.dist(()).masses == (F(1), F(0))
    m = induced_measure(fam)
    for t in tree.nodes():
        assert m.mass(t) == pair.induced_mass(t)


def test_dirac_like_explicit_pair_round_trip():
    rows = {(): [0, 0, 0, 0, 0, "1"]}
    for k in range(6):
        rows[(k,)] = ([0] * 6)
        rows[(k,)][5] = "1"
    fam = EdgeFamily.from_table(rows)
    pair = pair_from_family(fam)
    assert set(pair.positive.tree.nodes()) == {(), (5,), (5, 5)}
    assert family_from_pair(pair) == fam
    # fillers carry the original sub-distributions verbatim
    assert pair.fillers[(0,)] == fam.dist((0,))


def test_surjectivity_witness_with_arbitrary_fillers():
    # any filler choice below the null region reproduces the same measure
    rng = random.Random(29)
    from corpus import random_dist
    from ptree import split_measure

    for _ in range(20):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        measure = induced_measure(fam)
        positive, null = split_measure(measure)
        fillers = {
            t: random_dist(rng, len(tree.child_indices(t)))
            for t in null
            if not tree.is_maximal(t)
        }
        pair = GeneralPair(tree, positive, fillers)
        rebuilt = induced_measure(family_from_pair(pair))
        assert rebuilt == measure


def test_malformed_pair_rejected():
    tree = complete_binary_tree(1)
    good = InductiveMeasure(tree, {(): 1, (0,): F(1, 2), (1,): F(1, 2)})
    with pytest.raises(MalformedPair):
        GeneralPair(tree, good, {(): FiniteDist([F(1, 2), F(1, 2)])})  # filler for a positive node
    host = complete_binary_tree(2)
    pos_tree = ExplicitTree({(): (0,), (0,): (0, 1), (0, 0): (), (0, 1): ()})
    positive = InductiveMeasure(pos_tree, {(): 1, (0,): 1, (0, 0): F(1, 2), (0, 1): F(1, 2)})
    with pytest.raises(MalformedPair):
        GeneralPair(host, positive, {})  # missing filler at (1,)
    with pytest.raises(MalformedPair):
        GeneralPair(host, positive, {(1,): FiniteDist([F(1, 4), F(1, 4)])})  # bad sum


_HALVES = InductiveMeasure(complete_binary_tree(1), {(): 1, (0,): F(1, 2), (1,): F(1, 2)})
_LEFT_HALVES = InductiveMeasure(
    ExplicitTree({(): (0,), (0,): (0, 1), (0, 0): (), (0, 1): ()}), {(): 1, (0,): 1, (0, 0): F(1, 2), (0, 1): F(1, 2)}
)


@pytest.mark.parametrize(
    "host, positive, fillers, message",
    [
        (GeneratedTree(2, 3), _HALVES, {}, "pairs are supported over explicit host trees only"),
        (complete_binary_tree(1), induced_measure(uniform_binary(3), 1), {}, "the positive part must live on an explicit tree"),
        (ExplicitTree({(): (0,), (0,): ()}), _HALVES, {}, r"positive node \(1,\) is not in the host tree"),
        (complete_binary_tree(2), _LEFT_HALVES, {(1,): Geometric(F(1, 2))}, r"filler at \(1,\) must be a finite distribution"),
        (
            complete_binary_tree(1),
            InductiveMeasure(complete_binary_tree(1), {(): 1, (0,): 1, (1,): 0}),
            {},
            r"positive part carries mass 0 at \(1,\)",
        ),
    ],
    ids=["generated-host", "generated-positive", "positive-node-off-the-host", "closed-form-filler", "zero-positive-mass"],
)
def test_general_pair_refusals_name_what_is_wrong(host, positive, fillers, message):
    with pytest.raises(MalformedPair, match=f"^{message}$"):
        GeneralPair(host, positive, fillers)


def test_splitting_generated_input_is_refused():
    with pytest.raises(InfiniteLevel, match="^splitting a measure requires an explicit tree$"):
        split_measure(induced_measure(uniform_binary(3), 2))
    with pytest.raises(InfiniteLevel, match="^splitting a generated family into a pair is not supported$"):
        pair_from_family(uniform_binary(3))


def test_a_positive_leaf_interior_in_the_host_is_refused():
    # the root's mass quotients sum to 0: no family has this pair's masses
    host = ExplicitTree({(): (0, 1), (0,): (), (1,): ()})
    root_only = InductiveMeasure(ExplicitTree({(): ()}), {(): 1})
    with pytest.raises(MalformedPair, match=r"row at positive node \(\) is not a distribution: masses sum to 0"):
        GeneralPair(host, root_only, {})


def family_rows_of_checked_pair(host, positive, fillers):
    """Oracle: the pair check as a structural pass, then the rows rebuilt in a second loop."""
    pos_tree = positive.tree
    for t in pos_tree.nodes():
        if not host.contains(t):
            raise MalformedPair(f"positive node {t} is not in the host tree")
        if not set(pos_tree.child_indices(t)) <= set(host.child_indices(t)):
            raise MalformedPair(f"positive children of {t} are not host children")
        if positive.mass(t) <= 0:
            raise MalformedPair(f"positive part carries mass 0 at {t}")
    pos_nodes = set(pos_tree.nodes())
    if set(fillers) != {t for t in host.nodes() if t not in pos_nodes and not host.is_maximal(t)}:
        raise MalformedPair("fillers must cover exactly the non-maximal null nodes")
    for t, d in fillers.items():
        if not isinstance(d, FiniteDist) or d.indices != host.child_indices(t) or d.defect() is not None:
            raise MalformedPair(f"bad filler at {t}")
    rows = {}
    for t in host.nodes():
        if host.is_maximal(t):
            continue
        if t in pos_nodes:
            kids = host.child_indices(t)
            rows[t] = FiniteDist({k: positive._masses.get(t + (k,), 0) / positive.mass(t) for k in kids})
        else:
            rows[t] = fillers[t]
    return EdgeFamily(host, rows)


def pair_of_split_measure(fam):
    """Oracle: materialize the whole family, split its measure, take the null rows as fillers."""
    positive, null = split_measure(induced_measure(fam))
    return positive, {t: fam.dist(t) for t in null if not fam.tree.is_maximal(t)}


def bad_row(rng, row):
    """A row over the same children that is not a distribution: a wrong total or a negative entry."""
    masses = list(row.masses)
    if len(masses) > 1 and rng.random() < 0.5:
        masses[0], masses[-1] = masses[0] + F(3, 2), masses[-1] - F(3, 2)
    else:
        masses[0] += F(1, 7)
    return FiniteDist(masses)


def outcome(build):
    """(positive tree, positive masses, fillers, rebuilt family), or the type of the error raised."""
    try:
        positive, fillers, family = build()
    except Exception as exc:
        return type(exc)
    return positive.tree, positive, fillers, family


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_pair_from_family_matches_the_split_measure_route(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    fam = random_family(rng, tree, allow_zero=True)
    if rng.random() < 0.3:  # one corrupted row, in the positive part or the null region, is refused up front
        rows = fam.dist_table()
        t = rng.choice(sorted(rows))
        with pytest.raises(NotADistribution, match=f"^the masses at node {re.escape(str(t))} are not a probability"):
            EdgeFamily(tree, {**rows, t: bad_row(rng, rows[t])})

    def old():
        positive, fillers = pair_of_split_measure(fam)
        return positive, fillers, family_rows_of_checked_pair(tree, positive, fillers)

    def new():
        pair = pair_from_family(fam)
        return pair.positive, pair.fillers, family_from_pair(pair)

    expected = outcome(old)
    assert outcome(new) == expected
    assert expected[3] == fam


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False))
def test_general_pair_matches_the_structural_check(rng):
    tree = random_tree(rng, max_depth=4, max_arity=3)
    positive, fillers = pair_of_split_measure(random_family(rng, tree, allow_zero=True))
    fillers = {t: random_dist(rng, len(d.masses), allow_zero=True) for t, d in fillers.items()}
    pos_children = positive.tree.child_map()
    spoil = rng.choice(["none", "none", "row", "indices", "drop", "extra", "zero-leaf"])
    if spoil in ("row", "indices", "drop") and fillers:
        t = rng.choice(sorted(fillers))
        if spoil == "drop":
            del fillers[t]
        else:
            d = fillers[t]
            fillers[t] = bad_row(rng, d) if spoil == "row" else FiniteDist(list(d.masses) + [0])
    elif spoil == "extra":  # a filler at a positive node, or at a maximal one
        t = rng.choice(sorted(positive.tree.nodes()))
        fillers[t] = FiniteDist(["1"] * len(tree.child_indices(t)) or ["1"])
    elif spoil == "zero-leaf":  # a null child of a positive node joins the positive part with mass 0
        options = [t + (k,) for t in pos_children for k in tree.child_indices(t) if k not in pos_children[t]]
        if options:
            u = rng.choice(options)
            pos_children[u[:-1]] += (u[-1],)
            pos_children[u] = ()
            positive = InductiveMeasure(ExplicitTree(pos_children), {**dict(positive.items()), u: 0})

    def old():
        return positive, fillers, family_rows_of_checked_pair(tree, positive, fillers)

    def new():
        pair = GeneralPair(tree, positive, fillers)
        return pair.positive, pair.fillers, family_from_pair(pair)

    assert outcome(new) == outcome(old)


def test_equivalence_reflexive_and_null_insensitive():
    fam = figure_family()
    assert positive_equivalent(fam, fam)

    base = {
        (): ["1", "0"],
        (0,): ["1/2", "1/2"],
        (1,): ["1/2", "1/2"],
    }
    perturbed = dict(base)
    perturbed[(1,)] = ["1/4", "3/4"]
    a = EdgeFamily.from_table(base)
    b = EdgeFamily.from_table(perturbed)
    assert positive_equivalent(a, b)
    assert positive_equivalent_measures(induced_measure(a), induced_measure(b))


def test_equivalence_distinguishes_families():
    assert not positive_equivalent(uniform_binary(8), dirac(5, 8))
    assert not positive_equivalent(uniform_binary(8), geometric_omega(8))
    fam = figure_family()
    other = EdgeFamily.from_table(
        {
            (): ["1/3", "2/3"],
            (0,): ["1/4", "3/4"],
            (1,): ["1/5", "4/5"],
        }
    )
    assert not positive_equivalent(fam, other)


def test_equivalence_matches_measure_equality_on_shared_tree():
    rng = random.Random(31)
    for _ in range(20):
        tree = random_tree(rng, max_depth=3, max_arity=3)
        a = random_family(rng, tree, allow_zero=True)
        b = random_family(rng, tree, allow_zero=True)
        same_measure = induced_measure(a) == induced_measure(b)
        assert positive_equivalent(a, b) == same_measure
        assert positive_equivalent(b, a) == positive_equivalent(a, b)


def test_successor_quotient_lemma():
    rng = random.Random(37)
    for _ in range(20):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree)
        m = induced_measure(fam)
        for t in tree.nodes():
            if tree.is_maximal(t) or m.mass(t) == 0:
                continue
            for k in tree.child_indices(t):
                assert fam.dist(t).mass(k) == m.mass(t + (k,)) / m.mass(t)


def test_root_walks_stop_at_the_maximal_nodes_of_a_rule_family():
    # the rule's row fits only nodes with two children: reading it at a depth-2 leaf would be a mismatch
    family = EdgeFamily(GeneratedTree(lambda t: 2 if len(t) < 2 else 0, 5), lambda t: FiniteDist(["1/3", "2/3"]))
    masses = {(): 1, (0,): F(1, 3), (1,): F(2, 3), (0, 0): F(1, 9), (0, 1): F(2, 9), (1, 0): F(2, 9), (1, 1): F(4, 9)}
    assert dict(induced_measure(family, 3).items()) == masses
    report = validate_edge_family(family)
    assert (report.ok, report.violations, report.checked_depth) == (True, (), 4)
    positive, null = positive_part(family)
    assert positive.tree == complete_binary_tree(2)
    assert positive.dist_table() == {t: FiniteDist(["1/3", "2/3"]) for t in [(), (0,), (1,)]}
    assert (1, 1) not in null


@pytest.mark.parametrize("walk", ["classify", "validate_edge_family", "positive_part"])
def test_root_walks_on_a_deep_rule_tree_trust_membership(walk):
    # requiring every node of a path re-walks its prefixes through the rule,
    # which made these walks cubic in the depth: 1.7-2.6 s at depth 1,000
    tree = GeneratedTree(lambda t: 1, 1005)
    family = EdgeFamily(tree, lambda t: FiniteDist(["1"]))
    start = time.perf_counter()
    if walk == "classify":
        result = classify(tree, 1000)
        assert result.well_pruned and result.finitely_branching and result.perfect
    elif walk == "validate_edge_family":
        assert validate_edge_family(family, 1000).ok
    else:
        assert positive_part(family, 1000)[0].tree.height == 1000
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "make",
    [
        lambda: EdgeFamily.from_table({(): ["1/2", "1/2"], (0,): ["1/3", "2/3"]}),
        lambda: EdgeFamily(GeneratedTree(2, 4), FiniteDist(["1/3", "2/3"])),
        lambda: EdgeFamily(GeneratedTree(2, 4), lambda t: FiniteDist(["1/2", "1/2"])),
    ],
    ids=["table", "shared-row", "rule"],
)
def test_a_dropped_family_leaves_nothing_for_the_cyclic_collector(make):
    # a state links only to its children's, and a gated state holds its reader, not its family, so reference
    # counting frees the family and its states
    gc.collect()
    gc.disable()
    try:
        make()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_equal_explicit_families_and_measures_hash_equal():
    a, b = (EdgeFamily.from_table({(): ["1/2", "1/2"], (1,): ["1/3", "2/3"]}) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    ma, mb = induced_measure(a), induced_measure(b)
    assert ma == mb and hash(ma) == hash(mb)
    assert list(ma.nodes()) == [t for t, _ in ma.items()] and set(ma.nodes()) == set(a.tree.nodes())


def test_families_measures_and_pairs_say_what_they_hold():
    fam = EdgeFamily.from_table({(): ["1/2", "1/2"]})
    assert repr(fam) == "EdgeFamily(explicit, ExplicitTree(3 nodes, height 1))"
    assert repr(uniform_binary(4)) == "EdgeFamily(uniform_binary, GeneratedTree(uniform_binary, budget 4))"
    rule = EdgeFamily(GeneratedTree(2, 4), lambda t: FiniteDist(["1/2", "1/2"]))
    assert repr(rule) == "EdgeFamily(generated, GeneratedTree(custom, budget 4))"
    assert repr(induced_measure(fam)) == "InductiveMeasure(3 nodes, depth=None)"
    assert repr(induced_measure(uniform_binary(4), 2)) == "InductiveMeasure(7 nodes, depth=2)"
    assert repr(pair_from_family(fam)) == "GeneralPair(positive=InductiveMeasure(3 nodes, depth=None), fillers=0)"
