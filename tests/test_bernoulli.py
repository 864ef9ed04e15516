import math
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from ptree import (
    DependentTrialTree,
    HypothesisViolated,
    InexactValue,
    NotADistribution,
    NotALeaf,
    NotATrialTree,
    PTreeError,
    TooDeep,
    binomial_cdf,
    binomial_pmf,
    cell_volume,
    dominance_check,
    flip_success_convention,
    node_mass,
    random_trial_tree,
    success_pmf,
)


def leaf_histories(n):
    for bits in range(2**n):
        yield tuple((bits >> (n - 1 - i)) & 1 for i in range(n))


def brute_pmf(trial_tree):
    """Independent oracle: enumerate leaf histories and their path products."""
    n = trial_tree.trials
    pmf = [F(0)] * (n + 1)
    for leaf in leaf_histories(n):
        mass = F(1)
        for i, bit in enumerate(leaf):
            p = trial_tree.success_prob(leaf[:i])
            mass *= p if bit == 0 else 1 - p
        pmf[leaf.count(0)] += mass
    return tuple(pmf)


def test_pmf_iid_half():
    tt = DependentTrialTree.from_success_probs(2, lambda t: F(1, 2))
    assert success_pmf(tt) == (F(1, 4), F(1, 2), F(1, 4))


def test_pmf_dependent_example():
    tt = DependentTrialTree.from_success_probs(
        2, {(): F(1, 2), (0,): F(7, 10), (1,): F(1, 2)}
    )
    pmf = success_pmf(tt)
    assert pmf[2] == F(7, 20)
    assert pmf == brute_pmf(tt)


def test_pmf_single_trial():
    p = F(3, 7)
    tt = DependentTrialTree.from_success_probs(1, lambda t: p)
    assert success_pmf(tt) == (1 - p, p)


def test_pmf_sums_to_one_and_matches_oracle():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randint(1, 6)
        tt = random_trial_tree(n, rng)
        pmf = success_pmf(tt)
        assert sum(pmf) == 1
        assert all(x >= 0 for x in pmf)
        assert pmf == brute_pmf(tt)


def test_pmf_too_deep():
    with pytest.raises(TooDeep):
        success_pmf(DependentTrialTree.from_success_probs(25, lambda t: F(1, 2)))


def test_binomial_cdf_values():
    assert binomial_cdf(2, F(1, 2), 1) == F(3, 4)
    assert binomial_cdf(4, F(1, 3), 0) == F(16, 81)
    assert binomial_cdf(5, F(1, 2), -1) == 0
    assert binomial_cdf(5, F(1, 2), 5) == 1
    assert binomial_cdf(5, F(1, 2), 12) == 1


def test_binomial_pmf_matches_comb():
    n, p = 6, F(2, 5)
    pmf = binomial_pmf(n, p)
    for k in range(n + 1):
        assert pmf[k] == math.comb(n, k) * p**k * (1 - p) ** (n - k)
    assert sum(pmf) == 1


def test_iid_pmf_equals_binomial():
    rng = random.Random(7)
    for _ in range(10):
        n = rng.randint(1, 7)
        p = F(rng.randint(0, 8), 8)
        tt = DependentTrialTree.from_success_probs(n, lambda t: p)
        assert success_pmf(tt) == binomial_pmf(n, p)


def test_dominance_equality_in_iid_case():
    tt = DependentTrialTree.from_success_probs(3, lambda t: F(2, 5))
    report = dominance_check(tt, F(2, 5))
    assert report.holds
    assert all(row.margin == 0 for row in report.rows)


def test_dominance_example():
    tt = DependentTrialTree.from_success_probs(
        2, {(): F(1, 2), (0,): F(7, 10), (1,): F(1, 2)}
    )
    report = dominance_check(tt, F(1, 2))
    assert report.holds
    assert [(r.cdf_successes, r.cdf_binomial) for r in report.rows] == [
        (F(1, 4), F(1, 4)),
        (F(13, 20), F(3, 4)),
        (F(1), F(1)),
    ]


def test_dominance_hypothesis_check():
    tt = DependentTrialTree.from_success_probs(
        2, {(): F(1, 2), (0,): F(7, 10), (1,): F(1, 2)}
    )
    with pytest.raises(HypothesisViolated) as info:
        dominance_check(tt, F(3, 5))
    assert info.value.node == ()


def test_dominance_random_property():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 8)
        tt = random_trial_tree(n, rng)
        p = min(tt.success_prob(t) for t in tt.interior_nodes())
        report = dominance_check(tt, p)
        assert report.holds
        assert report.violated_z is None


def assert_cdf_dominates(better, worse):
    """Every CDF value of `better` is at most the corresponding one of `worse`."""
    cdf_b = cdf_w = F(0)
    for a, b in zip(success_pmf(worse), success_pmf(better)):
        cdf_w += a
        cdf_b += b
        assert cdf_b <= cdf_w


def test_monotonicity_with_identical_continuations():
    # raising one success probability never raises any CDF value, provided
    # the two subtrees below the perturbed node carry the same probabilities
    # (with genuinely dependent continuations this can fail; see the last-trial
    # case below for the unconditional version)
    rng = random.Random(13)
    for _ in range(30):
        n = rng.randint(1, 5)
        tt = random_trial_tree(n, rng)
        nodes = sorted(tt.interior_nodes())
        target = nodes[rng.randrange(len(nodes))]
        base = {t: tt.success_prob(t) for t in nodes}
        for t in nodes:
            prefix, rest = t[: len(target) + 1], t[len(target) + 1 :]
            if prefix == target + (1,):
                base[t] = base[target + (0,) + rest]
        bumped = dict(base)
        bumped[target] = base[target] + (1 - base[target]) * F(1, 2)
        if bumped[target] == base[target]:
            continue
        assert_cdf_dominates(
            DependentTrialTree.from_success_probs(n, bumped),
            DependentTrialTree.from_success_probs(n, base),
        )


def test_monotonicity_at_last_trial_unconditional():
    # perturbing a node at the final trial has empty continuations, so the
    # improvement is unconditional there
    rng = random.Random(29)
    for _ in range(30):
        n = rng.randint(1, 5)
        tt = random_trial_tree(n, rng)
        last = [t for t in tt.interior_nodes() if len(t) == n - 1]
        target = last[rng.randrange(len(last))]
        base = {t: tt.success_prob(t) for t in tt.interior_nodes()}
        bumped = dict(base)
        bumped[target] = base[target] + (1 - base[target]) * F(1, 2)
        if bumped[target] == base[target]:
            continue
        assert_cdf_dominates(
            DependentTrialTree.from_success_probs(n, bumped),
            DependentTrialTree.from_success_probs(n, base),
        )


def test_cell_volume_examples():
    tt = DependentTrialTree.from_success_probs(
        2, {(): F(1, 2), (0,): F(7, 10), (1,): F(1, 2)}
    )
    assert cell_volume(tt, (0, 0)) == F(7, 20)
    assert cell_volume(tt, (1, 1)) == F(1, 4)
    iid = DependentTrialTree.from_success_probs(3, lambda t: F(1, 2))
    for leaf in leaf_histories(3):
        assert cell_volume(iid, leaf) == F(1, 8)
    with pytest.raises(NotALeaf):
        cell_volume(tt, (0,))


def test_cell_volume_equals_leaf_mass():
    rng = random.Random(17)
    for _ in range(20):
        n = rng.randint(1, 6)
        tt = random_trial_tree(n, rng)
        for leaf in leaf_histories(n):
            assert cell_volume(tt, leaf) == node_mass(tt.family, leaf)


def test_cell_volume_reads_the_stored_probabilities_only():
    tt = random_trial_tree(16, 1)
    leaf = tuple(i % 2 for i in range(16))
    expected = math.prod(tt.success_prob(leaf[:i]) if bit == 0 else 1 - tt.success_prob(leaf[:i]) for i, bit in enumerate(leaf))
    assert cell_volume(tt, leaf) == expected
    assert tt._family is None  # the 2^16-node family was never built
    for bad in [(0,) * 15, (0,) * 15 + (2,), (0,) * 15 + (-1,)]:
        with pytest.raises(NotALeaf):
            cell_volume(tt, bad)


def test_flip_success_convention():
    tt = DependentTrialTree.from_success_probs(
        2, {(): F(1, 4), (0,): F(1, 3), (1,): F(2, 3)}
    )
    flipped = flip_success_convention(tt)
    # after the flip, "success at the root" is the old failure probability
    assert flipped.success_prob(()) == F(3, 4)
    # the flipped success pmf is the reversed failure pmf
    assert success_pmf(flipped) == tuple(reversed(success_pmf(tt)))


def test_trial_tree_requires_binary_shape():
    from ptree import EdgeFamily

    fam = EdgeFamily.from_table({(): ["1/3", "1/3", "1/3"]})
    with pytest.raises(ValueError):
        DependentTrialTree(1, fam)


def test_random_trial_tree_is_pinned_to_its_seed():
    tt = random_trial_tree(3, 42, F(1, 3))
    assert {t: tt.success_prob(t) for t in tt.interior_nodes()} == {
        (): F(1, 3),
        (0,): F(5, 14),
        (0, 0): F(10, 21),
        (0, 1): F(1, 3),
        (1,): F(16, 27),
        (1, 0): F(3, 7),
        (1, 1): F(23, 45),
    }
    # interior nodes come in preorder with child 1 first, the order in
    # which the probability getter is called
    assert list(tt.interior_nodes()) == [(), (1,), (1, 1), (1, 0), (0,), (0, 1), (0, 0)]


@pytest.mark.parametrize(
    "shared, fresh",
    [(F(1, 3), lambda: F(1, 3)), (1, lambda: F(1)), ("1/3", lambda: "".join(["1/", "3"]))],
    ids=["fraction", "int", "string"],
)
def test_a_shared_probability_object_builds_the_tree_fresh_objects_build(shared, fresh):
    n = 4
    calls = []
    tt = DependentTrialTree.from_success_probs(n, lambda t: calls.append(t) or shared)
    assert calls == list(tt.interior_nodes())  # one getter call per node, in preorder with child 1 first
    probs = [tt.success_prob(t) for t in calls]
    assert probs == [DependentTrialTree.from_success_probs(n, lambda t: fresh()).success_prob(t) for t in calls]
    assert success_pmf(tt) == binomial_pmf(n, probs[0])
    # runs of one object broken by another: each node keeps its own getter's value
    other = F(3, 4)
    mixed = DependentTrialTree.from_success_probs(n, lambda t: other if len(t) % 2 else shared)
    assert [mixed.success_prob(t) for t in calls] == [F(3, 4) if len(t) % 2 else probs[0] for t in calls]
    # a bad value at the last node is still refused after a run of one shared object
    last = calls[-1]
    for bad, error, message in [
        (0.5, InexactValue, "0.5 is a float; give an exact value such as the string '0.5'"),
        (F(4, 3), NotATrialTree, f"success probability at {last} is 4/3, outside [0, 1]"),
        ("-1/2", NotATrialTree, f"success probability at {last} is -1/2, outside [0, 1]"),
    ]:
        with pytest.raises(error) as info:
            DependentTrialTree.from_success_probs(n, lambda t: bad if t == last else shared)
        assert str(info.value) == message
    with pytest.raises(TypeError):  # None is a value, refused as Fraction(None) refuses it, even at the first node
        DependentTrialTree.from_success_probs(n, lambda t: None)


def test_trial_tree_rows_must_sum_to_one():
    # the family's constructor refuses such a row, before a trial tree can adopt the family
    from ptree import EdgeFamily, NotADistribution, PTreeError

    with pytest.raises(NotADistribution, match=r"^the masses at node \(\) are not a probability distribution: ") as info:
        DependentTrialTree(1, EdgeFamily.from_table({(): ["1/3", "1/3"]}))
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)
    with pytest.raises(NotADistribution, match="child 0 has mass 3/2 outside"):
        DependentTrialTree(1, EdgeFamily.from_table({(): ["3/2", "-1/2"]}))
    with pytest.raises(NotADistribution, match=r"at node \(1,\) .*: masses sum to 3/4, not 1"):
        DependentTrialTree(
            2, EdgeFamily.from_table({(): ["1/2", "1/2"], (0,): ["1/2", "1/2"], (1,): ["1/2", "1/4"]})
        )


def test_trial_tree_from_family_matches_from_success_probs():
    from ptree import EdgeFamily

    table = {(): ["1/2", "1/2"], (0,): ["7/10", "3/10"], (1,): ["1/2", "1/2"]}
    family = EdgeFamily.from_table(table)
    tt = DependentTrialTree(2, family)
    assert tt.family is family
    assert [tt.success_prob(t) for t in tt.interior_nodes()] == [F(1, 2), F(1, 2), F(7, 10)]
    assert success_pmf(tt)[2] == F(7, 20)
    # the lazily built family of a tree made from probabilities is the same family
    assert DependentTrialTree.from_success_probs(2, {t: row[0] for t, row in table.items()}).family == family


def test_trial_tree_shape_errors_are_ptree_errors():
    from ptree import EdgeFamily, NotATrialTree, uniform_binary

    half = ["1/2", "1/2"]
    with pytest.raises(NotATrialTree):
        DependentTrialTree(2, EdgeFamily.from_table({(): half, (0,): half}))  # (1,) is a leaf
    with pytest.raises(NotATrialTree):
        DependentTrialTree(1, EdgeFamily.from_table({(): half, (0,): half}))  # too deep
    with pytest.raises(NotATrialTree):
        DependentTrialTree(3, uniform_binary(3))  # not explicit
    with pytest.raises(NotATrialTree):
        DependentTrialTree.from_success_probs(-1, lambda t: F(1, 2))


def test_trial_cap_is_checked_before_any_probability():
    from ptree.bernoulli import MAX_TRIALS

    def getter(t):
        raise AssertionError(f"probability requested at {t}")

    with pytest.raises(TooDeep):
        DependentTrialTree.from_success_probs(MAX_TRIALS + 1, getter)
    with pytest.raises(TooDeep):
        random_trial_tree(MAX_TRIALS + 1, 1)


@pytest.mark.parametrize(
    "trials, min_p, bound",
    [(3, F(0), 0), (1, F(-1, 2), 32), (0, F(2), 32)],
    ids=["denominator-bound-0", "negative-min-p", "min-p-above-1"],
)
def test_random_trial_tree_checks_its_arguments_before_any_draw(trials, min_p, bound):
    from ptree import NotATrialTree

    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(NotATrialTree):
        random_trial_tree(trials, rng, min_p, bound)
    assert rng.getstate() == state


def test_success_prob_rejects_leaves_and_foreign_nodes():
    from ptree import UnknownNode

    tt = DependentTrialTree.from_success_probs(2, lambda t: F(1, 3))
    for t in [(0, 1), (2,), (0, 0, 0)]:
        with pytest.raises(UnknownNode):
            tt.success_prob(t)


def test_hypothesis_violation_names_the_lexicographically_first_node():
    probs = {t: F(1, 2) for t in DependentTrialTree.from_success_probs(3, lambda t: 0).interior_nodes()}
    # of the three violators, (1,) comes first in heap order and in preorder
    # with child 1 first; (0, 1) comes first in lexicographic order
    probs[(1,)] = probs[(0, 1)] = probs[(1, 0)] = F(1, 5)
    tt = DependentTrialTree.from_success_probs(3, probs)
    with pytest.raises(HypothesisViolated) as info:
        dominance_check(tt, F(1, 3))
    assert info.value.node == (0, 1)


def test_binomial_rejects_p_outside_unit_interval():
    for call in (
        lambda: binomial_pmf(3, F(-1, 2)),
        lambda: binomial_cdf(3, F(3, 2), 1),
        lambda: dominance_check(random_trial_tree(3, 1, 0), F(-1, 2)),
    ):
        with pytest.raises(NotADistribution) as info:
            call()
        assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


def test_naming_the_first_violator_builds_no_fraction_per_node():
    # the first violator is found without sorting the 2^15 interior paths or building a Fraction per node
    tt = random_trial_tree(16, 1, F(1, 3))
    tracemalloc.start()
    try:
        with pytest.raises(HypothesisViolated, match=r"^success probability 2/5 at \(0, 0, 0, 0, 0, 0, 0, 0, 0, 0\) is below 1/2$"):
            dominance_check(tt, F(1, 2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20
