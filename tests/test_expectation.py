import random
from fractions import Fraction as F

import pytest

from ptree import (
    DepthBudgetExceeded,
    Front,
    FrontVariable,
    TowerCase,
    TowerReport,
    NodeNotBelowFront,
    PreconditionFrontMismatch,
    enumerate_front,
    expect,
    induced_measure,
    level,
    relative_expect,
    relative_expect_front,
    tower_check,
    tower_check_fronts,
    uniform_binary,
)
from ptree.paths import is_prefix

from corpus import random_family, random_tree, random_variable


def brute_conditional(family, variable, t):
    """Independent oracle: direct product-sum over front members above t."""
    total = F(0)
    for s in variable.front.nodes:
        if not is_prefix(t, s):
            continue
        w = F(1)
        for i in range(len(t), len(s)):
            w *= family.dist(s[:i]).mass(s[i])
        total += variable(s) * w
    return total


def ones_counter(tree, n):
    front = enumerate_front(tree, n)
    return FrontVariable(front, {t: sum(t) for t in front.nodes})


def test_expect_count_of_ones_uniform_depth2():
    fam = uniform_binary(8)
    X = ones_counter(fam.tree, 2)
    m = induced_measure(fam, 2)
    assert expect(m, X) == 1


def test_expect_constant_is_constant():
    rng = random.Random(3)
    for _ in range(15):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        n = rng.randint(0, tree.height)
        front = enumerate_front(tree, n)
        c = F(rng.randint(-9, 9), rng.randint(1, 7))
        X = FrontVariable(front, {t: c for t in front.nodes})
        assert expect(induced_measure(fam), X) == c


def test_expect_indicator_equals_below_mass():
    fam = uniform_binary(8)
    X = FrontVariable(
        enumerate_front(fam.tree, 3),
        {t: (1 if is_prefix((0,), t) else 0) for t in level(fam.tree, 3)},
    )
    assert expect(induced_measure(fam, 3), X) == F(1, 2)


def test_expect_past_the_materialized_depth_raises():
    fam = uniform_binary(8)
    X = ones_counter(fam.tree, 2)
    with pytest.raises(DepthBudgetExceeded, match="beyond the materialized depth 1"):
        expect(induced_measure(fam, 1), X)


def test_relative_expect_examples():
    fam = uniform_binary(8)
    X = ones_counter(fam.tree, 2)
    assert relative_expect(fam, X, (1,)) == F(3, 2)
    assert relative_expect(fam, X, ()) == expect(induced_measure(fam, 2), X)
    c = FrontVariable(X.front, {t: F(7, 3) for t in X.front.nodes})
    for t in [(), (0,), (1,), (0, 1)]:
        assert relative_expect(fam, c, t) == F(7, 3)


def test_relative_expect_matches_oracle():
    rng = random.Random(41)
    for _ in range(25):
        tree = random_tree(rng, max_depth=5, max_arity=3, well_pruned=True)
        fam = random_family(rng, tree, allow_zero=True)
        n = rng.randint(0, tree.height)
        X = random_variable(rng, enumerate_front(tree, n))
        m = rng.randint(0, n)
        for t in level(tree, m):
            assert relative_expect(fam, X, t) == brute_conditional(fam, X, t)


def test_relative_expect_errors():
    fam = uniform_binary(8)
    X = ones_counter(fam.tree, 2)
    with pytest.raises(NodeNotBelowFront):
        relative_expect(fam, X, (0, 1, 0))

    # a maximal node above t but short of the front level
    from ptree import EdgeFamily, ExplicitTree, FiniteDist

    shape = ExplicitTree({(): (0, 1), (0,): (), (1,): (0, 1), (1, 0): (), (1, 1): ()})
    fam2 = EdgeFamily(
        shape,
        {(): FiniteDist([F(1, 2), F(1, 2)]), (1,): FiniteDist([F(1, 2), F(1, 2)])},
    )
    X2 = ones_counter(shape, 2)  # front {(0,), (1,0), (1,1)}
    with pytest.raises(PreconditionFrontMismatch):
        relative_expect(fam2, X2, ())
    # below (1,) the front is all at level 2: fine
    assert relative_expect(fam2, X2, (1,)) == brute_conditional(fam2, X2, (1,))
    # the front-general variant handles the root anyway
    assert relative_expect_front(fam2, X2, ()) == brute_conditional(fam2, X2, ())


def test_linearity():
    rng = random.Random(43)
    for _ in range(15):
        tree = random_tree(rng, max_depth=4, max_arity=3, well_pruned=True)
        fam = random_family(rng, tree, allow_zero=True)
        n = rng.randint(0, tree.height)
        front = enumerate_front(tree, n)
        X = random_variable(rng, front)
        Y = random_variable(rng, front)
        a, b = F(rng.randint(-5, 5), 3), F(rng.randint(-5, 5), 7)
        combo = X.scale_add(a, Y, b)
        m = rng.randint(0, n)
        for t in level(tree, m):
            assert relative_expect(fam, combo, t) == a * relative_expect(fam, X, t) + b * relative_expect(fam, Y, t)


def test_tower_uniform_example():
    fam = uniform_binary(8)
    X = ones_counter(fam.tree, 2)
    report = tower_check(fam, X, 0, 1, 2)
    assert report.equal
    assert report.lhs == report.rhs == 1


def test_tower_degenerate_levels():
    fam = uniform_binary(8)
    X = ones_counter(fam.tree, 2)
    report = tower_check(fam, X, 2, 2, 2)
    assert report.equal
    for case in report.cases:
        assert case.lhs == X(case.node)


def test_tower_random_well_pruned():
    rng = random.Random(47)
    for _ in range(40):
        tree = random_tree(rng, max_depth=4, max_arity=3, well_pruned=True)
        fam = random_family(rng, tree, allow_zero=True)
        k = tree.height
        X = random_variable(rng, enumerate_front(tree, k))
        n = rng.randint(0, k)
        m = rng.randint(0, n)
        report = tower_check(fam, X, m, n, k)
        assert report.equal
        # both sides also agree with the direct oracle
        for case in report.cases:
            assert case.lhs == brute_conditional(fam, X, case.node)


def test_tower_front_generalized():
    rng = random.Random(53)
    for _ in range(25):
        tree = random_tree(rng, max_depth=5, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        outer = enumerate_front(tree, tree.height)
        inner_n = rng.randint(0, tree.height)
        inner = enumerate_front(tree, inner_n)
        X = random_variable(rng, outer)
        report = tower_check_fronts(fam, X, inner)
        assert report.equal
        assert report.lhs == brute_conditional(fam, X, ())


def test_mass_decomposition_through_node():
    # the weight from the root factors through any intermediate node
    rng = random.Random(59)
    for _ in range(20):
        tree = random_tree(rng, max_depth=4, max_arity=3, well_pruned=True)
        fam = random_family(rng, tree)
        m = induced_measure(fam)
        for t in tree.nodes():
            for s in tree.nodes():
                if is_prefix(t, s):
                    w = F(1)
                    for i in range(len(t), len(s)):
                        w *= fam.dist(s[:i]).mass(s[i])
                    assert m.mass(s) == w * m.mass(t)


def test_lhs_and_rhs_need_a_report_of_one_case():
    case = TowerCase((), F(1), F(1))
    assert (TowerReport((case,)).lhs, TowerReport((case,)).rhs) == (1, 1)
    report = TowerReport((case, TowerCase((0,), F(1, 2), F(1, 2))))
    with pytest.raises(ValueError, match="^lhs is only defined for single-node reports$"):
        report.lhs
    with pytest.raises(ValueError, match="^rhs is only defined for single-node reports$"):
        report.rhs
