import math
import random
import time
import tracemalloc
from fractions import Fraction as F
from unittest import mock

import pytest

from ptree import (
    ATOM_FOUND,
    ClopenSelection,
    DepthBudgetExceeded,
    FREE_CERTIFIED,
    INCONCLUSIVE,
    GeneratedTree,
    EdgeFamily,
    ExplicitTree,
    FiniteDist,
    MalformedClopen,
    NegativeCount,
    NegativeDepth,
    NotADistribution,
    NotASubtree,
    PTreeError,
    QPointError,
    RequiresExplicitFiniteTree,
    atom_gaps,
    branch_mass_bound,
    branch_window,
    clopen_mass,
    cylinder_frequencies,
    dirac,
    enumerate_front,
    freeness_report,
    geometric_omega,
    induced_measure,
    level,
    locate_branch,
    node_interval,
    node_mass,
    sample_branches,
    subtree_mass_bound,
    uniform_binary,
)
from ptree.dists import Geometric
from ptree.paths import lex_less, order_relations, OrderRelation

from corpus import random_family, random_tree, rule_family


def test_interval_uniform_binary_example():
    fam = uniform_binary(8)
    iv = node_interval(fam, (1, 0, 1))
    assert (iv.lower, iv.upper) == (F(5, 8), F(3, 4))
    assert node_interval(fam, ()) == (0, 1)


def test_interval_binary_expansion_law():
    fam = uniform_binary(10)
    rng = random.Random(2)
    for _ in range(20):
        t = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 8)))
        iv = node_interval(fam, t)
        assert iv.lower == sum(F(b, 2 ** (i + 1)) for i, b in enumerate(t))
        assert iv.width == F(1, 2 ** len(t))


def test_interval_dirac():
    fam = dirac(5, 8)
    assert node_interval(fam, (5, 5)) == (0, 1)
    assert node_interval(fam, (3,)) == (0, 0)
    assert node_interval(fam, (7,)) == (1, 1)


def test_interval_width_is_mass_and_children_tile():
    rng = random.Random(61)
    for _ in range(30):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        fam = random_family(rng, tree, allow_zero=True)
        m = induced_measure(fam)
        for t in tree.nodes():
            iv = node_interval(fam, t)
            assert iv.width == m.mass(t)
            kids = tree.children(t)
            if kids:
                cells = [node_interval(fam, c) for c in kids]
                assert cells[0].lower == iv.lower
                assert cells[-1].upper == iv.upper
                for a, b in zip(cells, cells[1:]):
                    assert a.upper == b.lower


def test_interval_disjointness_for_incompatible():
    rng = random.Random(67)
    for _ in range(15):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        nodes = sorted(tree.nodes())
        for i, s in enumerate(nodes):
            for t in nodes[i + 1 :]:
                if order_relations(s, t) in (OrderRelation.LEX_LESS, OrderRelation.LEX_GREATER):
                    a, b = node_interval(fam, s), node_interval(fam, t)
                    lo, hi = max(a.lower, b.lower), min(a.upper, b.upper)
                    assert lo >= hi or lo == hi  # overlap at most a point


def test_extreme_endpoint_characterization():
    rng = random.Random(71)
    for _ in range(20):
        tree = random_tree(rng, max_depth=3, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        nodes = sorted(tree.nodes())
        for t in nodes:
            iv = node_interval(fam, t)
            lex_smaller_all_null = all(
                node_mass(fam, s) == 0 for s in nodes if lex_less(s, t)
            )
            assert (iv.lower == 0) == lex_smaller_all_null
            lex_bigger_all_null = all(
                node_mass(fam, s) == 0 for s in nodes if lex_less(t, s)
            )
            assert (iv.upper == 1) == lex_bigger_all_null


def test_endpoint_set_identity():
    # Q = {lower endpoints} ∪ {1}
    rng = random.Random(73)
    for _ in range(20):
        tree = random_tree(rng, max_depth=3, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        lowers = {node_interval(fam, t).lower for t in tree.nodes()}
        uppers = {node_interval(fam, t).upper for t in tree.nodes()}
        assert lowers | uppers == lowers | {F(1)}


def test_branch_window():
    fam = uniform_binary(8)
    w = branch_window(fam, (0, 1, 0, 1), 4)
    assert w.width == F(1, 16)
    assert w.prefix == (0, 1, 0, 1)
    w2 = branch_window(fam, (0, 1, 0, 1), 2)
    assert w2.prefix == (0, 1)
    with pytest.raises(DepthBudgetExceeded):
        branch_window(fam, (0,), 9)

    d = dirac(5, 8)
    for n in range(5):
        w = branch_window(d, (5,) * 5, n)
        assert (w.lower, w.upper) == (0, 1)

    g = geometric_omega(8)
    assert branch_window(g, (0, 0, 0), 3).width == F(1, 8)


def test_branch_window_checks_its_path_once():
    fam = uniform_binary(64)
    with mock.patch.object(GeneratedTree, "contains", autospec=True, side_effect=GeneratedTree.contains) as contains:
        w = branch_window(fam, (0, 1) * 32, 64)
    assert contains.call_count == 1
    assert (w.lower, w.upper) == node_interval(fam, (0, 1) * 32)


def test_branch_window_maximal_prefix():
    fam = EdgeFamily.from_table({(): ["1/2", "1/2"]})
    w = branch_window(fam, (0,), 3)
    assert w.prefix == (0,)
    with pytest.raises(ValueError):
        branch_window(uniform_binary(8), (0,), 3)


def test_locate_branch_examples():
    fam = uniform_binary(16)
    assert locate_branch(fam, F(5, 8) + F(1, 32), 3) == (1, 0, 1)
    assert locate_branch(fam, F(1, 3), 2) == (0, 1)
    with pytest.raises(QPointError):
        locate_branch(fam, F(1, 2), 3)
    # unique-descent edges proceed
    assert locate_branch(fam, F(0), 3) == (0, 0, 0)
    assert locate_branch(fam, F(1), 3) == (1, 1, 1)


def test_locate_branch_contains_point():
    fam = uniform_binary(16)
    rng = random.Random(79)
    for _ in range(200):
        num = rng.getrandbits(40)
        if num % 3 == 0:
            num += 1
        y = F(num, 3 * (1 << 40))  # never a dyadic rational
        t = locate_branch(fam, y, 10)
        iv = node_interval(fam, t)
        assert iv.lower <= y <= iv.upper


def test_locate_branch_skips_degenerate_cells():
    fam = EdgeFamily.from_table(
        {
            (): ["1/4", "0", "3/4"],
            (2,): ["1/3", "2/3"],
        }
    )
    assert locate_branch(fam, F(1, 3), 2) == (2, 0)
    # the shared boundary between cells 0 and 2 sits at 1/4
    with pytest.raises(QPointError):
        locate_branch(fam, F(1, 4), 2)
    # 1/2 separates the two positive cells below (2,)
    with pytest.raises(QPointError):
        locate_branch(fam, F(1, 2), 2)


def test_locate_branch_geometric_and_dirac():
    g = geometric_omega(16)
    assert locate_branch(g, F(2, 3), 2) == (1, 1)
    y = F(1, 5)
    t = locate_branch(g, y, 4)
    iv = node_interval(g, t)
    assert iv.lower <= y <= iv.upper
    with pytest.raises(QPointError):
        locate_branch(g, F(1), 1)  # the omega limit endpoint

    d = dirac(5, 16)
    assert locate_branch(d, F(1, 3), 3) == (5, 5, 5)
    assert locate_branch(d, F(0), 2) == (5, 5)


def test_clopen_mass():
    fam = uniform_binary(8)
    assert clopen_mass(fam, ClopenSelection(2, frozenset({(0, 1)}))) == F(1, 4)
    full = ClopenSelection(2, frozenset(level(fam.tree, 2)))
    assert clopen_mass(fam, full) == 1
    comp = ClopenSelection(1, frozenset({(0,)}), complemented=True)
    assert clopen_mass(fam, comp) == F(1, 2)
    with pytest.raises(MalformedClopen):
        clopen_mass(fam, ClopenSelection(1, frozenset({(0, 0)})))


def test_clopen_mass_additivity():
    rng = random.Random(83)
    for _ in range(20):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        n = rng.randint(0, tree.height)
        front = sorted(enumerate_front(tree, n).nodes)
        rng.shuffle(front)
        cut = rng.randint(0, len(front))
        a, b = frozenset(front[:cut]), frozenset(front[cut:])
        total = clopen_mass(fam, ClopenSelection(n, a)) + clopen_mass(fam, ClopenSelection(n, b))
        assert total == 1
        assert clopen_mass(fam, ClopenSelection(n, a, complemented=True)) == clopen_mass(
            fam, ClopenSelection(n, b)
        )


def test_clopen_mass_infinite_front_via_complement():
    g = geometric_omega(8)
    sel = ClopenSelection(1, frozenset({(0,), (1,)}), complemented=True)
    assert clopen_mass(g, sel) == 1 - F(1, 2) - F(1, 4)


def test_subtree_mass_bound_path():
    fam = uniform_binary(8)
    nodes = [(0,) * k for k in range(6)]
    report = subtree_mass_bound(fam, nodes, 5)
    assert report.values == (1, F(1, 2), F(1, 4), F(1, 8), F(1, 16), F(1, 32))
    assert report.nonincreasing
    assert report.value == F(1, 32)


def test_subtree_mass_bound_full_and_cone():
    fam = uniform_binary(6)
    full = [t for n in range(4) for t in level(fam.tree, n)]
    report = subtree_mass_bound(fam, full, 3)
    assert set(report.values) == {F(1)}

    cone = [()] + [(0,) + t for n in range(3) for t in level(fam.tree, n)]
    report = subtree_mass_bound(fam, cone, 3)
    assert report.values == (1, F(1, 2), F(1, 2), F(1, 2))


def test_subtree_mass_bound_rejects_bad_sets():
    fam = uniform_binary(8)
    with pytest.raises(NotASubtree):
        subtree_mass_bound(fam, [(0,)], 1)  # missing root
    with pytest.raises(NotASubtree):
        subtree_mass_bound(fam, [(), (0, 0)], 2)  # not prefix-closed
    with pytest.raises(NotASubtree):
        subtree_mass_bound(fam, [(), (0,)], 3)  # leaf not maximal in host


def test_branch_mass_bound():
    fam = uniform_binary(16)
    bound, zero = branch_mass_bound(fam, (0, 1) * 5, 10)
    assert bound == F(1, 1024) and not zero

    d = dirac(5, 16)
    bound, zero = branch_mass_bound(d, (5,) * 8, 8)
    assert bound == 1 and not zero

    fam2 = EdgeFamily.from_table({(): ["1", "0"], (0,): ["1/2", "1/2"], (1,): ["1/2", "1/2"]})
    bound, zero = branch_mass_bound(fam2, (1, 0), 2)
    assert bound == 0 and zero


def test_freeness_uniform_certified():
    report = freeness_report(uniform_binary(32), 20, F(1, 2**10))
    assert report.verdict == FREE_CERTIFIED
    assert report.level_mass_bound == F(1, 2**20)


def test_freeness_geometric_certified_by_its_largest_edge():
    # child 0 carries the largest edge mass, 1 - r, so branch masses fall as (1 - r)^depth
    report = freeness_report(geometric_omega(32, F(9, 10)), 10, F(1, 10**9))
    assert report.verdict == FREE_CERTIFIED
    assert report.level_mass_bound == F(1, 10) ** 10


def test_freeness_dirac_atom():
    report = freeness_report(dirac(5, 32), 20, F(1, 2**10))
    assert report.verdict == ATOM_FOUND
    assert report.witness == (5,) * 20


def test_freeness_explicit_always_atom():
    rng = random.Random(89)
    for _ in range(10):
        tree = random_tree(rng, max_depth=3, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        report = freeness_report(fam, 10, F(1, 4))
        assert report.verdict == ATOM_FOUND
        assert node_mass(fam, report.witness) > 0
        assert fam.tree.is_maximal(report.witness)


def test_freeness_inconclusive_with_prob_one_edge():
    tree = GeneratedTree(lambda t: 2, depth_budget=16)
    forced = FiniteDist([F(1), F(0)])
    fair = FiniteDist([F(1, 2), F(1, 2)])
    fam = EdgeFamily(tree, lambda t: forced if t == () else fair)
    report = freeness_report(fam, 10, F(1, 4))
    assert report.verdict == INCONCLUSIVE


def test_freeness_of_shared_rows():
    def shared(row):
        return EdgeFamily(GeneratedTree(2, depth_budget=16), FiniteDist(row))

    atom = freeness_report(shared([F(1), F(0)]), 10, F(1, 4))
    assert atom.verdict == ATOM_FOUND
    assert atom.witness == (0,) * 10 and node_mass(shared([F(1), F(0)]), atom.witness) == 1
    free = freeness_report(shared([F(1, 3), F(2, 3)]), 10, F(1, 50))
    assert free.verdict == FREE_CERTIFIED
    assert free.level_mass_bound == F(2, 3) ** 10
    shallow = freeness_report(shared([F(1, 3), F(2, 3)]), 3, F(1, 50))
    assert shallow.verdict == INCONCLUSIVE and shallow.level_mass_bound == F(2, 3) ** 3


def test_freeness_of_a_rule_family_is_inconclusive_without_a_bound():
    fair = FiniteDist([F(1, 2), F(1, 2)])
    report = freeness_report(EdgeFamily(GeneratedTree(lambda t: 2, 16), lambda t: fair), 10, F(1, 4))
    assert report.verdict == INCONCLUSIVE and report.level_mass_bound is None


@pytest.mark.parametrize("depth, error", [(-1, NegativeDepth), (100, DepthBudgetExceeded)])
def test_freeness_checks_its_depth(depth, error):
    explicit = EdgeFamily.from_table({(): ["1/2", "1/2"]}, depth_budget=8)
    for fam in (uniform_binary(8), dirac(5, 8), explicit):
        with pytest.raises(error):
            freeness_report(fam, depth, F(1, 4))


def test_freeness_refuses_a_shared_row_that_is_not_a_distribution():
    # the family's constructor refuses the row, so the report never bounds by a bad shared row
    with pytest.raises(NotADistribution, match=r"node \(\)"):
        EdgeFamily(GeneratedTree(2, depth_budget=16), FiniteDist(["1/3", "1/3"]))


def test_atom_gaps():
    fam = EdgeFamily.from_table(
        {
            (): ["1/2", "1/2"],
            (0,): ["1/2", "1/2"],
            (1,): ["1/2", "1/2"],
        }
    )
    gaps = atom_gaps(fam)
    assert [g.width for g in gaps] == [F(1, 4)] * 4
    assert sum(g.width for g in gaps) == 1
    for a, b in zip(gaps, gaps[1:]):
        assert a.upper <= b.lower

    lopsided = EdgeFamily.from_table({(): ["1", "0"]})
    gaps = atom_gaps(lopsided)
    assert [(g.lower, g.upper) for g in gaps] == [(0, 1)]  # zero-mass leaf drops out

    root_only = EdgeFamily(random_tree(random.Random(0), max_depth=0), {})
    assert [(g.lower, g.upper) for g in atom_gaps(root_only)] == [(0, 1)]

    with pytest.raises(RequiresExplicitFiniteTree):
        atom_gaps(uniform_binary(8))


def test_sampler_deterministic_and_consistent():
    fam = uniform_binary(16)
    a = sample_branches(fam, seed=7, count=200, depth=3)
    b = sample_branches(fam, seed=7, count=200, depth=3)
    assert a == b
    c = sample_branches(fam, seed=8, count=200, depth=3)
    assert a != c
    assert all(len(t) == 3 for t in a)


def test_sampler_dirac_always_atom_path():
    d = dirac(5, 16)
    samples = sample_branches(d, seed=3, count=50, depth=4)
    assert samples == [(5, 5, 5, 5)] * 50


def hoeffding_radius(trials: int, failure: float = 1e-9) -> float:
    """A mean of independent 0/1 trials is off by more than this with probability at most `failure`."""
    return math.sqrt(math.log(2 / failure) / (2 * trials))


@pytest.mark.parametrize(
    "make, depth",
    [
        (lambda: uniform_binary(300), 200),
        (lambda: geometric_omega(300, F(1, 2)), 150),
        (lambda: geometric_omega(300, F(9, 10)), 150),
    ],
    ids=["uniform_binary-200", "geometric-1/2-150", "geometric-9/10-150"],
)
def test_sampler_is_exact_past_the_first_chunk(make, depth):
    # past about 128 bits of depth every draw needs more than its first
    # chunk of random bits
    family, count = make(), 200
    child0 = family.edge_prob((), 0)  # every row is the same
    samples = sample_branches(family, 3, count, depth)
    assert all(len(t) == depth for t in samples)
    last = sum(t[-1] == 0 for t in samples) / count
    assert abs(last - child0) <= hoeffding_radius(count)
    # the levels are independent, so the levels past the first chunk pool
    deep = [t[i] == 0 for t in samples for i in range(130, depth)]
    assert abs(sum(deep) / len(deep) - child0) <= hoeffding_radius(len(deep))


def test_sampler_skewed_family_frequency():
    fam = EdgeFamily.from_table({(): ["3/4", "1/4"]})
    samples = sample_branches(fam, seed=11, count=4000, depth=1)
    freq = sum(1 for t in samples if t == (0,)) / 4000
    assert abs(freq - 0.75) < 0.03


def test_clopen_mass_agrees_with_interval_lengths():
    # dual route: the clopen measure equals the total length of the
    # selected nodes' cells, computed from interval endpoints
    rng = random.Random(101)
    for _ in range(20):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        n = rng.randint(0, tree.height)
        front = sorted(enumerate_front(tree, n).nodes)
        cut = rng.randint(0, len(front))
        selected = frozenset(front[:cut])
        by_mass = clopen_mass(fam, ClopenSelection(n, selected))
        by_length = sum((node_interval(fam, s).width for s in selected), F(0))
        assert by_mass == by_length


def test_geometric_interval_structure():
    # child 0 takes the first half of the parent cell; child k+1 takes the
    # first half of what remains after child k
    g = geometric_omega(12)
    for t in [(), (1,), (0, 2)]:
        parent = node_interval(g, t)
        remainder_start = parent.lower
        for k in range(5):
            cell = node_interval(g, t + (k,))
            assert cell.lower == remainder_start
            assert cell.width == (parent.upper - remainder_start) / 2
            remainder_start = cell.upper
    # widths follow the closed form 2^-(|t| + sum(t))
    assert node_interval(g, (2, 1)).width == F(1, 2 ** (2 + 3))


def test_locate_branch_budget_guard():
    fam = uniform_binary(4)
    with pytest.raises(DepthBudgetExceeded):
        locate_branch(fam, F(1, 3), 5)


def test_branch_window_monotone_nesting():
    rng = random.Random(103)
    for fam in [uniform_binary(12), geometric_omega(12), dirac(5, 12)]:
        x = tuple(rng.randint(0, 1) for _ in range(10)) if fam.name == "uniform_binary" else (5,) * 10
        lowers, uppers = [], []
        for n in range(11):
            w = branch_window(fam, x, n)
            lowers.append(w.lower)
            uppers.append(w.upper)
        assert all(a <= b for a, b in zip(lowers, lowers[1:]))
        assert all(a >= b for a, b in zip(uppers, uppers[1:]))


def test_concurrent_reads_are_consistent():
    # generated trees memoize arity lookups; concurrent readers must agree
    import threading

    fam = uniform_binary(12)
    results = []
    errors = []

    def worker(seed):
        try:
            masses = [node_mass(fam, tuple((seed >> i) & 1 for i in range(10)))
                      for _ in range(50)]
            results.append(masses)
        except Exception as exc:  # noqa: BLE001 - collected for the assertion
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    assert not errors
    for masses in results:
        assert all(m == F(1, 1024) for m in masses)


def test_round_trip_locate_after_interval():
    # a point inside a positive node's cell descends back to that node
    rng = random.Random(97)
    for _ in range(15):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        endpoints = {node_interval(fam, t).lower for t in tree.nodes()} | {F(1)}
        for t in tree.nodes():
            iv = node_interval(fam, t)
            if iv.width == 0:
                continue
            y = iv.lower + iv.width / 3
            j = 3
            while y in endpoints:
                j += 2
                y = iv.lower + iv.width / j
            assert locate_branch(fam, y, len(t)) == t


def test_locate_branch_geometric_is_bounded_near_one():
    # 1 - 2^-40 lies in child k ~ 27,700 of ratio 999/1000; a scan over k
    # computing r^k afresh each step did not finish in 20 s
    r = F(999, 1000)
    y = 1 - F(1, 2**40)
    start = time.perf_counter()
    (k,) = locate_branch(geometric_omega(1, r), y, 1)
    assert time.perf_counter() - start < 1
    assert r ** (k + 1) < 1 - y <= r**k


def test_negative_depth_is_rejected():
    fam = uniform_binary(8)
    for call in (
        lambda: locate_branch(fam, F(1, 3), -1),
        lambda: sample_branches(fam, 1, 0, -1),
        lambda: level(fam.tree, -1),
    ):
        with pytest.raises(NegativeDepth) as info:
            call()
        assert isinstance(info.value, ValueError)


def test_cylinder_frequencies_refuse_a_negative_depth():
    # depth -1 used to count the prefixes s[:-1], one level short
    samples = sample_branches(uniform_binary(8), 1, 20, 3)
    with pytest.raises(NegativeDepth, match=r"^depth -1 is negative$") as info:
        cylinder_frequencies(samples, -1)
    assert isinstance(info.value, ValueError)
    assert all(len(t) == 2 for t in cylinder_frequencies(samples, 2))


def test_negative_sample_count_is_rejected():
    # it used to return [] as if no draw had been asked for
    fam = uniform_binary(8)
    with pytest.raises(NegativeCount, match=r"^sample count -1 is negative$") as info:
        sample_branches(fam, 1, -1, 3)
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)
    assert sample_branches(fam, 1, 0, 3) == []


@pytest.mark.parametrize(
    "row",
    [["1/3", "1/3"], ["2/3", "2/3"], ["3/2", "-1/2"]],
    ids=["sum-2/3", "sum-4/3", "negative-mass"],
)
def test_descent_rejects_rows_that_are_not_distributions(row):
    # redraws used to condition away the missing mass: a 2/3 row gave
    # each child about half of the draws
    fam = rule_family({(): ["1/2", "1/2"], (1,): row})
    assert locate_branch(fam, F(1, 4), 2) == (0,)  # the bad row is never reached
    for call in (
        lambda: locate_branch(fam, F(3, 4), 2),
        lambda: sample_branches(fam, 1, 2000, 2),
    ):
        with pytest.raises(NotADistribution, match=r"node \(1,\)") as info:
            call()
        assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


def test_sampler_draws_are_pinned_to_their_seed():
    # literals from the Fraction descent the integer descent replaced
    assert sample_branches(uniform_binary(16), 42, 20, 16) == [
        (1, 0, 1, 1, 1, 1, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0), (0, 0, 1, 0, 0, 0, 1, 1, 1, 0, 1, 1, 1, 0, 0, 0),
        (1, 0, 1, 1, 1, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0), (1, 0, 0, 1, 0, 1, 1, 1, 0, 0, 1, 0, 1, 0, 1, 0),
        (0, 0, 0, 1, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0), (1, 0, 0, 1, 1, 0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1),
        (1, 0, 1, 1, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1), (0, 1, 1, 0, 1, 0, 1, 1, 0, 1, 1, 0, 0, 1, 0, 1),
        (0, 1, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 1, 1, 1), (1, 1, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1),
        (0, 1, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 0), (0, 0, 1, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1, 1, 1, 0),
        (0, 0, 0, 1, 1, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0), (0, 1, 0, 1, 1, 0, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0),
        (0, 1, 0, 0, 0, 0, 1, 1, 1, 0, 1, 1, 0, 1, 1, 1), (0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 1, 1, 0, 0),
        (1, 1, 1, 0, 1, 1, 0, 0, 0, 0, 0, 1, 1, 0, 1, 1), (0, 1, 0, 0, 1, 0, 1, 1, 0, 0, 0, 0, 1, 1, 0, 1),
        (1, 1, 1, 0, 0, 0, 1, 0, 1, 0, 1, 0, 1, 1, 0, 0), (0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1),
    ]
    assert sample_branches(geometric_omega(8, F(9, 10)), 7, 20, 8) == [
        (4, 14, 2, 3, 7, 6, 4, 13), (16, 4, 1, 13, 2, 2, 28, 8), (8, 3, 6, 11, 22, 4, 0, 12),
        (2, 3, 5, 27, 3, 14, 5, 11), (5, 1, 6, 27, 11, 1, 21, 16), (7, 9, 0, 2, 9, 5, 13, 2),
        (7, 23, 4, 6, 16, 1, 3, 1), (9, 5, 29, 1, 1, 7, 9, 3), (0, 9, 1, 9, 2, 6, 0, 11),
        (0, 6, 6, 18, 13, 22, 24, 16), (7, 12, 6, 1, 0, 13, 10, 13), (5, 1, 11, 5, 25, 2, 4, 19),
        (8, 0, 3, 10, 22, 13, 1, 17), (10, 20, 1, 2, 21, 7, 2, 0), (8, 0, 4, 10, 12, 12, 6, 0),
        (0, 34, 13, 9, 4, 1, 24, 0), (7, 21, 1, 4, 1, 6, 6, 11), (6, 7, 0, 6, 15, 14, 32, 13),
        (14, 2, 20, 47, 5, 6, 5, 18), (24, 4, 20, 14, 2, 1, 4, 8),
    ]
    fam = EdgeFamily.from_table(
        {(): ["1/6", "0", "1/2", "1/3"], (0,): ["1/3", "2/3"], (2,): ["0", "1/5", "4/5"], (2, 2): ["1/2", "1/2"]}
    )
    assert sample_branches(fam, 5, 20, 3) == [
        (2, 2, 0), (3,), (2, 2, 1), (3,), (0, 0), (2, 2, 0), (2, 2, 0), (2, 1), (2, 2, 0), (3,),
        (3,), (2, 2, 1), (0, 1), (0, 0), (3,), (0, 1), (2, 1), (2, 2, 1), (3,), (3,),
    ]


def test_sampler_draws_past_a_geometric_head_are_pinned_to_their_seed():
    # literals recorded before geometric rows had a head table: at r = 99/100 it holds children 0..35,
    # so most steps here take the tail's float-certified step, and the rest bisect the table
    assert sample_branches(geometric_omega(8, F(99, 100)), 7, 20, 8) == [
        (49, 356, 17, 13, 205, 39, 236, 59), (171, 39, 120, 50, 404, 46, 102, 39), (86, 381, 64, 109, 69, 158, 6, 45),
        (24, 4, 214, 79, 58, 72, 217, 127), (53, 217, 26, 88, 19, 38, 21, 8), (79, 114, 79, 96, 266, 12, 102, 207),
        (82, 262, 5, 49, 100, 166, 127, 281), (99, 10, 6, 24, 264, 80, 49, 258), (6, 43, 99, 25, 160, 149, 129, 49),
        (5, 6, 29, 37, 6, 4, 157, 19), (80, 273, 30, 216, 67, 21, 0, 10), (54, 5, 46, 65, 391, 94, 103, 59),
        (84, 20, 83, 10, 99, 30, 9, 1), (113, 593, 92, 10, 40, 1, 310, 29), (84, 29, 22, 88, 22, 35, 257, 585),
        (10, 22, 29, 82, 8, 42, 41, 52), (82, 113, 91, 46, 2, 18, 94, 10), (68, 29, 99, 159, 8, 399, 189, 111),
        (149, 52, 74, 8, 112, 29, 184, 169), (255, 114, 93, 21, 65, 37, 12, 16),
    ]


def test_sampler_draws_through_a_geometric_power_table_are_pinned_to_their_seed():
    # literals recorded while geometric descent took one level per bisection: the 1/2 and 19/20 rows now step two
    # levels at a time over their first 16 children, one at a time past them (the 9/10 draws, seed 7, are pinned
    # in test_sampler_draws_are_pinned_to_their_seed)
    assert sample_branches(geometric_omega(8), 7, 20, 8) == [
        (0, 2, 0, 1, 1, 0, 0, 1), (2, 1, 0, 1, 0, 0, 6, 0), (1, 0, 1, 1, 1, 0, 2, 0), (0, 0, 2, 2, 4, 2, 0, 3),
        (0, 2, 1, 2, 0, 0, 0, 2), (1, 0, 0, 2, 1, 0, 0, 1), (1, 0, 1, 0, 0, 0, 2, 0), (1, 1, 0, 0, 0, 1, 3, 0),
        (0, 0, 0, 0, 6, 1, 2, 0), (0, 0, 0, 0, 2, 0, 1, 2), (1, 0, 0, 3, 1, 0, 0, 0), (0, 2, 1, 2, 1, 0, 2, 0),
        (1, 0, 1, 0, 1, 0, 0, 1), (1, 1, 3, 1, 0, 1, 4, 3), (1, 0, 1, 0, 1, 0, 0, 3), (0, 0, 0, 2, 0, 0, 4, 0),
        (1, 0, 1, 0, 0, 0, 0, 4), (0, 7, 0, 0, 1, 1, 1, 0), (2, 0, 0, 2, 5, 0, 0, 0), (3, 2, 0, 0, 2, 0, 2, 1),
    ]
    assert sample_branches(geometric_omega(8, F(19, 20)), 7, 20, 8) == [
        (9, 30, 62, 3, 1, 82, 0, 11), (33, 16, 25, 34, 2, 7, 10, 31), (17, 0, 39, 19, 8, 33, 6, 11),
        (4, 24, 19, 0, 12, 3, 4, 1), (10, 16, 4, 69, 0, 0, 36, 32), (15, 18, 32, 62, 5, 39, 31, 32),
        (16, 5, 23, 57, 9, 2, 11, 68), (19, 10, 25, 1, 3, 32, 12, 40), (1, 5, 18, 5, 11, 13, 11, 8),
        (0, 93, 19, 0, 40, 23, 4, 1), (15, 38, 15, 10, 11, 20, 55, 22), (10, 17, 25, 12, 10, 9, 17, 2),
        (16, 13, 17, 3, 43, 36, 11, 1), (22, 8, 3, 20, 14, 9, 17, 38), (16, 14, 2, 3, 38, 1, 0, 9),
        (1, 127, 6, 8, 26, 7, 5, 25), (16, 4, 12, 0, 33, 1, 8, 36), (13, 9, 7, 29, 47, 18, 24, 2),
        (29, 6, 10, 10, 7, 6, 13, 69), (50, 2, 1, 7, 6, 17, 21, 26),
    ]


def test_sampler_draws_through_a_power_row_are_pinned_to_their_seed():
    # literals recorded while descent took one level per bisection: the ternary row steps
    # 5 levels at a time, then 2 single levels; the fair coin 8 at a time, and its draws
    # spill past the first 128-bit chunk, so refinements land in the middle of a stride
    ternary = EdgeFamily(GeneratedTree(3, 40), FiniteDist(["0", "1/3", "2/3"]))
    assert ["".join(map(str, t)) for t in sample_branches(ternary, 5, 12, 17)] == [
        "21121111222212122", "22221221122212122", "21222221211221222", "22212221122221221",
        "11212211222221222", "21121222212122221", "21122122111222222", "12221212122221212",
        "21211112112222222", "22221222222222212", "22212211221222221", "22121211222212111",
    ]
    assert ["".join(map(str, t)) for t in sample_branches(uniform_binary(300), 9, 3, 130)] == [
        "0100010001100010111010111111110001011111100100010101111011110000100111001111101110101100011011100111011010000111101001100110111010",
        "0111011010110110011101000101000110000000101101100101001110000110010101101001110010000000001101100000000110100101101110100101000001",
        "1011001100111001101001000111011010011101110111001100011011111000111011111011011011111011111111101000110111100100101010110100011100",
    ]


def test_a_power_row_is_built_by_the_first_descent_that_reaches_its_stride():
    # the fair coin's power row takes 8 levels a step: shallower descents step one level at a time and build no table
    fam = uniform_binary(16)
    shallow = sample_branches(fam, 3, 20, 3)
    assert len(sample_branches(fam, 3, 20, 7)) == 20 and locate_branch(fam, F(1, 3), 7) == (0, 1, 0, 1, 0, 1, 0)
    assert fam._power is None
    deep = sample_branches(fam, 3, 20, 8)
    q, runs, hits, end = fam._power  # 256 strings of 8 children over 2^8, the last ending at 1
    assert len(hits) == 256 and {len(digits) for digits, *_ in hits} == {8} and q == end == runs[-1] == 2**8
    # a 128-bit draw never straddles a dyadic cell this shallow, so each draw is a prefix of the deeper one
    assert [t[:3] for t in deep] == shallow == sample_branches(fam, 3, 20, 3)
    assert sample_branches(uniform_binary(16), 3, 20, 8) == deep


def test_a_family_searches_its_power_stride_once():
    # the fair coin steps 8 levels a power step: descents shallower than that build no power row and search no stride
    search = mock.patch.object(FiniteDist, "_stride", autospec=True, side_effect=FiniteDist._stride)
    build = mock.patch.object(FiniteDist, "_power", autospec=True, side_effect=FiniteDist._power)
    with search as stride, build as power:
        fam = uniform_binary(16)
        sample_branches(fam, 3, 20, 3)
        assert stride.call_count <= 1 and power.call_count == 0
        sample_branches(fam, 3, 20, 8)
        sample_branches(fam, 3, 20, 16)
        assert stride.call_count <= 1 and power.call_count == 1


def test_a_geometric_family_builds_its_power_table_once():
    # r = 1/2 steps 2 levels a power step: a depth-1 descent builds no table, deeper ones build it once;
    # at r = 99/100 the first 16 children hold under half the mass, so the family builds none
    search = mock.patch.object(Geometric, "_stride", autospec=True, side_effect=Geometric._stride)
    build = mock.patch.object(Geometric, "_power", autospec=True, side_effect=Geometric._power)
    with search as stride, build as power:
        fam = geometric_omega(16)
        sample_branches(fam, 3, 20, 1)
        assert locate_branch(fam, F(1, 3), 1) == (0,)
        assert stride.call_count <= 1 and power.call_count == 0 and fam._power is None
        sample_branches(fam, 3, 20, 2)
        sample_branches(fam, 3, 20, 16)
        assert stride.call_count <= 1 and power.call_count == 1
        q, runs, hits, end = fam._power  # 16 · 16 strings and a tail entry per first child, over 2^32
        assert len(hits) == 16 * 17 and q == 2**32 and end == runs[-1] == q - q // 2**16  # 1 - r^16
        slow = geometric_omega(16, F(99, 100))
        sample_branches(slow, 3, 20, 16)
        assert power.call_count == 1 and slow._power is None


def test_a_deep_rule_walk_keeps_no_path_per_level():
    # a rule node's state holds its path, so a walk that kept every level's state would hold
    # depth^2 / 2 path entries: 8 million (about 63 MiB) for one end at depth 4,000
    n = 4_000
    fam = EdgeFamily(GeneratedTree(lambda t: 2, n), lambda t: FiniteDist(["1/2", "1/2"]))
    x, expected = (1,) * n, F(1, 2**n)
    tracemalloc.start()
    try:
        assert node_mass(fam, x) == expected
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_explicit_walks_are_linear_in_the_depth():
    # a chain to depth 8,000: node 0^i has the row (1/3, 2/3), its child 1 is maximal and its child 0 goes on;
    # reading each row by its path made every walk here quadratic, 0.35-0.55 s on a 2-vCPU host
    n = 8_000
    spine = [(0,) * i for i in range(n + 1)]
    children = {t: (0, 1) for t in spine[:-1]} | {t + (1,): () for t in spine[:-1]} | {spine[-1]: ()}
    fam = EdgeFamily(ExplicitTree(children), dict.fromkeys(spine[:-1], FiniteDist(["1/3", "2/3"])))
    x = spine[-1]
    assert node_mass(fam, x) == F(1, 3**n)  # the warm-up walk builds the family's states
    for call, expected in (
        (lambda: node_mass(fam, x), F(1, 3**n)),
        (lambda: node_interval(fam, x), (0, F(1, 3**n))),
        (lambda: branch_window(fam, x, n).width, F(1, 3**n)),
        (lambda: locate_branch(fam, 0, n), x),
    ):
        start = time.perf_counter()
        assert call() == expected
        assert time.perf_counter() - start < 0.2
