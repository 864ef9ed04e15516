"""Each fact is checked where the data enters, and nowhere else.

Rows: `EdgeFamily.__init__` for a table or a shared row, and for a rule's
rows the gate in the node states below `EdgeFamily._root`, which every walk,
descent, fold and `induced_measure` reads through.
Tree shape: `ExplicitTree.__init__`. Values: `as_fraction`, which refuses
floats, and strings too long or with too large an exponent to read.
Depths: `_check_budget`. Nodes: a tree's `contains`, which `require` and the
checked accessors call where a path enters.
"""

import json
import random
import re
from fractions import Fraction as F
from functools import partial

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    ClopenSelection,
    DependentTrialTree,
    DepthBudgetExceeded,
    EdgeFamily,
    ExplicitTree,
    FiniteDist,
    FrontVariable,
    GeneralPair,
    GeneratedTree,
    InductiveMeasure,
    InexactValue,
    InfiniteLevel,
    InvalidArgument,
    MalformedClopen,
    MalformedPair,
    MalformedTree,
    NegativeDepth,
    NotADistribution,
    NotASubtree,
    NotATrialTree,
    OversizedValue,
    PTreeError,
    SpecValidationError,
    TowerCase,
    TowerReport,
    binomial_cdf,
    binomial_pmf,
    branch_window,
    classify,
    clopen_mass,
    complete_binary_tree,
    dominance_check,
    enumerate_front,
    freeness_report,
    geometric_omega,
    induced_measure,
    locate_branch,
    node_interval,
    node_mass,
    pair_from_family,
    parse_spec,
    positive_part,
    random_trial_tree,
    relative_expect,
    serialize_spec,
    split_measure,
    subtree_mass_bound,
    tower_check,
    uniform_binary,
    validate_edge_family,
    verify_encoding,
)
from ptree import encoding
from ptree.cli import main
from ptree.dists import MAX_POWER_BITS, Geometric, PointMass, as_fraction, show
from ptree.paths import OMEGA

from corpus import random_family, random_tree, rule_family

BAD_ROWS = {"short-sum": ["1/3", "1/3"], "negative-mass": ["3/2", "-1/2"]}
QUERIES = [
    "node_mass", "node_interval", "branch_window", "clopen_mass", "subtree_mass_bound", "relative_expect",
    "tower_check",
]


def _queries_below_the_root(fam):
    variable = FrontVariable(enumerate_front(fam.tree, 1), {(0,): 1, (1,): 2})
    return {
        "node_mass": lambda: node_mass(fam, (1,)),
        "node_interval": lambda: node_interval(fam, (1,)),
        "branch_window": lambda: branch_window(fam, (1,), 1),
        "clopen_mass": lambda: clopen_mass(fam, ClopenSelection(1, frozenset({(1,)}))),
        "subtree_mass_bound": lambda: subtree_mass_bound(fam, [(), (0,), (1,)], 1),
        "relative_expect": lambda: relative_expect(fam, variable, ()),
        "tower_check": lambda: tower_check(fam, variable, 0, 1, 1),
    }


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("row", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_walks_reject_a_bad_root_row(row, query):
    # each of these used to answer: node_mass 1/3, relative_expect 1, ...
    fam = rule_family({(): row})
    with pytest.raises(NotADistribution, match=r"at node \(\) ") as info:
        _queries_below_the_root(fam)[query]()
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


def test_positive_part_reads_a_shared_row_through_the_gate():
    # the shortcut for a shared row positive on its whole support never meets a bad one: the constructor refuses it
    with pytest.raises(NotADistribution, match=r"^the masses at node \(\) are not a probability distribution: "):
        EdgeFamily(GeneratedTree(2, 5), FiniteDist(["1/3", "1/3"]))
    # a rule serving that row at every node is refused by the walk from the root
    fam = EdgeFamily(GeneratedTree(2, 5), lambda t: FiniteDist(["1/3", "1/3"]))
    with pytest.raises(NotADistribution, match=r"^the masses at node \(\) are not a probability distribution: "):
        positive_part(fam)


@pytest.mark.parametrize("query", ["node_mass", "relative_expect", "tower_check"])
def test_every_walk_names_the_shallowest_refused_row(query):
    # the expectation fold reads a node's row before folding its children, so it names the row every walk names
    fam = rule_family({(): ["1/3", "1/3"], (0,): ["1/3", "1/3"], (1,): ["1/2", "1/2"]})
    variable = _level_variable(fam, 2)
    call = {
        "node_mass": lambda: node_mass(fam, (0, 0)),
        "relative_expect": lambda: relative_expect(fam, variable, ()),
        "tower_check": lambda: tower_check(fam, variable, 0, 1, 2),
    }[query]
    with pytest.raises(NotADistribution, match=r"^the masses at node \(\) "):
        call()


def _level_variable(fam, level):
    front = enumerate_front(fam.tree, level)
    return FrontVariable(front, {t: i for i, t in enumerate(sorted(front.nodes))})


@pytest.mark.parametrize("row", list(BAD_ROWS.values()), ids=list(BAD_ROWS))
def test_walks_answer_when_the_path_avoids_the_bad_row(row):
    fam = rule_family({(): ["1/2", "1/2"], (0,): ["1/4", "3/4"], (1,): row})
    variable = _level_variable(fam, 2)
    assert node_mass(fam, (0, 0)) == F(1, 8)
    assert node_interval(fam, (0, 1)) == (F(1, 8), F(1, 2))
    assert branch_window(fam, (0, 1), 2).lower == F(1, 8)
    assert clopen_mass(fam, ClopenSelection(2, frozenset({(0, 0), (0, 1)}))) == F(1, 2)
    assert subtree_mass_bound(fam, [(), (0,), (0, 0), (0, 1)], 2).values == (1, F(1, 2), F(1, 2))
    # members (0, 0) and (0, 1) carry the values 0 and 1
    assert relative_expect(fam, variable, (0,)) == F(3, 4)
    for call in (
        lambda: node_mass(fam, (1, 0)),
        lambda: node_interval(fam, (1, 1)),
        lambda: clopen_mass(fam, ClopenSelection(2, frozenset({(0, 0), (1, 0)}))),
        lambda: relative_expect(fam, variable, ()),
        lambda: tower_check(fam, variable, 0, 1, 2),
        lambda: induced_measure(fam, 2),
        lambda: locate_branch(fam, F(3, 4), 2),
    ):
        with pytest.raises(NotADistribution, match=r"node \(1,\)"):
            call()


def test_no_row_above_the_start_of_a_walk_is_read():
    # the root row sums to 3/4; the tower check at level 1 walks from each level-1 node, and the
    # expectation at (0,) folds the subtree below it, so neither reads the root row
    fam = rule_family({(): ["1/2", "1/4"], (0,): ["1/4", "3/4"], (1,): ["1/2", "1/2"]})
    front = enumerate_front(fam.tree, 2)
    variable = FrontVariable(front, {t: sum(t) for t in front.nodes})
    assert tower_check(fam, variable, 1, 1, 2).equal is True
    assert relative_expect(fam, variable, (0,)) == F(3, 4)


def test_the_gate_covers_generated_rules():
    bad = FiniteDist(["1/2", "1/4"])
    fam = EdgeFamily(GeneratedTree(lambda t: 2, 8), lambda t: bad if t == (1,) else FiniteDist(["1/2", "1/2"]))
    assert node_mass(fam, (0, 1, 1)) == F(1, 8)
    with pytest.raises(NotADistribution, match=r"at node \(1,\) .*: masses sum to 3/4, not 1"):
        node_mass(fam, (1, 0))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 2))
def test_walk_answers_or_names_the_shallowest_bad_row(rng, corrupt):
    fam = random_family(rng, random_tree(rng, max_depth=4, max_arity=3), allow_zero=True)
    table = fam.dist_table()
    bad = set(rng.sample(sorted(table), min(corrupt, len(table))))
    for t in bad:
        masses = list(table[t].masses)
        masses[rng.randrange(len(masses))] += F(rng.choice([-3, -1, 1, 2]), rng.randint(2, 5))
        table[t] = FiniteDist(masses)
    tree, fam = fam.tree, rule_family(table)
    for t in tree.nodes():
        on_path = [t[:i] for i in range(len(t)) if t[:i] in bad]
        if on_path:
            with pytest.raises(NotADistribution, match=f"at node {re.escape(str(on_path[0]))} "):
                node_mass(fam, t)
        else:
            expected = F(1)
            for i in range(len(t)):
                expected *= table[t[:i]].mass(t[i])
            assert node_mass(fam, t) == node_interval(fam, t).width == expected


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.integers(0, 6), st.fractions(-1, 2, max_denominator=12), max_size=5))
def test_row_form_matches_fraction_sums(row):
    d = FiniteDist(row)
    masses = sorted(row.items())
    assert d.total == sum(row.values(), F(0))
    for k in range(8):
        assert d.prefix_mass(k) == sum((m for j, m in masses if j < k), F(0))
    outside = [(j, m) for j, m in masses if not 0 <= m <= 1]
    if outside:
        assert d.defect() == f"child {outside[0][0]} has mass {outside[0][1]} outside [0, 1]"
    elif d.total != 1:
        assert d.defect() == f"masses sum to {d.total}, not 1"
    else:
        assert d.defect() is None


def test_mapping_keys_are_ordered_as_child_indices():
    # string keys sort as text ("10" < "9"); the row must sort by index
    d = FiniteDist({"10": "1/4", "9": "3/4"})
    assert d.items() == ((9, F(3, 4)), (10, F(1, 4)))
    assert d.cell(9) == (0, 3, 4) and d.mass(10) == F(1, 4)


def test_mapping_keys_that_name_one_index_twice_are_refused():
    with pytest.raises(ValueError, match="duplicate child index"):
        FiniteDist({"1": "1/2", "01": "1/2"})


def test_validate_reports_the_first_defect_of_each_row():
    fam = rule_family({(): ["1/2", "1/2"], (0,): ["1/3", "1/3"], (1,): ["3/2", "-1/2"]})
    assert validate_edge_family(fam).violations == (  # in preorder
        ((0,), "masses sum to 2/3, not 1"),
        ((1,), "child 0 has mass 3/2 outside [0, 1]"),
    )


def test_pair_rejects_a_filler_with_a_negative_mass():
    # the total is 1, which was all that was checked
    pair = pair_from_family(EdgeFamily.from_table({(): ["1", "0"], (1,): ["1/2", "1/2"]}))
    with pytest.raises(MalformedPair, match=r"filler at \(1,\) is not a distribution: child 0 has mass 3/2"):
        GeneralPair(pair.host_tree, pair.positive, {(1,): FiniteDist(["3/2", "-1/2"])})


def test_pair_refuses_a_partial_positive_measure():
    tree = complete_binary_tree(2)
    partial = InductiveMeasure(tree, {(): 1, (0,): F(1, 2), (1,): F(1, 2)}, depth=1)
    with pytest.raises(MalformedPair, match="a pair needs the whole positive measure, not one materialized to depth 1"):
        GeneralPair(tree, partial, {})


@pytest.fixture
def node_checks(monkeypatch):
    """Count the trees' node checks: calls of `contains` or `require`, one that calls the other counted once."""
    count, active = [0], [False]

    def spy(fn):
        def counted(self, t):
            if active[0]:
                return fn(self, t)
            count[0] += 1
            active[0] = True
            try:
                return fn(self, t)
            finally:
                active[0] = False

        return counted

    for cls in {*ExplicitTree.__mro__, *GeneratedTree.__mro__}:
        for name in ("contains", "require"):
            if name in vars(cls):
                monkeypatch.setattr(cls, name, spy(vars(cls)[name]))
    return count


def test_library_code_checks_each_node_once(node_checks):
    tree = complete_binary_tree(10)
    fam = EdgeFamily(tree, {t: FiniteDist(["1/3", "2/3"]) for t in tree.nodes() if len(t) < 10})
    variable = FrontVariable(enumerate_front(tree, 10), {t: len(t) + sum(t) for t in tree.level_nodes(10)})
    node_checks[0] = 0
    relative_expect(fam, variable, ())  # the fold below the root reads 1,023 produced nodes
    assert node_checks[0] == 1
    node_checks[0] = 0
    assert tower_check(fam, variable, 0, 5, 10).equal
    assert node_checks[0] == 32  # the walk's 32 ends; the level-5 nodes are produced, not checked
    node_checks[0] = 0
    branch_window(uniform_binary(64), (0, 1) * 32, 64)
    assert node_checks[0] == 1  # the path; the walk reads its prefix unchecked
    source = random_family(random.Random(3), random_tree(random.Random(3), max_depth=4, max_arity=4))
    enc = encoding.binary_encode(source.tree, source.tree.height)
    node_checks[0] = 0
    assert verify_encoding(source, source.tree.height).ok
    assert node_checks[0] == len(enc.h)  # the walk's ends; the image tree is read, not checked


def test_internal_measures_skip_the_law_check(monkeypatch):
    checked = []
    real = InductiveMeasure._validate
    monkeypatch.setattr(InductiveMeasure, "_validate", lambda self: checked.append(self) or real(self))
    fam = EdgeFamily.from_table({(): ["1", "0"], (1,): ["1/2", "1/2"]})
    measure = induced_measure(fam)
    positive, null = split_measure(measure)
    assert checked == []
    # what they build is what the checked constructor accepts
    assert InductiveMeasure(fam.tree, dict(measure.items())) == measure
    assert InductiveMeasure(positive.tree, dict(positive.items())) == positive
    assert len(checked) == 2
    assert null == {(1,), (1, 0), (1, 1)}


@pytest.mark.parametrize(
    "children, node, reason",
    [
        ({(0,): ()}, (), "the root node is missing"),
        ({(): (0,)}, (0,), "declared child is missing"),
        ({(): (), (3,): ()}, (3,), "the parent does not declare this child"),
        ({(): (0,), (0,): (), (0, 1, 2): ()}, (0, 1, 2), "parent node is missing (keys must be prefix-closed)"),
        ({(): (-1,), (-1,): ()}, (), "negative child index"),
        ({(): (0, 0), (0,): ()}, (), "duplicate child index"),
    ],
)
def test_explicit_tree_names_the_bad_node(children, node, reason):
    with pytest.raises(MalformedTree) as info:
        ExplicitTree(children)
    assert (info.value.node, info.value.reason) == (node, reason)
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


_TWO_LEAVES = ExplicitTree({(): (0, 1), (0,): (0, 1), (1,): (), (0, 0): (), (0, 1): ()})


# (tree, dists, message): EdgeFamily(tree, dists) raises message
_SHAPE_REFUSALS = [
    (uniform_binary(3).tree, {(): FiniteDist(["1/2", "1/2"])}, "distribution tables require an explicit tree"),
    # (0,) is interior, and both of its children are leaves
    (_TWO_LEAVES, {(): FiniteDist(["1/2", "1/2"])}, "distribution table must cover exactly the non-maximal nodes"),
    (
        ExplicitTree({(): (0, 1), (0,): (), (1,): ()}),
        {(): Geometric("1/2")},
        "closed-form distributions require a generated tree",
    ),
    (
        _TWO_LEAVES,
        {(): FiniteDist(["1/2", "1/2"]), (0,): FiniteDist({0: "1/2", 2: "1/2"})},
        r"distribution at \(0,\) does not match the child set",
    ),
    (_TWO_LEAVES, lambda t: FiniteDist(["1/2", "1/2"]), "distribution rules require a generated tree"),
]
_SHAPE_IDS = ["table-on-generated", "missing-row", "closed-form-row", "child-set", "rule-on-explicit"]


@pytest.mark.parametrize("tree, dists, message", _SHAPE_REFUSALS, ids=_SHAPE_IDS)
def test_edge_family_refuses_a_table_or_rule_that_does_not_fit_its_tree(tree, dists, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        EdgeFamily(tree, dists)


@pytest.mark.parametrize(
    "nodes, key, reason",
    [
        ({"0": {"arity": 0}}, "", "the root node is missing"),
        ({"": {"arity": 2, "probs": ["1/2", "1/2"]}, "0": {"arity": 0}}, "1", "declared child is missing"),
        (
            {"": {"arity": 1, "probs": ["1"]}, "0": {"arity": 0}, "0.0.0": {"arity": 0}},
            "0.0.0",
            "parent node is missing (keys must be prefix-closed)",
        ),
        (
            {"": {"arity": 1, "probs": ["1"]}, "0": {"arity": 0}, "1": {"arity": 0}},
            "1",
            "the parent does not declare this child",
        ),
        (
            {"": {"arity": 2, "probs": ["3/2", "-1/2"]}, "0": {"arity": 0}, "1": {"arity": 0}},
            "",
            "child 0 has mass 3/2 outside [0, 1]",
        ),
    ],
)
def test_spec_errors_carry_the_key_and_the_reason(nodes, key, reason):
    with pytest.raises(SpecValidationError) as info:
        parse_spec(json.dumps({"version": 1, "representation": "explicit", "nodes": nodes}))
    assert (info.value.path, info.value.reason) == (key, reason)


def test_an_explicit_tree_taller_than_its_budget_is_refused():
    # such a tree answers queries past its budget but refuses them at the budget
    with pytest.raises(MalformedTree) as info:
        ExplicitTree({(): (0,), (0,): (0, 1), (0, 0): (), (0, 1): ()}, depth_budget=1)
    assert len(info.value.node) == 2 and info.value.reason == "lies deeper than the depth budget 1"
    nodes = {"": {"arity": 1, "probs": ["1"]}, "0": {"arity": 2, "probs": ["1/2", "1/2"]}, "0.0": {"arity": 0}, "0.1": {"arity": 0}}
    with pytest.raises(SpecValidationError) as info:
        parse_spec(json.dumps({"version": 1, "representation": "explicit", "depth_budget": 1, "nodes": nodes}))
    assert (info.value.path, info.value.reason) == ("0.0", "lies deeper than the depth budget 1")
    fits = parse_spec(json.dumps({"version": 1, "representation": "explicit", "depth_budget": 2, "nodes": nodes}))
    assert fits.tree.height == fits.tree.depth_budget == 2


@pytest.mark.parametrize(
    "call",
    [
        lambda: as_fraction(0.5),
        lambda: FiniteDist([0.5, 0.5]),
        lambda: EdgeFamily.from_table({(): [0.1, 0.9]}),
        lambda: locate_branch(uniform_binary(4), 0.3, 3),
        lambda: dominance_check(random_trial_tree(3, 1, 0), 0.25),
        lambda: freeness_report(uniform_binary(4), 3, 0.1),
        lambda: FrontVariable(enumerate_front(uniform_binary(4).tree, 1), {(0,): 0.5, (1,): 1}),
    ],
    ids=["as_fraction", "FiniteDist", "from_table", "locate_branch", "dominance_check", "freeness_report",
         "FrontVariable"],
)
def test_floats_are_rejected_where_values_are_converted(call):
    with pytest.raises(InexactValue) as info:
        call()
    assert isinstance(info.value, PTreeError) and isinstance(info.value, TypeError)


@pytest.mark.parametrize("text", ["1e-10001", "1E+1_0001", "1" * 4001, "2/" + "3" * 4000])
def test_oversized_fraction_strings_are_refused_before_they_are_built(text):
    with pytest.raises(OversizedValue) as info:
        as_fraction(text)
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)
    assert len(str(info.value)) < 200


def test_the_string_bounds_admit_their_limits():
    assert as_fraction("1e-10000") == F(1, 10**10000)
    assert as_fraction("1" * 4000) == int("1" * 4000)


def test_oversized_cli_fractions_are_usage_errors(capsys):
    with pytest.raises(SystemExit) as info:
        main(["bound", "--random", "1", "--n", "3", "--p", "1e-10000000"])
    assert info.value.code == 2 and "exponent beyond" in capsys.readouterr().err


def test_a_defect_message_abbreviates_a_long_sum():
    defect = FiniteDist(["1e-5000", "1/2"]).defect()  # the sum has 5,000 digits
    assert defect.startswith("masses sum to ~2^-1 (") and defect.endswith("-bit fraction), not 1")


def test_a_family_name_abbreviates_a_long_ratio():
    fam = geometric_omega(8, F(1, 10**5000))
    assert fam.name.startswith("geometric_omega(~2^-16609 (") and len(fam.name) < 80
    assert node_mass(fam, (0,)) == 1 - F(1, 10**5000)


def test_a_geometric_child_past_the_power_limit_is_refused():
    half = Geometric(F(1, 2))
    kmax = MAX_POWER_BITS // 2  # r = 1/2: k · bits(2) <= MAX_POWER_BITS
    assert half.cell(kmax) == ((2**kmax - 1) * 2, 1, 2 ** (kmax + 1))  # [1 - 2^-kmax, 1 - 2^-(kmax+1))
    for call in (lambda: half.cell(kmax + 1), lambda: node_interval(geometric_omega(2), (10**9,))):
        with pytest.raises(OversizedValue, match=f"geometric children past {kmax} are refused") as info:
            call()
        assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize("row", [Geometric("1/2"), PointMass(2)], ids=repr)
@pytest.mark.parametrize("query", ["cell", "mass", "prefix_mass"])
def test_a_closed_form_refuses_a_negative_child(row, query):
    # Geometric used to answer cell(-1) in floats; PointMass gave child -1 mass 0
    with pytest.raises(ValueError, match=re.escape("child index -1 not in distribution support OMEGA")) as info:
        getattr(row, query)(-1)
    assert isinstance(info.value, InvalidArgument)  # as a finite row refuses a non-child; still a ValueError
    with pytest.raises(ValueError, match=re.escape("child index -1 not in distribution support (0, 1)")):
        FiniteDist(["1/2", "1/2"]).cell(-1)


@pytest.mark.parametrize("row", [FiniteDist(["1/2", "1/2"]), FiniteDist({1: "1/2", 4: "1/2"})], ids=["canonical", "sparse"])
@pytest.mark.parametrize("query", ["cell", "mass"])
def test_a_finite_row_refuses_a_child_below_minus_its_length(row, query):
    # -3 lies below -len(row): indexing the row with it would raise IndexError
    with pytest.raises(ValueError, match=re.escape(f"child index -3 not in distribution support {row.indices}")):
        getattr(row, query)(-3)


@pytest.mark.parametrize("e", [1000, 3000])  # 1/log r is finite at 2^-1000, out of float range at 2^-3000
def test_geometric_locate_next_to_one(e):
    row = Geometric(1 - F(1, 2**e))
    assert row.locate(1, 2 ** (e + 1)) == (0,) + row.cell(0)  # v = 1 - 2^-(e+1) > r: child 0
    assert row.locate(1, 2 ** (e - 1))[0] == 2  # r^2 >= 1 - 2^-(e-1) > r^3


def test_show_abbreviates_past_its_bit_length_only():
    assert show(F(-(2**2000), 3)) == "-~2^1999 (2001-bit/2-bit fraction)"
    assert show(F(2**1023, 3)) == str(F(2**1023, 3))


def test_decimal_strings_stay_exact():
    assert FiniteDist(["0.1", "0.9"]).masses == (F(1, 10), F(9, 10))
    assert locate_branch(uniform_binary(4), "0.3", 3) == locate_branch(uniform_binary(4), F(3, 10), 3) == (0, 1, 0)
    assert freeness_report(uniform_binary(4), 3, "0.2").verdict == "free_certified"


def _two_level_family():
    return EdgeFamily.from_table({(): ["1/2", "1/2"], (0,): ["1/4", "3/4"]})


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: locate_branch(uniform_binary(4), F(-1, 2), 2), ValueError, r"the point must lie in \[0, 1\]"),
        (lambda: locate_branch(uniform_binary(4), F(3, 2), 2), ValueError, r"the point must lie in \[0, 1\]"),
        (
            lambda: clopen_mass(_two_level_family(), ClopenSelection(1, frozenset({(5,)}))),
            MalformedClopen,
            r"selected node \(5,\) is not in the tree",
        ),
        (
            lambda: clopen_mass(_two_level_family(), ClopenSelection(2, frozenset({(0,)}))),
            MalformedClopen,
            r"selected node \(0,\) is neither at level 2 nor maximal",
        ),
        (
            lambda: subtree_mass_bound(_two_level_family(), [(), (2,)], 1),
            NotASubtree,
            r"node \(2,\) is not in the host tree",
        ),
    ],
    ids=["locate-below-0", "locate-above-1", "clopen-outside", "clopen-off-level", "subtree-outside"],
)
def test_interval_queries_refuse_points_and_nodes_outside_the_tree(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


_HALVES = EdgeFamily.from_table({(): ["1/2", "1/2"]})
_ON_HALVES = FrontVariable(enumerate_front(_HALVES.tree, 1), {(0,): 1, (1,): 2})
_ON_THIRDS = FrontVariable(enumerate_front(ExplicitTree({(): (0, 1, 2), (0,): (), (1,): (), (2,): ()}), 1), dict.fromkeys([(0,), (1,), (2,)], 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (
            lambda: InductiveMeasure(GeneratedTree(2, 3), {(): 1}),
            ValueError,
            "measures over generated trees need a materialization depth",
        ),
        (lambda: InductiveMeasure(_HALVES.tree, {(): 1, (0,): F(3, 2)}), ValueError, r"mass at \(0,\) is 3/2, outside \[0, 1\]"),
        (
            lambda: InductiveMeasure(_HALVES.tree, {(): 1, (0,): 1}),
            ValueError,
            r"successors of \(\) are not all materialized: \(1,\)",
        ),
        (lambda: induced_measure(uniform_binary(3)), ValueError, "materializing a generated family needs an explicit depth"),
        (
            lambda: positive_part(EdgeFamily(GeneratedTree(OMEGA, 3), lambda t: Geometric("1/2"))),
            InfiniteLevel,
            r"node \(\) has infinitely many positive successors",
        ),
        (lambda: GeneratedTree(2, -1), ValueError, "generated trees need a nonnegative depth budget"),
        (lambda: tower_check(_HALVES, _ON_HALVES, 1, 0, 1), ValueError, "levels must satisfy m <= n <= k"),
        (lambda: _ON_HALVES.scale_add(1, _ON_THIRDS, 1), ValueError, "variables live on different fronts"),
        (
            lambda: DependentTrialTree.from_success_probs(1, {(): F(3, 2)}),
            NotATrialTree,
            r"success probability at \(\) is 3/2, outside \[0, 1\]",
        ),
        (
            lambda: serialize_spec(EdgeFamily(GeneratedTree(2, 3), FiniteDist(["1/2", "1/2"]))),
            ValueError,
            "only named generated families can be serialized",
        ),
        (
            lambda: serialize_spec(positive_part(EdgeFamily.from_table({(): ["1/2", "0", "1/2"]}))[0]),
            ValueError,
            r"node \(\) has a sparse child set; the format stores canonical trees",
        ),
        (lambda: FiniteDist({-1: "1"}), ValueError, "negative child index"),
        (lambda: PointMass(-1), ValueError, "negative child index"),
        (lambda: uniform_binary(3).dist_table(), ValueError, "generated families have no finite distribution table"),
        (lambda: GeneratedTree(-1, 8), ValueError, "negative arity -1 at every node"),
        (lambda: GeneratedTree(lambda t: -1, 8).arity(()), ValueError, r"negative arity -1 at \(\)"),
    ],
    ids=[
        "measure-without-depth", "measure-mass-above-1", "measure-missing-successor", "induced-generated-without-depth",
        "positive-part-of-geometric-rule", "negative-tree-budget", "tower-levels-out-of-order", "scale-add-across-fronts",
        "trial-probability-above-1", "serialize-unnamed-generator", "serialize-sparse-positive-part",
        "finite-row-negative-index", "point-mass-negative-index", "dist-table-of-generated", "negative-shared-arity",
        "negative-rule-arity",
    ],
)
def test_public_entry_points_refuse_bad_arguments(call, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        call()


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda: InductiveMeasure(GeneratedTree(2, 3), {(): 1}), InvalidArgument),
        (lambda: InductiveMeasure(_HALVES.tree, {(): 1, (0,): F(3, 2)}), InvalidArgument),
        (lambda: InductiveMeasure(_HALVES.tree, {(): 1, (0,): 1}), InvalidArgument),
        (lambda: induced_measure(uniform_binary(3)), InvalidArgument),
        (lambda: GeneratedTree(2, -1), NegativeDepth),
        (lambda: tower_check(_HALVES, _ON_HALVES, 1, 0, 1), InvalidArgument),
        (lambda: _ON_HALVES.scale_add(1, _ON_THIRDS, 1), InvalidArgument),
        (lambda: serialize_spec(EdgeFamily(GeneratedTree(2, 3), FiniteDist(["1/2", "1/2"]))), InvalidArgument),
        (lambda: serialize_spec(positive_part(EdgeFamily.from_table({(): ["1/2", "0", "1/2"]}))[0]), InvalidArgument),
        (lambda: FiniteDist({-1: "1"}), InvalidArgument),
        (lambda: PointMass(-1), InvalidArgument),
        (lambda: uniform_binary(3).dist_table(), InvalidArgument),
        (lambda: complete_binary_tree(-1), NegativeDepth),
        (lambda: GeneratedTree(-1, 8), InvalidArgument),
        (lambda: GeneratedTree(lambda t: -1, 8).arity(()), InvalidArgument),
    ],
    ids=[
        "measure-without-depth", "measure-mass-above-1", "measure-missing-successor", "induced-generated-without-depth",
        "negative-tree-budget", "tower-levels-out-of-order", "scale-add-across-fronts", "serialize-unnamed-generator",
        "serialize-sparse-positive-part", "finite-row-negative-index", "point-mass-negative-index",
        "dist-table-of-generated", "complete-tree-negative-height", "negative-shared-arity", "negative-rule-arity",
    ],
)
def test_public_refusals_of_bad_arguments_are_library_errors(call, error):
    # a caller that catches PTreeError sees every refusal; each stays a ValueError too
    with pytest.raises(error) as info:
        call()
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "call, message",
    [
        *((partial(EdgeFamily, tree, dists), message) for tree, dists, message in _SHAPE_REFUSALS),
        (
            partial(EdgeFamily, GeneratedTree(3, 2), FiniteDist(["1/2", "1/2"])),
            r"the shared row FiniteDist\(\{0: 1/2, 1: 1/2\}\) needs a generated tree of matching shared arity",
        ),
        (partial(Geometric, 1), "geometric ratio must lie strictly between 0 and 1"),
    ],
    ids=[*_SHAPE_IDS, "shared-row-arity", "ratio"],
)
def test_family_shape_and_ratio_refusals_are_library_errors(call, message):
    # a caller that catches PTreeError sees each refusal, with its message as before; each stays a ValueError too
    with pytest.raises(InvalidArgument, match=f"^{message}$") as info:
        call()
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


_TWO_CASES = TowerReport((TowerCase((), F(1), F(1)), TowerCase((0,), F(1, 2), F(1, 2))))


@pytest.mark.parametrize(
    "call, message",
    [
        (partial(branch_window, uniform_binary(8), (0,), 3), r"branch prefix \(0,\) is shorter than depth 3 and not maximal"),
        (partial(locate_branch, _HALVES, F(3, 2), 1), r"the point must lie in \[0, 1\]"),
        (partial(FrontVariable, _ON_HALVES.front, {(0,): 1}), "variable values must cover exactly the front members"),
        (lambda: _TWO_CASES.lhs, "lhs is only defined for single-node reports"),
        (lambda: _TWO_CASES.rhs, "rhs is only defined for single-node reports"),
    ],
    ids=["short-branch-prefix", "point-outside-unit-interval", "variable-coverage", "tower-lhs", "tower-rhs"],
)
def test_window_descent_variable_and_tower_refusals_are_library_errors(call, message):
    # each refusal keeps its message and stays a ValueError, and a caller that catches PTreeError sees it
    with pytest.raises(InvalidArgument, match=f"^{message}$") as info:
        call()
    assert isinstance(info.value, PTreeError) and isinstance(info.value, ValueError)


def test_a_spec_with_a_bad_geometric_ratio_names_it(tmp_path, capsys):
    # the spec reader still catches the ratio refusal, and the CLI still names the file
    spec = tmp_path / "g.json"
    spec.write_text(json.dumps({"version": 1, "representation": "generator", "generator": "geometric_omega(3/2)"}))
    reason = "bad geometric ratio '3/2': geometric ratio must lie strictly between 0 and 1"
    with pytest.raises(SpecValidationError) as info:
        parse_spec(spec.read_text())
    assert info.value.reason == reason
    assert main(["sample", "--tree", str(spec), "--seed", "1", "--count", "1", "--depth", "2"]) == 1
    assert capsys.readouterr().err == f"error: {spec}: node '': {reason}\n"


def test_a_spec_with_a_ratio_too_long_for_its_name_names_it():
    # a ratio in (0, 1) whose denominator has 1,025 bits is refused before the family is built
    ratio = f"1/{2**1024 + 1}"
    doc = json.dumps({"version": 1, "representation": "generator", "generator": f"geometric_omega({ratio})"})
    with pytest.raises(SpecValidationError) as info:
        parse_spec(doc)
    assert str(info.value) == f"node '': bad geometric ratio '{ratio}': a family name spells out at most 1024 bits"


def test_a_depth_budget_round_trips_through_a_spec():
    fam = EdgeFamily.from_table({(): ["1/2", "1/2"]}, depth_budget=5)
    back = parse_spec(serialize_spec(fam))
    assert back == fam and back.tree.depth_budget == 5


def test_negative_depths_raise():
    ub = uniform_binary(8)
    for call in (lambda: validate_edge_family(ub, -1), lambda: classify(ub.tree, explore_depth=-1)):
        with pytest.raises(NegativeDepth):
            call()
    # validation still clamps to the budget
    assert validate_edge_family(ub, 20).checked_depth == 8


def test_binomial_checks_its_arguments_in_one_place():
    # a negative trial count gave the empty pmf and a CDF of 1
    for call in (lambda: binomial_pmf(-1, F(1, 2)), lambda: binomial_cdf(-1, F(1, 2), 0)):
        with pytest.raises(NotATrialTree):
            call()
    assert [binomial_cdf(3, F(1, 3), z) for z in (-2, 0, 1, 3, 7)] == [0, F(8, 27), F(20, 27), 1, 1]


def test_classify_checks_the_depth_before_walking():
    asked = []
    tree = GeneratedTree(lambda t: asked.append(t) or 2, 3)
    with pytest.raises(DepthBudgetExceeded):
        classify(tree, explore_depth=4)
    assert asked == []
    assert classify(tree, explore_depth=3).height_or_budget == 3


def test_cli_encode_verify_encodes_once(monkeypatch, tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text(serialize_spec(EdgeFamily.from_table({(): ["1/2", "1/3", "1/6"], (0,): ["1/2", "1/2"]})))
    depths = []
    real = encoding.binary_encode
    monkeypatch.setattr(encoding, "binary_encode", lambda tree, depth: depths.append(depth) or real(tree, depth))
    assert main(["encode", "--tree", str(spec), "--depth", "2", "--verify"]) == 0
    assert depths == [2]
    assert "verification: ok" in capsys.readouterr().out.splitlines()
