import dataclasses
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from ptree import (
    DepthBudgetExceeded,
    EdgeFamily,
    EncodingMismatch,
    ExplicitTree,
    FiniteDist,
    GeneralPair,
    InfiniteLevel,
    NotADistribution,
    UnknownNode,
    binary_encode,
    complete_binary_tree,
    embed_branch,
    encoded_measure,
    family_from_pair,
    geometric_omega,
    node_interval,
    node_mass,
    positive_part,
    split_measure,
    uniform_binary,
    verify_encoding,
)
from ptree import encoding
from ptree.cli import main
from ptree.paths import compatible, is_prefix
from ptree.specio import serialize_spec

from corpus import random_family, random_tree


def test_encode_binary_is_identity():
    tree = complete_binary_tree(3)
    enc = binary_encode(tree, 3)
    assert all(enc.h[t] == t for t in enc.h)
    assert enc.image == tree


def test_encode_arity3_example():
    tree = ExplicitTree.from_arities({(): 3})
    enc = binary_encode(tree, 1)
    assert enc.h[(0,)] == (0,)
    assert enc.h[(1,)] == (1, 0)
    assert enc.h[(2,)] == (1, 1)


def test_encode_unary_chain_collapses():
    tree = ExplicitTree.from_arities({(): 1, (0,): 1, (0, 0): 1})
    enc = binary_encode(tree, 3)
    assert set(enc.h.values()) == {()}
    assert set(enc.image.nodes()) == {()}


def test_encode_depth_budget_and_omega():
    fam = uniform_binary(4)
    with pytest.raises(DepthBudgetExceeded):
        binary_encode(fam.tree, 5)
    with pytest.raises(InfiniteLevel):
        binary_encode(geometric_omega(4).tree, 1)


def test_embed_branch_examples():
    tree = ExplicitTree.from_arities({(): 3, (2,): 3})
    enc = binary_encode(tree, 2)
    assert embed_branch(enc, (2,)) == (1, 1)
    assert embed_branch(enc, (2, 2)) == (1, 1, 1, 1)
    assert embed_branch(enc, ()) == ()


def test_map_node_refuses_nodes_past_the_encoded_depth_and_nodes_never_encoded():
    enc = binary_encode(ExplicitTree.from_arities({(): 3, (2,): 2}), 1)
    with pytest.raises(DepthBudgetExceeded, match=r"^node \(2, 0\) lies beyond the encoded depth 1$"):
        enc.map_node((2, 0))
    with pytest.raises(UnknownNode, match=r"^node \(5,\) was not encoded$"):
        enc.map_node([5])


def test_map_node_refuses_a_non_node_past_the_encoded_depth_as_unknown():
    # (0, 0) is deeper than the encoding, but it is not a node at all: child 0 of the root is a leaf
    enc = binary_encode(ExplicitTree.from_arities({(): 3, (2,): 2}), 1)
    with pytest.raises(UnknownNode, match=r"^node \(0, 0\) was not encoded$"):
        enc.map_node((0, 0))


def test_map_node_refuses_a_node_past_the_encoded_depth_as_too_deep():
    enc = binary_encode(ExplicitTree.from_arities({(): 3, (2,): 2}), 1)
    with pytest.raises(DepthBudgetExceeded, match=r"^node \(2, 1\) lies beyond the encoded depth 1$"):
        enc.map_node([2, 1])
    generated = binary_encode(uniform_binary(8).tree, 2)
    with pytest.raises(DepthBudgetExceeded, match=r"^node \(0, 1, 0\) lies beyond the encoded depth 2$"):
        generated.map_node((0, 1, 0))
    with pytest.raises(UnknownNode):
        generated.map_node((0, 2))


def test_encoded_measure_tail_sum():
    fam = EdgeFamily.from_table({(): ["1/2", "1/3", "1/6"]})
    enc = binary_encode(fam.tree, 1)
    xs = encoded_measure(fam, enc)
    assert xs.mass((1,)) == F(1, 2)
    assert xs.mass((1, 0)) == F(1, 3)
    assert xs.mass((1, 1)) == F(1, 6)
    assert xs.mass((0,)) == F(1, 2)


def test_encoded_measure_identity_on_binary():
    rng = random.Random(3)
    tree = complete_binary_tree(3)
    fam = random_family(rng, tree, allow_zero=True)
    enc = binary_encode(tree, 3)
    xs = encoded_measure(fam, enc)
    for t in tree.nodes():
        assert xs.mass(t) == node_mass(fam, t)


def test_encoded_measure_rejects_other_tree():
    fam = EdgeFamily.from_table({(): ["1/2", "1/2"]})
    other = binary_encode(ExplicitTree.from_arities({(): 3}), 1)
    with pytest.raises(EncodingMismatch):
        encoded_measure(fam, other)


def test_unary_chain_measure():
    tree = ExplicitTree.from_arities({(): 1, (0,): 1})
    fam = EdgeFamily(tree, {(): FiniteDist([F(1)]), (0,): FiniteDist([F(1)])})
    enc = binary_encode(tree, 2)
    xs = encoded_measure(fam, enc)
    assert dict(xs.items()) == {(): F(1)}


def test_verify_encoding_interval_example():
    fam = EdgeFamily.from_table({(): ["1/2", "1/3", "1/6"]})
    report = verify_encoding(fam, 1)
    assert report.ok
    enc = binary_encode(fam.tree, 1)
    # the image node (1,) spans the union of the source cells of children 1 and 2
    assert node_interval(fam, (1,)).lower == F(1, 2)
    assert node_interval(fam, (2,)).upper == F(1)


def test_verify_encoding_random_trees():
    rng = random.Random(113)
    for _ in range(30):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        report = verify_encoding(fam, tree.height)
        assert report.ok, report.failures


def test_order_preservation_explicitly():
    rng = random.Random(127)
    for _ in range(10):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        enc = binary_encode(tree, tree.height)
        nodes = sorted(enc.h)
        for s in nodes:
            for t in nodes:
                if is_prefix(s, t):
                    assert is_prefix(enc.h[s], enc.h[t])
                if not compatible(s, t):
                    assert not compatible(enc.h[s], enc.h[t])


def test_image_nodes_maximal_or_splitting():
    rng = random.Random(131)
    for _ in range(15):
        tree = random_tree(rng, max_depth=4, max_arity=4)
        enc = binary_encode(tree, tree.height)
        for s in enc.image.nodes():
            assert len(enc.image.child_indices(s)) != 1
        for s in enc.image.max_nodes():
            assert s in enc.preimages


def test_encoding_preserves_endpoint_set():
    # the source family and the image family carve out the same endpoints
    from ptree import GeneralPair, family_from_pair, split_measure
    from ptree.dists import FiniteDist as FD
    from fractions import Fraction

    rng = random.Random(137)
    for _ in range(15):
        tree = random_tree(rng, max_depth=4, max_arity=3)
        fam = random_family(rng, tree, allow_zero=True)
        enc = binary_encode(tree, tree.height)
        xs = encoded_measure(fam, enc)
        positive, null = split_measure(xs)
        fillers = {}
        for t in null:
            idx = xs.tree.child_indices(t)
            if idx:
                fillers[t] = FD({k: Fraction(1, len(idx)) for k in idx})
        image_family = family_from_pair(GeneralPair(xs.tree, positive, fillers))
        q_source = {node_interval(fam, t).lower for t in tree.nodes()} | {Fraction(1)}
        q_image = {node_interval(image_family, s).lower for s in xs.tree.nodes()} | {Fraction(1)}
        assert q_source == q_image


def test_perfect_source_fills_binary_levels():
    # full ternary tree of height 3: the image saturates every binary level
    # that lies above all frontier images
    arities = {}

    def fill(t, d):
        if d == 3:
            return
        arities[t] = 3
        for k in range(3):
            fill(t + (k,), d + 1)

    fill((), 0)
    tree = ExplicitTree.from_arities(arities)
    enc = binary_encode(tree, 3)
    frontier_min = min(len(enc.h[t]) for t in tree.max_nodes())
    for d in range(frontier_min):
        assert len(enc.image.level_nodes(d)) == 2**d


def test_a_sparse_positive_part_encodes_its_kth_child_at_the_kth_gadget_leaf():
    # the positive part keeps the source's child indices: the root's are (1, 2) and node (2,)'s are (0, 2);
    # numbering children range(arity) mapped (0,) and (1,) instead, so node (2,) had no image: a bare KeyError
    fam = positive_part(EdgeFamily.from_table({(): ["0", "1/2", "1/2"], (2,): ["1/2", "0", "1/2"]}))[0]
    enc = binary_encode(fam.tree, 2)
    assert enc.h == {(): (), (1,): (0,), (2,): (1,), (2, 0): (1, 0), (2, 2): (1, 1)}
    assert enc.image.child_map() == {(): (0, 1), (0,): (), (1,): (0, 1), (1, 0): (), (1, 1): ()}
    assert enc.preimages[(1, 1)] == ((2, 2),)
    assert verify_encoding(fam, 2) == encoding.EncodingReport(True, True, True, True, ())


# The encoding of {(): 3} at depth 1 is () -> (), (0,) -> (0,), (1,) -> (1, 0),
# (2,) -> (1, 1); each case below corrupts one part of it.
_IMAGE_WITH_UNARY_NODE = ExplicitTree({(): (0, 1), (0,): (0,), (0, 0): (), (1,): (0, 1), (1, 0): (), (1, 1): ()})
_CORRUPTIONS = {
    "intervals": ({(1,): (1, 1), (2,): (1, 0)}, None, "intervals_ok", "interval mismatch at (1,)"),
    # the same lower end: only the widths differ
    "widths": ({(1,): (1,)}, None, "intervals_ok", "interval mismatch at (1,): [1/2, 5/6] vs [1/2, 1] at image (1,)"),
    "extension": ({(): (1,)}, None, "order_ok", "extension not preserved: () vs (0,)"),
    "incompatibility": ({(2,): (1, 0)}, None, "order_ok", "incompatibility not preserved: (1,) vs (2,)"),
    "image-shape": ({}, _IMAGE_WITH_UNARY_NODE, "image_shape_ok", "image node (0,) has a single child"),
}


def _corrupt_encodings(monkeypatch, h, image):
    """Make every binary_encode call return the true encoding with h and image altered."""
    real = encoding.binary_encode

    def corrupted(tree, depth):
        enc = real(tree, depth)
        return dataclasses.replace(enc, h={**enc.h, **h}, image=image or enc.image)

    monkeypatch.setattr(encoding, "binary_encode", corrupted)


@pytest.mark.parametrize("case", list(_CORRUPTIONS))
def test_verify_encoding_reports_each_failure(monkeypatch, case):
    h, image, flag, line = _CORRUPTIONS[case]
    fam = EdgeFamily.from_table({(): ["1/2", "1/3", "1/6"]})
    assert verify_encoding(fam, 1).ok
    _corrupt_encodings(monkeypatch, h, image)
    report = verify_encoding(fam, 1)
    assert not report.ok
    assert getattr(report, flag) is False
    assert any(f.startswith(line) for f in report.failures), report.failures


def test_verify_encoding_refuses_a_source_row_that_is_not_a_distribution():
    # the report judges the pushed measure; a bad source row fails as every walk does
    with pytest.raises(NotADistribution, match="masses sum to 2/3"):
        verify_encoding(EdgeFamily.from_table({(): ["1/3", "1/3"]}), 1)


def test_cli_encode_verify_failure_exits_1(monkeypatch, tmp_path, capsys):
    spec = tmp_path / "t.json"
    spec.write_text(serialize_spec(EdgeFamily.from_table({(): ["1/2", "1/3", "1/6"]})))
    h, image, _, line = _CORRUPTIONS["incompatibility"]
    _corrupt_encodings(monkeypatch, h, image)
    assert main(["encode", "--tree", str(spec), "--depth", "1", "--verify"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert "2 -> 1.0" in out
    assert "verification: FAILED" in out
    assert any(o.startswith("  " + line) for o in out), out


def uniform_filler_image_family(measure):
    """An image family realizing the pushed measure: mass quotients, uniform rows below zero-mass nodes."""
    image = measure.tree
    positive, null = split_measure(measure)
    fillers = {}
    for t in null:
        if idx := image.child_indices(t):
            fillers[t] = FiniteDist({k: F(1, len(idx)) for k in idx})
    return family_from_pair(GeneralPair(image, positive, fillers))


@settings(max_examples=40, deadline=None)
@given(st.randoms(use_true_random=False))
def test_image_cells_match_a_uniform_filler_image_family(rng):
    # zero masses leave null regions in the image, where only the filler fixes the cells of an image family
    tree = random_tree(rng, max_depth=4, max_arity=4)
    fam = random_family(rng, tree, allow_zero=True)
    measure = encoded_measure(fam, binary_encode(tree, tree.height))
    image_family = uniform_filler_image_family(measure)
    cells = encoding._cells(measure.tree._children, {s: m.as_integer_ratio() for s, m in measure.items()})
    assert cells.keys() == set(measure.tree.nodes())
    for s, (lo, width, d) in cells.items():
        assert node_interval(image_family, s) == (F(lo, d), F(lo + width, d))
