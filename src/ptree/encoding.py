"""Order-embedding of an arbitrary finitely-branching tree into the binary tree.

Each node maps to a binary path: arity-one steps collapse, the k-th of
finitely many children maps through a run of k ones followed by a zero,
and the last child keeps the all-ones run. The image tree consists of
splitting and maximal nodes only, and pushing node masses through the map
yields an inductive measure whose interval assignment coincides with the
source's.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import DepthBudgetExceeded, EncodingMismatch, UnknownNode
from .intervals import Interval
from .measures import EdgeFamily, InductiveMeasure, _walk
from .paths import Path, compatible, is_prefix
from .trees import ExplicitTree, TreeShape, walk_to_depth


@dataclass(frozen=True)
class BinaryEncoding:
    """The node map, its image tree, and the preimages of image nodes."""

    source: TreeShape
    depth: int
    h: Mapping[Path, Path]
    image: ExplicitTree
    preimages: Mapping[Path, tuple[Path, ...]]

    def map_node(self, t: Path) -> Path:
        t = tuple(t)
        if t in self.h:
            return self.h[t]
        if not self.source.contains(t):
            raise UnknownNode(f"node {t} was not encoded")
        raise DepthBudgetExceeded(f"node {t} lies beyond the encoded depth {self.depth}")  # h holds every node up to it

    def verify(self, family: EdgeFamily) -> EncodingReport:
        """`verify_encoding` on this encoding, built from the family's tree, in integers: a Fraction is built only
        to word a failure. Each check collects its failure lines; it passes when it has none."""
        h, children = self.h, self.image._children
        masses, src_cells, inductive_ok = _pushed_masses(family, self)  # a bad source row raises, as in every walk
        law: list[str] = []
        if not inductive_ok:  # the checked constructor words the first violation
            try:
                encoded_measure(family, self)
            except ValueError as exc:
                law.append(f"pushed measure violates the inductive law: {exc}")

        intervals: list[str] = []
        if inductive_ok:
            cells = _cells(children, masses)
            for t, s in h.items():
                (a, w, q), (l, m, d) = src_cells[t], cells[s]
                if a * d != l * q or w * d != m * q:
                    src, img = Interval(Fraction(a, q), Fraction(a + w, q)), Interval(Fraction(l, d), Fraction(l + m, d))
                    intervals.append(f"interval mismatch at {t}: {src} vs {img} at image {s}")

        # Extension is transitive, and two incompatible nodes extend two
        # distinct siblings below their meet, whose images' extensions stay
        # incompatible: checking each parent-child edge and each sibling pair
        # decides the same as checking every pair of nodes.
        order: list[str] = []
        siblings: dict[Path, list[Path]] = {}
        for t in sorted(h):  # children of a node in index order
            if t:
                siblings.setdefault(t[:-1], []).append(t)
        for parent, kids in siblings.items():
            for i, s in enumerate(kids):
                if not is_prefix(h[parent], h[s]):
                    order.append(f"extension not preserved: {parent} vs {s}")
                for t in kids[i + 1 :]:
                    if compatible(h[s], h[t]):
                        order.append(f"incompatibility not preserved: {s} vs {t}")

        shape = [f"image node {s} has a single child" for s, kids in children.items() if len(kids) == 1]
        shape += [f"maximal image node {s} is not the image of a source node"
                  for s, kids in children.items() if not kids and s not in self.preimages]

        return EncodingReport(inductive_ok, inductive_ok and not intervals, not order, not shape, (*law, *intervals, *order, *shape))


def binary_encode(tree: TreeShape, depth: int) -> BinaryEncoding:
    """Compute the embedding on all nodes up to `depth`, and its image tree gadget by gadget.

    Below a node's image u, each inner node u·1^k (k < arity - 1) splits into (0, 1);
    every other image is a leaf until its own node's gadget splits it.
    """
    h: dict[Path, Path] = {(): ()}
    preimages: dict[Path, tuple[Path, ...]] = {(): ((),)}
    splits: dict[Path, tuple[int, ...]] = {}
    for t in walk_to_depth(tree, depth):  # parents before children, so each chain's preimages in depth order
        if len(t) >= depth or (arity := tree._arity_unchecked(t)) == 0:
            continue
        for k, j in enumerate(tree._child_indices(t)):  # the k-th child, whatever its index; an OMEGA node raises
            s = h[t] + (1,) * k
            if k < arity - 1:
                splits[s] = (0, 1)
                s += (0,)
            h[t + (j,)] = s
            preimages[s] = preimages.get(s, ()) + (t + (j,),)

    image = ExplicitTree._canonical({**dict.fromkeys(preimages, ()), **splits})
    return BinaryEncoding(tree, depth, h, image, preimages)


def encoded_measure(family: EdgeFamily, enc: BinaryEncoding) -> InductiveMeasure:
    """Push node masses through the embedding onto the image tree.

    Image nodes that are not themselves images take the total mass of
    their image children; the result satisfies the inductive law.
    """
    return InductiveMeasure(enc.image, {s: Fraction(*m) for s, m in _pushed_masses(family, enc)[0].items()})


def _pushed_masses(family: EdgeFamily, enc: BinaryEncoding) -> tuple[dict[Path, tuple[int, int]], dict[Path, tuple[int, int, int]], bool]:
    """`encoded_measure`'s masses as unreduced pairs (n, d), the source cells they were pushed from, and whether
    the masses obey the inductive law. Masses are nonnegative and an inner gadget node's is its children's sum,
    so the law holds once the root's is one and each image's equals its children's sum."""
    if enc.source is not family.tree and enc.source != family.tree:
        raise EncodingMismatch("the encoding was built from a different tree")
    source_cells = _walk(family, enc.h)
    children, preimages = enc.image._children, enc.preimages
    masses: dict[Path, tuple[int, int]] = {}
    law = True
    # bottom up: a source node's image takes its shallowest preimage's width, an inner gadget node its children's sum
    for s in sorted(children, reverse=True):
        n, d = 0, 1  # the children of one source node share a denominator; a corrupted image may mix them
        for a, b in [masses[s + (k,)] for k in children[s]]:
            n, d = (n + a, d) if b == d else (n * b + a * d, d * b)
        if s in preimages:
            masses[s] = w, q = source_cells[preimages[s][0]][1:]
            law = law and (not children[s] or n * q == w * d)
        else:
            masses[s] = n, d
    return masses, source_cells, law and masses[()][0] == masses[()][1]


def embed_branch(enc: BinaryEncoding, x: Path) -> Path:
    """Image of a branch prefix: the binary prefix its extensions all share."""
    return enc.map_node(x)


def _cells(children: Mapping[Path, tuple[int, ...]], masses: Mapping[Path, tuple[int, int]]) -> dict[Path, tuple[int, int, int]]:
    """Each image node's cell [l/d, (l + w)/d) as integers (l, w, d), where its mass is w/d.

    A child's cell starts where its previous sibling's ends and is as wide as its mass, so below a zero-mass
    node every cell is that node's lower end, whatever filler an image family would put there. A lower end
    is scaled to the next mass's denominator, a multiple of its own unless the image is corrupted.
    """
    cells = {(): (0, *masses[()])}
    for p in sorted(children):  # parents before children
        l, _, e = cells[p]
        for k in children[p]:
            m, d = masses[p + (k,)]
            l, m, d = (l * d, m * e, e * d) if d % e else (l * (d // e), m, d)
            cells[p + (k,)] = l, m, d
            l, e = l + m, d
    return cells


@dataclass(frozen=True)
class EncodingReport:
    """What the encoding verification found, check by check."""

    inductive_ok: bool
    intervals_ok: bool
    order_ok: bool
    image_shape_ok: bool
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.inductive_ok and self.intervals_ok and self.order_ok and self.image_shape_ok


def verify_encoding(family: EdgeFamily, depth: int) -> EncodingReport:
    """Check the embedding's preservation laws on all nodes up to `depth`.

    Verifies that the pushed-forward masses satisfy the inductive law,
    that the cells they fix on the image tree give every image node the
    same interval as its source node, and that the map preserves
    extension and preserves/reflects incompatibility; the image must
    consist of splitting and maximal nodes with maximal nodes coming from
    the source.
    """
    return binary_encode(family.tree, depth).verify(family)

