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

from .dists import ONE, ZERO, fraction_sum
from .errors import DepthBudgetExceeded, EncodingMismatch, InfiniteLevel, UnknownNode
from .intervals import Interval
from .measures import EdgeFamily, InductiveMeasure, _walk
from .paths import OMEGA, Path, compatible, is_prefix
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
        if arity is OMEGA:
            raise InfiniteLevel(f"node {t} has infinitely many successors")
        for k in range(arity):
            s = h[t] + (1,) * k
            if k < arity - 1:
                splits[s] = (0, 1)
                s += (0,)
            h[t + (k,)] = s
            preimages[s] = preimages.get(s, ()) + (t + (k,),)

    image = ExplicitTree({**dict.fromkeys(preimages, ()), **splits})
    return BinaryEncoding(tree, depth, h, image, preimages)


def encoded_measure(family: EdgeFamily, enc: BinaryEncoding) -> InductiveMeasure:
    """Push node masses through the embedding onto the image tree.

    Image nodes that are not themselves images take the total mass of
    their image children; the result satisfies the inductive law.
    """
    return InductiveMeasure(enc.image, _pushed_masses(family, enc)[0])


def _pushed_masses(family: EdgeFamily, enc: BinaryEncoding) -> tuple[dict[Path, Fraction], dict[Path, tuple[int, int, int]]]:
    """`encoded_measure`'s masses, unchecked, and the source nodes' cells they were pushed from."""
    if enc.source is not family.tree and enc.source != family.tree:
        raise EncodingMismatch("the encoding was built from a different tree")
    source_cells = _walk(family, enc.h)
    image, preimages = enc.image, enc.preimages
    masses: dict[Path, Fraction] = {}
    # bottom up: a source node's image takes its shallowest preimage's width, an inner gadget node its children's sum
    for s in sorted(image.nodes(), reverse=True):
        if s in preimages:
            masses[s] = Fraction(*source_cells[preimages[s][0]][1:])
        else:
            masses[s] = fraction_sum(masses[s + (k,)].as_integer_ratio() for k in image._child_indices(s))
    return masses, source_cells


def embed_branch(enc: BinaryEncoding, x: Path) -> Path:
    """Image of a branch prefix: the binary prefix its extensions all share."""
    return enc.map_node(x)


def _image_cells(measure: InductiveMeasure) -> dict[Path, tuple[Fraction, Fraction]]:
    """Each image node's cell as (lower end, width), read from the pushed measure.

    A child's cell starts where its previous sibling's ends and is as wide
    as its mass, so below a zero-mass node every cell is that node's lower
    end, whatever filler an image family would put there.
    """
    cells = {(): (ZERO, ONE)}
    free: dict[Path, Fraction] = {}  # where the next child's cell starts, by parent
    for s, m in sorted(measure.items())[1:]:  # the root first, then parents before children
        p = s[:-1]
        lo = free.get(p, cells[p][0])
        free[p], cells[s] = lo + m, (lo, m)
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
    return _verify_encoding(family, binary_encode(family.tree, depth))


def _verify_encoding(family: EdgeFamily, enc: BinaryEncoding) -> EncodingReport:
    """`verify_encoding` on an encoding already built from the family's tree."""
    failures: list[str] = []

    masses, src_cells = _pushed_masses(family, enc)  # a bad source row raises, as in every walk
    try:
        measure = InductiveMeasure(enc.image, masses)
    except ValueError as exc:
        failures.append(f"pushed measure violates the inductive law: {exc}")
        measure = None

    inductive_ok = intervals_ok = measure is not None
    if measure is not None:
        cells = _image_cells(measure)
        for t, s in enc.h.items():
            (a, w, q), (b, m) = src_cells[t], cells[s]
            if a * b.denominator != b.numerator * q or w * m.denominator != m.numerator * q:
                intervals_ok = False
                src, img = Interval(Fraction(a, q), Fraction(a + w, q)), Interval(b, b + m)
                failures.append(f"interval mismatch at {t}: {src} vs {img} at image {s}")

    # Extension is transitive, and two incompatible nodes extend two
    # distinct siblings below their meet, whose images' extensions stay
    # incompatible: checking each parent-child edge and each sibling pair
    # decides the same as checking every pair of nodes.
    order_ok = True
    siblings: dict[Path, list[Path]] = {}
    for t in sorted(enc.h):  # children of a node in index order
        if t:
            siblings.setdefault(t[:-1], []).append(t)
    for parent, kids in siblings.items():
        hp = enc.h[parent]
        for i, s in enumerate(kids):
            hs = enc.h[s]
            if not is_prefix(hp, hs):
                order_ok = False
                failures.append(f"extension not preserved: {parent} vs {s}")
            for t in kids[i + 1 :]:
                if compatible(hs, enc.h[t]):
                    order_ok = False
                    failures.append(f"incompatibility not preserved: {s} vs {t}")

    image_shape_ok = True
    for s in enc.image.nodes():
        if len(enc.image._child_indices(s)) == 1:
            image_shape_ok = False
            failures.append(f"image node {s} has a single child")
    for s in enc.image.max_nodes():
        if s not in enc.preimages:
            image_shape_ok = False
            failures.append(f"maximal image node {s} is not the image of a source node")

    return EncodingReport(inductive_ok, intervals_ok, order_ok, image_shape_ok, tuple(failures))
