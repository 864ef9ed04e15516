"""The unit-interval realization of a probability tree.

Every node gets a closed subinterval of [0, 1]: the root gets the whole
interval, and the children of a node subdivide its interval into
consecutive cells whose lengths are the edge probabilities scaled by the
parent's length. Cell widths therefore equal induced node masses, branch
windows shrink to the branch's image point, and descending through cells
inverts the embedding off the countable endpoint set.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .dists import ONE, Geometric, PointMass, as_fraction, fraction_sum, show
from .errors import (
    InvalidArgument,
    MalformedClopen,
    NegativeCount,
    NegativeDepth,
    NotASubtree,
    QPointError,
    RequiresExplicitFiniteTree,
)
from .measures import EdgeFamily, _walk, induced_measure
from .paths import Path
from .trees import ClopenSelection, ExplicitTree, _check_budget, enumerate_front


class Interval(NamedTuple):
    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower

    def __str__(self) -> str:
        return f"[{show(self.lower)}, {show(self.upper)}]"


def node_interval(family: EdgeFamily, t: Path) -> Interval:
    """Endpoints of the cell assigned to t; its width is the mass of t."""
    t = tuple(t)
    lo, w, q = _walk(family, (t,))[t]
    return Interval(Fraction(lo, q), Fraction(lo + w, q))


@dataclass(frozen=True)
class BranchWindow:
    """The interval of a branch prefix; nested windows shrink to the image point."""

    prefix: Path
    lower: Fraction
    upper: Fraction

    @property
    def width(self) -> Fraction:
        return self.upper - self.lower


def branch_window(family: EdgeFamily, x: Path, n: int) -> BranchWindow:
    """Window of the branch given by x, truncated at depth n.

    A prefix shorter than n is accepted only when it is maximal, in which
    case the window stops shrinking.
    """
    x = family.tree.require(tuple(x))
    _check_budget(family.tree, n)
    if n < len(x):
        prefix = x[:n]
    elif family.tree._arity_unchecked(x) == 0 or n == len(x):
        prefix = x
    else:
        raise InvalidArgument(f"branch prefix {x} is shorter than depth {n} and not maximal")
    lo, w, q = _walk(family, (prefix,), require=tuple)[prefix]  # a prefix of the node x
    return BranchWindow(prefix, Fraction(lo, q), Fraction(lo + w, q))


def locate_branch(family: EdgeFamily, y: Fraction, depth: int) -> Path:
    """Descend through child cells to the branch whose window contains y.

    Cells are half-open on the right except the last one, degenerate cells
    are skipped, and hitting an endpoint shared by two positive cells
    fails: the inverse map is genuinely undefined on such points. A rule
    row that is not a probability distribution raises NotADistribution when
    the descent reaches it.
    """
    y = as_fraction(y)
    un, ud = y.numerator, y.denominator  # ud > 0
    if not 0 <= un <= ud:
        raise InvalidArgument("the point must lie in [0, 1]")
    _check_budget(family.tree, depth)
    return _descend(family, un, 0, ud, depth)


def _descend(family: EdgeFamily, un: int, wn: int, ud: int, depth: int, refine=None) -> Path:
    """Descend with [un/ud, (un + wn)/ud), in unreduced coordinates of the current cell.

    Each step reads its node state's row (from `EdgeFamily._root` down), takes
    the child cell that holds the lower end, maps it onto [0, 1] and moves to
    the child's state. If the upper end spills past it, `refine(un, wn, ud)`
    narrows the interval and the node is tried again. Only a point (wn = 0),
    which never spills, can sit on a shared endpoint and raise QPointError.
    While m levels remain, a shared row steps through its power table
    (`dists._power_table`): a string of m children has their nested cell, so
    the steps, refine calls and errors are those of m single steps. A point
    past the table's end, or in a tail entry, takes one level.
    """
    y = un, ud  # named in QPointError messages
    power = family._power_row(depth)
    Q, runs, hits, end = power or (1, (), (), 0)
    last = depth - family._stride if power else -1  # the table takes m levels from each level up to it
    state = family._root
    t: list[int] = []
    while (n := len(t)) < depth:
        row, _, kids = state
        if row is None:
            break  # a maximal node
        # the string of children, or the child, whose cell [b/q, (b + c)/q) holds the lower end
        if n <= last and (x := un * Q // ud) < end:
            digits, b, c, q = hits[bisect_right(runs, x) - 1]
        elif hit := row.locate(un, ud):
            digits, (k, b, c, q) = None, hit
        else:
            raise QPointError(f"{show(Fraction(*y))} is the limit endpoint of an infinite subdivision")
        vn, vw, vd = un * q - b * ud, wn * q, c * ud  # the interval in the coordinates of the child's cell
        if vn + vw > vd:  # the upper end spills past the cell
            un, wn, ud = refine(un, wn, ud)
            continue
        if not wn and b and not vn:  # a point on the lower end of a cell past the first
            raise QPointError(f"{show(Fraction(*y))} is a shared cell endpoint")
        un, wn, ud = vn, vw, vd
        if digits:  # a shared row's state: every child's is the same
            t += digits
        else:
            t.append(k)
            state = kids.get(k, state)
    return tuple(t)


def clopen_mass(family: EdgeFamily, selection: ClopenSelection) -> Fraction:
    """Measure of a clopen set given by front members, or of its complement."""
    n = selection.front_level
    _check_budget(family.tree, n)
    for s in selection.selected:
        s = tuple(s)
        if not family.tree.contains(s):
            raise MalformedClopen(f"selected node {s} is not in the tree")
        if len(s) > n:
            raise MalformedClopen(f"selected node {s} lies beyond front level {n}")
        if len(s) < n and family.tree._arity_unchecked(s) != 0:
            raise MalformedClopen(f"selected node {s} is neither at level {n} nor maximal")
    total = fraction_sum((w, q) for _, w, q in _walk(family, selection.selected, require=tuple).values())  # checked above
    return 1 - total if selection.complemented else total


@dataclass(frozen=True)
class SubtreeMassReport:
    """Front masses of a subtree by level; their infimum is the body's measure."""

    values: tuple[Fraction, ...]
    nonincreasing: bool

    @property
    def value(self) -> Fraction:
        return self.values[-1]


def subtree_mass_bound(
    family: EdgeFamily, nodes: Iterable[Path], depth: int
) -> SubtreeMassReport:
    """Front mass of the subtree at each level up to depth.

    The node set must be prefix-closed inside the host tree, and a node
    with no listed children below the queried depth must be maximal in the
    host; otherwise the set does not describe a subtree with compatible
    leaves.
    """
    _check_budget(family.tree, depth)
    members = frozenset(tuple(t) for t in nodes)
    if () not in members:
        raise NotASubtree("the subtree must contain the root")
    for t in members:
        if t and t[:-1] not in members:
            raise NotASubtree(f"node {t} is present without its parent")
        if not family.tree.contains(t):
            raise NotASubtree(f"node {t} is not in the host tree")
    leaves = members - {t[:-1] for t in members if t}
    for t in leaves:
        if len(t) < depth and family.tree._arity_unchecked(t) != 0:
            raise NotASubtree(
                f"subtree leaf {t} is not maximal in the host tree (depth {depth} queried)"
            )
    cells = _walk(family, (t for t in members if len(t) <= depth))  # one walk; level m's front is read off it
    values = [
        fraction_sum((w, q) for t, (_, w, q) in cells.items() if len(t) == m or (len(t) < m and t in leaves))
        for m in range(depth + 1)
    ]
    nonincreasing = all(values[i + 1] <= values[i] for i in range(len(values) - 1))
    return SubtreeMassReport(tuple(values), nonincreasing)


def branch_mass_bound(family: EdgeFamily, x: Path, n: int) -> tuple[Fraction, bool]:
    """Mass of the depth-n prefix of a branch, and whether it is exactly zero.

    The prefix mass bounds the point mass of the branch from above; once a
    prefix has mass zero the limit is exactly zero.
    """
    mass = branch_window(family, x, n).width
    return mass, mass == 0


FREE_CERTIFIED = "free_certified"
ATOM_FOUND = "atom_found"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class FreenessReport:
    """Outcome of the free-measure diagnostic; three-valued by necessity."""

    depth: int
    epsilon: Fraction
    verdict: str
    level_mass_bound: Fraction | None = None
    witness: Path | None = None


def freeness_report(family: EdgeFamily, depth: int, epsilon: Fraction) -> FreenessReport:
    """Certify freeness, exhibit an atom, or give up with a bound.

    An explicit finite tree always has an atom: its leaves carry all the
    mass. A generated family with a shared row has no maximal nodes; a
    child of mass one in that row is a persistent atom, and otherwise every
    branch mass is at most s^depth, s the row's largest edge mass. A rule
    family gives no verdict and no bound.
    """
    tree = family.tree
    _check_budget(tree, depth)
    epsilon = as_fraction(epsilon)
    if isinstance(tree, ExplicitTree):
        measure = induced_measure(family)
        best = max((t for t in tree.max_nodes() if measure.mass(t) > 0), key=measure.mass, default=None)
        # total leaf mass is one, so an explicit tree always has an atom
        bound = max(measure.mass(t) for t in enumerate_front(tree, depth).nodes)
        return FreenessReport(depth, epsilon, ATOM_FOUND, bound, best)

    if (row := family.row) is None:
        return FreenessReport(depth, epsilon, INCONCLUSIVE)
    if isinstance(row, Geometric):
        sup = 1 - row.ratio  # child 0's mass, the largest
    else:
        k = row.index if isinstance(row, PointMass) else max(row.support, key=row.mass)
        sup = row.mass(k)
        if sup == 1:
            return FreenessReport(depth, epsilon, ATOM_FOUND, ONE, (k,) * depth)
    bound = sup**depth
    return FreenessReport(depth, epsilon, FREE_CERTIFIED if bound <= epsilon else INCONCLUSIVE, bound)


def atom_gaps(family: EdgeFamily) -> tuple[Interval, ...]:
    """Open gaps left in [0, 1] by the atoms of an explicit finite tree.

    Each positive-mass leaf contributes the interior of its cell; the gaps
    are pairwise disjoint and their lengths sum to one.
    """
    if not isinstance(family.tree, ExplicitTree):
        raise RequiresExplicitFiniteTree("atom gaps are defined for explicit finite trees")
    cells = _walk(family, family.tree.max_nodes()).values()
    return tuple(Interval(Fraction(lo, q), Fraction(lo + w, q)) for lo, w, q in cells if w)


_SAMPLE_BITS = 128


def sample_branches(family: EdgeFamily, seed: int, count: int, depth: int) -> list[Path]:
    """Inverse-transform sampling: uniform reals pushed through descent.

    Deterministic for a fixed seed. A draw is a uniform real known to 128
    bits; whenever its interval straddles two cells the next 128 bits are
    appended (Knuth–Yao refinement), so draws are exact at any depth and
    never stop on a shared cell endpoint.
    """
    _check_budget(family.tree, depth)
    if count < 0:
        raise NegativeCount(f"sample count {count} is negative")
    getrandbits = random.Random(seed).getrandbits

    def refine(un: int, wn: int, ud: int) -> tuple[int, int, int]:
        return (un << _SAMPLE_BITS) + wn * getrandbits(_SAMPLE_BITS), wn, ud << _SAMPLE_BITS

    return [_descend(family, getrandbits(_SAMPLE_BITS), 1, 1 << _SAMPLE_BITS, depth, refine) for _ in range(count)]


def cylinder_frequencies(samples: Iterable[Path], depth: int) -> dict[Path, float]:
    """Empirical relative frequency of each depth-`depth` prefix (floats, for reports)."""
    if depth < 0:  # s[:-1] would count shorter prefixes
        raise NegativeDepth(f"depth {depth} is negative")
    counts: dict[Path, int] = {}
    total = 0
    for s in samples:
        counts[s[:depth]] = counts.get(s[:depth], 0) + 1
        total += 1
    return {t: c / total for t, c in sorted(counts.items())}
