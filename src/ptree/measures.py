"""Edge-probability families, induced node masses, and the pair bijection.

An edge family assigns a probability distribution over the successors of
every non-maximal node. The induced mass of a node is the product of the
edge probabilities along its path; materializing those masses gives an
inductive measure. Families with zero-mass regions split into a positive
part plus filler distributions, and that split is a bijection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .dists import Dist, FiniteDist, FractionLike, Geometric, PointMass, ONE, ZERO, as_fraction, fraction_sum, show
from .errors import (
    DepthBudgetExceeded,
    InfiniteLevel,
    InvalidArgument,
    MalformedPair,
    NodeNotBelowFront,
    NotADistribution,
    UnknownNode,
)
from .paths import OMEGA, Path
from .trees import (
    DEFAULT_DEPTH_BUDGET,
    Arity,
    ExplicitTree,
    Front,
    GeneratedTree,
    TreeShape,
    _check_budget,
    _check_front,
)


class EdgeFamily:
    """Per-node successor distributions over a tree.

    Explicit families carry a distribution table. Generated families carry
    either one row shared by every node of a tree with a shared arity, or a
    rule; a shared row lets named families answer global questions (largest
    edge mass, forced atom) without enumeration. Tables and shared rows are
    checked here, a rule's rows (unbounded in number) as walks read them.
    """

    __slots__ = ("tree", "_dists", "row", "name", "_stride", "_power", "_root")

    def __init__(
        self,
        tree: TreeShape,
        dists: Union[Dist, Mapping[Path, Dist], Callable[[Path], Dist]],
        *,
        name: str | None = None,
    ):
        self.tree = tree
        self.name = name
        self.row = self._power = None
        self._stride = 0  # the levels one power step takes (`_power_row`); under 2, descent takes none
        # the root's node state (row, cells, kids): cells[k] is child k's integer cell (b, c, q), kids.get(k, state)
        # its state, and (None, None, None) a maximal node's state; a rule's root state reads no row until unpacked
        if isinstance(dists, (FiniteDist, Geometric, PointMass)):
            arity = tree.shared_arity if isinstance(tree, GeneratedTree) else None
            if not arity or _support_mismatch(dists, arity):
                raise InvalidArgument(f"the shared row {dists!r} needs a generated tree of matching shared arity")
            self.row, self._dists = dists, None
            if dists.__class__ is Geometric:
                dists._build_head()  # once per shared row: a rule's fresh rows keep an empty head
            self._root = (dists, _row_cells(dists, ()), {})  # no kids: every child gets its parent's state back
            if dists.__class__ is not PointMass:
                self._stride = dists._stride()
        elif isinstance(dists, Mapping):
            table = {tuple(t): d for t, d in dists.items()}
            if not isinstance(tree, ExplicitTree):
                raise InvalidArgument("distribution tables require an explicit tree")
            children = tree._children
            if table.keys() != {t for t, idx in children.items() if idx}:
                raise InvalidArgument("distribution table must cover exactly the non-maximal nodes")
            states = {}
            for t, d in table.items():
                if not isinstance(d, FiniteDist):
                    raise InvalidArgument("closed-form distributions require a generated tree")
                if d.indices != children[t]:
                    raise InvalidArgument(f"distribution at {t} does not match the child set")
                states[t] = (d, _row_cells(d, t), dict.fromkeys(children[t], _MAXIMAL))  # linked below
            for t in filter(None, states):  # every node but the root is its parent's child
                states[t[:-1]][2][t[-1]] = states[t]
            self._root = states.get((), _MAXIMAL)
            self._dists = table  # always a dict: `isinstance(_, dict)` is the cheap test
        else:
            if not isinstance(tree, GeneratedTree):
                raise InvalidArgument("distribution rules require a generated tree")
            self._dists = dists
            self._root = _Gated((partial(_read_rule, tree, dists), (), _Gated))

    @property
    def is_explicit(self) -> bool:
        return isinstance(self._dists, dict)

    def dist(self, t: Path) -> Dist:
        """The row at t, as given: a rule's may fail to be a distribution, which a walk would refuse."""
        t = self.tree.require(tuple(t))
        if self.tree._arity_unchecked(t) == 0:
            raise UnknownNode(f"node {t} is maximal and has no successor distribution")
        if self.row is not None:
            return self.row
        return self._dists[t] if isinstance(self._dists, dict) else self._dists(t)

    def _state(self, t: Path) -> tuple:
        """The node state at t, a node known to be valid, stepped to from the root without reading a row."""
        state = self._root
        for k in t:
            state = state[2].get(k, state)
        return state

    def _power_row(self, depth: int) -> tuple | None:
        """The shared row's `_power` table over its stride m >= 2, built by the first descent at least m deep and kept;
        None until then."""
        if self._power is None and 1 < self._stride <= depth:
            self._power = self.row._power(self._stride)
        return self._power

    def edge_prob(self, t: Path, k: int) -> Fraction:
        """Mass of the edge from t to child k; the row must be a distribution."""
        tree = self.tree
        t = tree.require(tuple(t))
        if (a := tree._arity_unchecked(t)) == 0:  # the checks `dist` makes, without reading the row
            raise UnknownNode(f"node {t} is maximal and has no successor distribution")
        if k < 0 or (a is not OMEGA and k not in tree._child_indices(t)):  # t + (k,) may lie past the depth budget
            raise UnknownNode(f"no node {t + (k,)} in tree")
        row, _, _ = self._state(t)  # the one read of the row: a rule's is checked here
        return row.mass(k)

    def dist_table(self) -> Mapping[Path, Dist]:
        if not isinstance(self._dists, dict):
            raise InvalidArgument("generated families have no finite distribution table")
        return dict(self._dists)

    @classmethod
    def from_table(
        cls,
        table: Mapping[Path, Sequence[FractionLike]],
        depth_budget: int | None = None,
    ) -> "EdgeFamily":
        """Build a canonical explicit family from non-maximal node rows."""
        dists = {tuple(t): FiniteDist(row) for t, row in table.items()}
        return cls(ExplicitTree.from_arities({t: len(d.masses) for t, d in dists.items()}, depth_budget), dists)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EdgeFamily):
            return NotImplemented
        if self.is_explicit and other.is_explicit:
            return self.tree == other.tree and self._dists == other._dists
        if self.row is not None and other.row is not None:  # a shared row fixes the shared arity
            return self.row == other.row and self.tree.depth_budget == other.tree.depth_budget
        return self is other  # rule families, and explicit against generated

    def __hash__(self) -> int:
        if self.is_explicit:
            return hash((self.tree, frozenset(self._dists.items())))
        return hash((self.row, self.tree.depth_budget)) if self.row is not None else id(self)

    def __repr__(self) -> str:
        kind = "explicit" if self.is_explicit else (self.name or "generated")
        return f"EdgeFamily({kind}, {self.tree!r})"


_MAXIMAL = (None, None, None)  # a maximal node's state


class _Gated(tuple):
    """A rule node's state (read, t, kids) that reads its row as `read(t)` each time it is unpacked as (row, cells,
    kids): a refused rule row raises at the step that leaves its node. `state[2]` reads no row. Its kids are `_Gated`
    itself, whose `get` builds child k's state from its parent's. No state holds its family."""

    __slots__ = ()

    def __iter__(self):
        d = self[0](self[1])
        return iter(_MAXIMAL if d is None else (d, _row_cells(d, self[1]), self[2]))

    @staticmethod
    def get(k: int, state: _Gated) -> _Gated:
        return _Gated((state[0], state[1] + (k,), _Gated))


def _row_cells(d: Dist, t: Path) -> Union[tuple, dict, Dist]:
    """The cell table of the row d at node t: a finite row's cells, a closed form itself; a finite row that is not a
    probability distribution raises NotADistribution. The one row check of tables, shared rows and rules' rows."""
    if d.__class__ is not FiniteDist:
        return d
    if (cells := d._grid[2]) is None:
        raise NotADistribution(f"the masses at node {t} are not a probability distribution: {d.defect()}")
    return cells


def _read_rule(tree: GeneratedTree, rule: Callable[[Path], Dist], t: Path) -> Dist | None:
    """The reader of a rule family, bound to its tree and rule: None at a maximal node; a row that is not over the
    node's children raises NotADistribution (and one that is not a distribution does when its state is unpacked)."""
    if not (a := tree._arity_unchecked(t)):
        return None
    d = rule(t)
    if mismatch := _support_mismatch(d, a):
        raise NotADistribution(f"at node {t}, {mismatch}")
    return d


def _support_mismatch(d: Dist, arity: Arity) -> str | None:
    """Why a generated node of this arity cannot take the row d; None when d's support is its child set."""
    # a finite row's indices are sorted and distinct, so n of them ending at n - 1 are 0..n-1; no length equals OMEGA
    fits = (len(d._items) == arity and d._items[-1][0] == arity - 1) if isinstance(d, FiniteDist) else d.support is arity
    if not fits:
        return f"the row {d!r} is not over the node's children 0..{'OMEGA' if arity is OMEGA else arity - 1}"
    return None


def _budget(depth_budget: int | None) -> int:
    return DEFAULT_DEPTH_BUDGET if depth_budget is None else depth_budget


def uniform_binary(depth_budget: int | None = None) -> EdgeFamily:
    """Fair coin at every node of the infinite binary tree."""
    tree = GeneratedTree(2, _budget(depth_budget), name="uniform_binary")
    return EdgeFamily(tree, FiniteDist([Fraction(1, 2), Fraction(1, 2)]), name="uniform_binary")


def geometric_omega(depth_budget: int | None = None, ratio: FractionLike = Fraction(1, 2)) -> EdgeFamily:
    """Child k of every node gets mass (1-r)·r^k on the full omega-branching tree."""
    geo = Geometric(ratio)
    name = "geometric_omega" if geo.ratio == Fraction(1, 2) else f"geometric_omega({show(geo.ratio)})"
    return EdgeFamily(GeneratedTree(OMEGA, _budget(depth_budget), name="geometric_omega"), geo, name=name)


def dirac(index: int = 5, depth_budget: int | None = None) -> EdgeFamily:
    """All mass on child `index` at every node of the omega-branching tree."""
    tree = GeneratedTree(OMEGA, _budget(depth_budget), name="dirac")
    return EdgeFamily(tree, PointMass(index), name=f"dirac({index})")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[tuple[Path, str], ...]
    checked_depth: int | None


def validate_edge_family(family: EdgeFamily, depth: int | None = None) -> ValidationReport:
    """Check that every per-node distribution is a probability distribution over the node's children.

    A table or shared row was checked when the family was built, so only a
    rule family's rows are read, on all nodes up to a shallow depth (closed
    forms certify their own totals); the report records the depth covered.
    """
    tree = family.tree
    if depth is not None:
        depth = depth if tree.depth_budget is None else min(tree.depth_budget, depth)
        _check_budget(tree, depth)
    check_depth = None if family.is_explicit else min(tree.depth_budget, 4) if depth is None else depth
    defects, stack = [], [()] if callable(family._dists) else []  # only a rule's rows are unchecked
    while stack:  # from the root, so every t is a node: rows are read as `dist` gives them
        t = stack.pop()
        if not (a := tree._arity_unchecked(t)):
            continue
        d = family._dists(t)
        # closed forms have total 1 by construction
        defects.append((t, _support_mismatch(d, a) or (isinstance(d, FiniteDist) and d.defect())))
        if len(t) < check_depth and a is not OMEGA:
            stack.extend(t + (k,) for k in range(a))
    violations = tuple((t, defect) for t, defect in defects if defect)
    return ValidationReport(not violations, violations, check_depth)


def _walk(family: EdgeFamily, ends: Iterable[Path], start: Path = (), require=None) -> dict[Path, tuple[int, int, int]]:
    """Each end's cell [l/q, (l + w)/q) within start's cell scaled to [0, 1], as integers (l, w, q).

    The path-walk kernel: each end is validated once, by `require` (the
    tree's by default), and must extend `start`. Each step reads its node
    state (from `EdgeFamily._root` down), multiplies in the child's integer cell,
    with no gcd, and moves to the child's state; the walk down to `start`
    reads no row. w/q is the end's weight below `start`. Ends are visited in
    lexicographic order, so a prefix shared by several ends is folded once:
    one step per distinct node. Only prefixes the next end shares keep their
    cell, so a rule node's state, which holds its path, dies with its step.
    """
    state = family._state(start)
    base = j = len(start)
    ends = sorted(set(map(require or family.tree.require, map(tuple, ends))))
    out: dict[Path, tuple[int, int, int]] = {}
    cells = [(0, 1, 1, state)]  # cells[i]: the cell of s[: base + i] and its state, for i up to what the next end shares
    for s, after in zip(ends, [*ends[1:], start]):
        keep, common = base, min(len(s), len(after))
        while keep < common and s[keep] == after[keep]:
            keep += 1
        lo, w, q, state = cells[-1]  # the cell of s[:j], which the previous end shares
        for i, k in enumerate(s[j:], j):
            _, table, kids = state
            b, c, r = table[k]
            lo, w, q = lo * r + w * b, w * c, q * r
            state = kids.get(k, state)
            if i < keep:
                cells.append((lo, w, q, state))
        out[s] = lo, w, q
        del cells[keep - base + 1 :]
        j = keep
    return out


def node_mass(family: EdgeFamily, t: Path) -> Fraction:
    """Product of the edge probabilities along the path to t."""
    t = tuple(t)
    return Fraction(*_walk(family, (t,))[t][1:])


class InductiveMeasure:
    """Node masses satisfying the inductive law, materialized to a depth.

    The root has mass one and every interior node's mass equals the total
    mass of its successors. `depth` limits what is materialized for
    measures over generated trees; None means the whole (finite) tree.
    """

    __slots__ = ("tree", "_masses", "depth")

    def __init__(
        self,
        tree: TreeShape,
        masses: Mapping[Path, FractionLike],
        depth: int | None = None,
    ):
        table = {tuple(t): as_fraction(m) for t, m in masses.items()}
        if depth is None and not isinstance(tree, ExplicitTree):
            raise InvalidArgument("measures over generated trees need a materialization depth")
        self.tree = tree
        self._masses = table
        self.depth = depth
        self._validate()

    @classmethod
    def _trusted(cls, tree: TreeShape, masses: dict[Path, Fraction], depth: int | None) -> "InductiveMeasure":
        """Adopt masses that obey the inductive law by construction, unchecked."""
        measure = cls.__new__(cls)
        measure.tree, measure._masses, measure.depth = tree, masses, depth
        return measure

    def _validate(self) -> None:
        tree = self.tree
        if self._masses.get((), None) != 1:
            raise InvalidArgument("root mass must be exactly 1")
        for t, m in self._masses.items():
            if not 0 <= m <= 1:
                raise InvalidArgument(f"mass at {t} is {show(m)}, outside [0, 1]")
            if self.depth is not None and len(t) > self.depth:
                raise InvalidArgument(f"mass at {t} lies beyond the materialized depth {self.depth}")
            tree.require(t)
        for t, m in self._masses.items():  # every t is now a node
            if self.depth is not None and len(t) >= self.depth:
                continue
            kids = [t + (k,) for k in tree._child_indices(t)]
            if not kids:
                continue
            missing = [c for c in kids if c not in self._masses]
            if missing:
                raise InvalidArgument(f"successors of {t} are not all materialized: {missing[0]}")
            total = fraction_sum(self._masses[c].as_integer_ratio() for c in kids)
            if total != m:
                raise InvalidArgument(f"inductive law fails at {t}: children sum to {show(total)}, node has {show(m)}")

    def mass(self, t: Path) -> Fraction:
        t = tuple(t)
        if t in self._masses:
            return self._masses[t]
        self.tree.require(t)
        raise DepthBudgetExceeded(f"node {t} lies beyond the materialized depth {self.depth}")

    def nodes(self) -> Iterator[Path]:
        return iter(self._masses)

    def items(self) -> Iterator[tuple[Path, Fraction]]:
        return iter(self._masses.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InductiveMeasure):
            return NotImplemented
        return self._masses == other._masses

    def __hash__(self) -> int:
        return hash(frozenset(self._masses.items()))

    def __repr__(self) -> str:
        return f"InductiveMeasure({len(self._masses)} nodes, depth={self.depth})"


def induced_measure(family: EdgeFamily, depth: int | None = None) -> InductiveMeasure:
    """Materialize the induced node masses on all nodes up to `depth`.

    A row that is not a probability distribution raises NotADistribution
    (a table's or shared row's when the family is built), so the masses obey
    the inductive law by construction and are not checked again.
    """
    tree = family.tree
    if depth is None and not isinstance(tree, ExplicitTree):
        raise InvalidArgument("materializing a generated family needs an explicit depth")
    depth_limit = tree.height if depth is None else depth
    _check_budget(tree, depth_limit)
    record_depth = None if isinstance(tree, ExplicitTree) and depth_limit >= tree.height else depth
    masses: dict[Path, Fraction] = {}
    stack = [((), ONE, family._root)]  # each node with its mass and its state
    while stack:
        t, m, state = stack.pop()
        masses[t] = m
        d, _, kids = state if len(t) < depth_limit else _MAXIMAL
        if d is None:
            continue
        if d.support is OMEGA:
            raise InfiniteLevel(f"node {t} has infinitely many successors")
        stack.extend((t + (k,), m * p, kids.get(k, state)) for k, p in d.items())
    return InductiveMeasure._trusted(tree, masses, record_depth)


def _materialized_masses(measure: InductiveMeasure, nodes: Iterable[Path]) -> list[Fraction]:
    """The masses of nodes; one the measure has not materialized raises as `measure.mass` does."""
    try:
        return list(map(measure._masses.__getitem__, nodes))
    except KeyError as missing:
        measure.mass(*missing.args)  # raises UnknownNode or DepthBudgetExceeded
        raise


def _total_mass(measure: InductiveMeasure, nodes: Iterable[Path]) -> Fraction:
    """The summed masses of nodes, read as `_materialized_masses` reads them."""
    return fraction_sum(map(Fraction.as_integer_ratio, _materialized_masses(measure, nodes)))


def front_mass(measure: InductiveMeasure, front: Front) -> Fraction:
    """Total mass of a front; exactly one for any valid inductive measure."""
    _check_front(measure.tree, front, "the given node set")
    return _total_mass(measure, front.nodes)


def below_mass(measure: InductiveMeasure, t: Path, front: Front) -> Fraction:
    """Mass of the front members extending t; equals the mass of t itself."""
    _check_front(measure.tree, front, "the given node set")
    t = tuple(t)
    members = [s for s in front.nodes if s[: len(t)] == t]  # a slice compared in C, not a call per member
    if not members:
        raise NodeNotBelowFront(f"node {t} has no extension in the front")
    return _total_mass(measure, members)


class NullNodeSet:
    """The zero-mass nodes of a generated family, as a membership test.

    Only membership is computable: iteration and length fail rather than
    silently truncating. An explicit family's null set is a frozenset.
    """

    __slots__ = ("_family",)

    def __init__(self, family: EdgeFamily):
        self._family = family

    def __contains__(self, t: Path) -> bool:
        return node_mass(self._family, tuple(t)) == 0

    def __iter__(self) -> Iterator[Path]:
        raise InfiniteLevel("null node set of a generated family is not enumerable")

    def __len__(self) -> int:
        raise InfiniteLevel("null node set of a generated family is not enumerable")

    def __eq__(self, other: object) -> bool:
        return self._family == other._family if isinstance(other, NullNodeSet) else NotImplemented

    def __repr__(self) -> str:
        return "NullNodeSet(<generated>)"


def positive_part(family: EdgeFamily, depth: int | None = None) -> tuple[EdgeFamily, frozenset[Path] | NullNodeSet]:
    """Restrict the family to nodes of positive induced mass.

    The restricted tree keeps the original child indices, so the positive
    part of a canonical family may be sparse. A generated family whose
    shared row is positive on its whole support comes back unchanged; any
    other is walked from the root, an explicit one to its height and a
    generated one up to `depth`, and must have finite positive support at
    every node (point masses). Rule rows are read as every walk reads them,
    so one that is not a distribution over its node's children raises
    NotADistribution. An explicit family's null nodes come back as a
    frozenset, a generated family's as a NullNodeSet.
    """
    tree = family.tree
    if (row := family.row) is not None and row.positive_support() == row.support:
        return family, NullNodeSet(family)

    explicit = family.is_explicit
    limit = tree.height if explicit else (tree.depth_budget if depth is None else depth)
    _check_budget(tree, limit)
    children: dict[Path, tuple[int, ...]] = {}
    dists: dict[Path, FiniteDist] = {}
    stack = [((), family._root)]  # each node with its state
    while stack:
        t, state = stack.pop()
        d, _, kids = state if len(t) < limit else _MAXIMAL
        if d is None:
            children[t] = ()
            continue
        support = d.positive_support()
        if support is OMEGA:
            raise InfiniteLevel(f"node {t} has infinitely many positive successors")
        children[t] = tuple(support)
        dists[t] = FiniteDist({k: d.mass(k) for k in support})
        stack.extend((t + (k,), kids.get(k, state)) for k in support)
    null = frozenset(t for t in tree.nodes() if t not in children) if explicit else NullNodeSet(family)
    return EdgeFamily(ExplicitTree(children, tree.depth_budget), dists), null


class GeneralPair:
    """A positive inductive measure plus fillers for the null region.

    Together with the host tree this is exactly the data needed to rebuild
    an edge family: quotients of consecutive masses on the positive part,
    the fillers below zero-mass nodes. The constructor builds that family's
    row at every non-maximal host node, once, and building them is the
    check: each must be a distribution over its node's host children.
    """

    __slots__ = ("host_tree", "positive", "fillers", "_rows")

    def __init__(
        self,
        host_tree: TreeShape,
        positive: InductiveMeasure,
        fillers: Mapping[Path, Dist],
    ):
        if not isinstance(host_tree, ExplicitTree):
            raise MalformedPair("pairs are supported over explicit host trees only")
        if not isinstance(positive.tree, ExplicitTree):
            raise MalformedPair("the positive part must live on an explicit tree")
        if positive.depth is not None and positive.depth < positive.tree.height:
            raise MalformedPair(f"a pair needs the whole positive measure, not one materialized to depth {positive.depth}")
        self.host_tree = host_tree
        self.positive = positive
        self.fillers = {tuple(t): d for t, d in fillers.items()}
        # a whole measure has a mass at every node of its tree
        host, pos, masses = host_tree._children, positive.tree._children, positive._masses
        for t in pos:  # pos is prefix-closed, so once its nodes are host nodes its children are host children
            if t not in host:
                raise MalformedPair(f"positive node {t} is not in the host tree")
            if masses[t] <= 0:
                raise MalformedPair(f"positive part carries mass 0 at {t}")
        self._rows: dict[Path, FiniteDist] = {}
        for t, kids in host.items():
            if not kids:
                continue
            if t in pos:
                m, what = masses[t], f"the row at positive node {t}"
                d = FiniteDist({k: masses.get(t + (k,), ZERO) / m for k in kids})
            else:
                d, what = self.fillers.get(t), f"filler at {t}"
                if d is None:
                    raise MalformedPair("fillers must cover exactly the non-maximal null nodes")
                if not isinstance(d, FiniteDist):
                    raise MalformedPair(f"{what} must be a finite distribution")
                if d.indices != kids:
                    raise MalformedPair(f"{what} does not match the host child set")
            if (defect := d.defect()) is not None:
                raise MalformedPair(f"{what} is not a distribution: {defect}")
            self._rows[t] = d
        if any(self._rows.get(t) is not d for t, d in self.fillers.items()):  # one at a positive or maximal node
            raise MalformedPair("fillers must cover exactly the non-maximal null nodes")

    def induced_mass(self, t: Path) -> Fraction:
        """Mass of t in the measure this pair represents (zero off the positive part)."""
        t = tuple(t)
        if self.positive.tree.contains(t):
            return self.positive.mass(t)
        self.host_tree.require(t)
        return ZERO

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GeneralPair):
            return NotImplemented
        return (
            self.host_tree == other.host_tree
            and self.positive == other.positive
            and self.fillers == other.fillers
        )

    def __repr__(self) -> str:
        return f"GeneralPair(positive={self.positive!r}, fillers={len(self.fillers)})"


def split_measure(measure: InductiveMeasure) -> tuple[InductiveMeasure, frozenset[Path]]:
    """Restrict a measure to its positive subtree; also return the null nodes."""
    tree = measure.tree
    if not isinstance(tree, ExplicitTree):
        raise InfiniteLevel("splitting a measure requires an explicit tree")
    keep = {t: m for t, m in measure.items() if m > 0}
    null = frozenset(t for t in tree.nodes() if t not in keep)
    children = {t: tuple(k for k in tree._child_indices(t) if t + (k,) in keep) for t in keep}
    sub_tree = ExplicitTree(children, tree.depth_budget)
    # the restriction obeys the law wherever the measure does
    positive = InductiveMeasure._trusted(sub_tree, keep, measure.depth)
    return positive, null


def family_from_pair(pair: GeneralPair) -> EdgeFamily:
    """Rebuild the edge family: mass quotients on positive nodes, fillers elsewhere."""
    return EdgeFamily(pair.host_tree, pair._rows)


def pair_from_family(family: EdgeFamily) -> GeneralPair:
    """Split a family into its positive measure and the original null fillers.

    Every row, null ones included, is a distribution: the family's
    constructor refused any other.
    """
    if not family.is_explicit:
        raise InfiniteLevel("splitting a generated family into a pair is not supported")
    positive, null = split_measure(induced_measure(family))
    rows = family._dists
    return GeneralPair(family.tree, positive, {t: rows[t] for t in null if t in rows})


def positive_equivalent(a: EdgeFamily, b: EdgeFamily) -> bool:
    """True when the two families have identical positive parts."""
    return positive_part(a)[0] == positive_part(b)[0]


def positive_equivalent_measures(a: InductiveMeasure, b: InductiveMeasure) -> bool:
    """True when the two measures agree on their positive subtrees."""
    return {t: m for t, m in a.items() if m > 0} == {t: m for t, m in b.items() if m > 0}
