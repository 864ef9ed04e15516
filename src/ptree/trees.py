"""Countable trees of sequences: shapes, levels, fronts, and classification.

Trees come in two representations. Explicit trees are finite and fully
materialized; generated trees are backed by an arity rule and carry a
mandatory depth budget. Operations that would have to enumerate an
infinite set fail with InfiniteLevel instead of truncating silently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, product
from operator import le
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import (
    CyclicInput,
    DepthBudgetExceeded,
    InfiniteLevel,
    InvalidAdjacency,
    InvalidArgument,
    MalformedTree,
    MultipleRoots,
    NegativeDepth,
    NotAFront,
    UnknownNode,
)
from .paths import OMEGA, Path, is_prefix

Arity = Union[int, type(OMEGA)]

DEFAULT_DEPTH_BUDGET = 32


class _Tree:
    """The checked node accessors, written once over three primitives each tree kind gives:
    `contains`, and `_arity_unchecked` and `_child_indices` for a node known to be in the tree.

    A path is checked where it enters a public call; library code reads the
    nodes it produced or already checked through the primitives.
    """

    __slots__ = ()

    def require(self, t: Path) -> Path:
        t = tuple(t)
        if not self.contains(t):
            raise UnknownNode(f"no node {t} in tree")
        return t

    def arity(self, t: Path) -> Arity:
        return self._arity_unchecked(self.require(t))

    def child_indices(self, t: Path) -> tuple[int, ...]:
        return tuple(self._child_indices(self.require(t)))

    def children(self, t: Path) -> tuple[Path, ...]:
        t = self.require(t)
        return tuple(t + (k,) for k in self._child_indices(t))

    def is_maximal(self, t: Path) -> bool:
        return self._arity_unchecked(self.require(t)) == 0


class ExplicitTree(_Tree):
    """A finite prefix-closed tree, stored as a child-index map and checked once, here.

    Canonical trees have children 0..arity-1 at every node; restrictions
    (positive parts, encoded images) may keep sparse child-index sets.
    """

    __slots__ = ("_children", "depth_budget", "_height", "_index")
    is_explicit = True
    # bound here too, not only inherited: perfbench/spans.py traces a class's own public members
    require, arity, child_indices = _Tree.require, _Tree.arity, _Tree.child_indices
    children, is_maximal = _Tree.children, _Tree.is_maximal

    def __init__(self, children: Mapping[Path, Sequence[int]], depth_budget: int | None = None):
        child_map: dict[Path, tuple[int, ...]] = {}
        for node, indices in children.items():
            node, idx = tuple(node), tuple(sorted(map(int, indices)))
            if idx and idx[0] < 0:
                raise MalformedTree(node, "negative child index")
            if len(set(idx)) != len(idx):
                raise MalformedTree(node, "duplicate child index")
            child_map[node] = idx
        self._adopt(child_map, depth_budget)

    @classmethod
    def _canonical(cls, child_map: dict[Path, tuple[int, ...]], depth_budget: int | None = None) -> "ExplicitTree":
        """A tree over a map built in normal form (tuple keys, sorted tuples of distinct nonnegative indices)."""
        tree = cls.__new__(cls)
        tree._adopt(child_map, depth_budget)
        return tree

    def _adopt(self, child_map: dict[Path, tuple[int, ...]], depth_budget: int | None) -> None:
        """The structural check: keep a normal-form map once its root, prefix closure, declared children and depth fit."""
        if () not in child_map:
            raise MalformedTree((), "the root node is missing")
        for node in child_map:
            if node != ():
                parent = child_map.get(node[:-1])
                if parent is None:
                    raise MalformedTree(node, "parent node is missing (keys must be prefix-closed)")
                if node[-1] not in parent:
                    raise MalformedTree(node, "the parent does not declare this child")
        if sum(map(len, child_map.values())) != len(child_map) - 1:  # each other node is a declared child
            missing = next(t + (k,) for t, idx in child_map.items() for k in idx if t + (k,) not in child_map)
            raise MalformedTree(missing, "declared child is missing")
        self._children = child_map
        self.depth_budget = depth_budget
        self._height = max(map(len, child_map))
        if depth_budget is not None and self._height > depth_budget:
            raise MalformedTree(max(child_map, key=len), f"lies deeper than the depth budget {depth_budget}")
        self._index = None

    @classmethod
    def from_arities(cls, arities: Mapping[Path, int], depth_budget: int | None = None) -> "ExplicitTree":
        """Build a canonical tree from per-node child counts.

        Children implied by a count but absent from the mapping become
        leaves with arity zero.
        """
        children = {tuple(node): tuple(range(int(arity))) for node, arity in arities.items()}
        for node, idx in list(children.items()):
            for k in idx:
                children.setdefault(node + (k,), ())
        children.setdefault((), ())
        return cls._canonical(children, depth_budget)

    @property
    def height(self) -> int:
        """Depth of the deepest node; the root-only tree has height 0."""
        return self._height

    def contains(self, t: Path) -> bool:
        return tuple(t) in self._children

    def _arity_unchecked(self, t: Path) -> Arity:
        return len(self._children[t])

    def _child_indices(self, t: Path) -> tuple[int, ...]:
        return self._children[t]

    def nodes(self) -> Iterator[Path]:
        return iter(self._children)

    def node_count(self) -> int:
        return len(self._children)

    def max_nodes(self) -> tuple[Path, ...]:
        return tuple(t for t, idx in self._children.items() if not idx)

    def level_nodes(self, n: int) -> frozenset[Path]:
        return frozenset(t for t in self._children if len(t) == n)

    def child_map(self) -> Mapping[Path, tuple[int, ...]]:
        return dict(self._children)

    def _preorder(self) -> tuple[dict[Path, int], list[int], list[int]]:
        """Built on first use: each node's preorder position and, by position, one past its subtree's
        last position and its count of maximal nodes. Child tuples are sorted, so preorder is lexicographic
        order, and s is a proper prefix of t exactly when position[s] < position[t] < end[position[s]]."""
        if self._index is None:
            order = sorted(self._children)  # the tree's own key tuples, not copies
            end, ancestors = [len(order)] * len(order), []
            for i, t in enumerate(order):  # a stack, not recursion: trees may be deeper than the recursion limit
                while len(ancestors) > len(t):  # the nodes still open at i are t's ancestors, one per depth
                    end[ancestors.pop()] = i
                ancestors.append(i)
            maximal = list(accumulate((e == p + 1 for p, e in enumerate(end)), initial=0))  # a run of one is a maximal node
            self._index = dict(zip(order, range(len(order)))), end, [maximal[e] - maximal[p] for p, e in enumerate(end)]
        return self._index

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ExplicitTree) and self._children == other._children

    def __hash__(self) -> int:
        return hash(frozenset(self._children.items()))

    def __repr__(self) -> str:
        return f"ExplicitTree({self.node_count()} nodes, height {self.height})"


class GeneratedTree(_Tree):
    """A tree given by one arity shared by every node, or by an arity rule,
    explored only up to a depth budget.

    A shared arity (an int >= 0 or OMEGA) fixes the whole shape, so it is
    classified exactly. A rule maps each node to its arity; nothing is
    memoized, so the rule is called at every lookup and must be
    deterministic.
    """

    __slots__ = ("shared_arity", "_rule", "depth_budget", "name")
    is_explicit = False
    # bound here too, not only inherited: perfbench/spans.py traces a class's own public members
    require, arity, child_indices = _Tree.require, _Tree.arity, _Tree.child_indices
    children, is_maximal = _Tree.children, _Tree.is_maximal

    def __init__(self, arity: Arity | Callable[[Path], Arity], depth_budget: int, name: str | None = None):
        if depth_budget is None or depth_budget < 0:
            raise NegativeDepth("generated trees need a nonnegative depth budget")
        if callable(arity):
            self.shared_arity, self._rule = None, arity
        else:
            self.shared_arity, self._rule = _checked_arity(arity, "every node"), None
        self.depth_budget = depth_budget
        self.name = name

    def _arity_unchecked(self, t: Path) -> Arity:
        """Arity of a node known to be in the tree."""
        a = self.shared_arity
        return _checked_arity(self._rule(t), t) if a is None else a

    def contains(self, t: Path) -> bool:
        return self._contains_after(tuple(t), ())

    def _contains_after(self, t: Path, prev: Path) -> bool:
        """Whether t is a node, given that prev is one: the rule is called only past their common prefix."""
        if len(t) > self.depth_budget:
            raise DepthBudgetExceeded(f"node {t} lies beyond the depth budget {self.depth_budget}")
        a = self.shared_arity
        if a is not None:
            return not t or (min(t) >= 0 and (a is OMEGA or max(t) < a))
        i = next((n for n, (x, y) in enumerate(zip(prev, t)) if x != y), min(len(prev), len(t)))
        for j in range(i, len(t)):
            a = self._arity_unchecked(t[:j])
            if t[j] < 0 or (a is not OMEGA and t[j] >= a):
                return False
        return True

    def _child_indices(self, t: Path) -> range:
        a = self._arity_unchecked(t)
        if a is OMEGA:
            raise InfiniteLevel(f"node {t} has infinitely many successors")
        return range(a)

    def __repr__(self) -> str:
        label = self.name or "custom"
        return f"GeneratedTree({label}, budget {self.depth_budget})"


def _checked_arity(a: Arity, where: object) -> Arity:
    if a is OMEGA:
        return a
    a = int(a)
    if a < 0:
        raise InvalidArgument(f"negative arity {a} at {where}")
    return a


TreeShape = Union[ExplicitTree, GeneratedTree]


def canonicalize(
    adjacency: Mapping[Hashable, Sequence[Hashable]],
) -> tuple[ExplicitTree, dict[Hashable, Path]]:
    """Turn a labeled parent/children description into index-path form.

    Children keep their declaration order; the label map sends each input
    label to its path in the canonical tree.
    """
    parents: dict[Hashable, Hashable] = {}
    labels: set[Hashable] = set(adjacency)
    for node, kids in adjacency.items():
        for child in kids:
            if child in parents:
                raise InvalidAdjacency(f"label {child!r} has two parents")
            parents[child] = node
            labels.add(child)
    roots = [lbl for lbl in labels if lbl not in parents]
    if not roots:
        raise CyclicInput("every label has a parent; the relation is cyclic")
    if len(roots) > 1:
        raise MultipleRoots(f"found {len(roots)} parentless labels: {sorted(map(repr, roots))}")
    root = roots[0]

    label_map: dict[Hashable, Path] = {root: ()}
    children: dict[Path, tuple[int, ...]] = {}
    queue = [root]
    while queue:
        label = queue.pop()
        path = label_map[label]
        kids = tuple(adjacency.get(label, ()))
        children[path] = tuple(range(len(kids)))
        for k, child in enumerate(kids):
            label_map[child] = path + (k,)
            queue.append(child)
    if len(label_map) != len(labels):
        raise CyclicInput("some labels are unreachable from the root; the relation is cyclic")
    return ExplicitTree(children), label_map


def _check_budget(tree: TreeShape, n: int) -> None:
    """Fail when depth n is negative or lies beyond the tree's depth budget."""
    if n < 0:
        raise NegativeDepth(f"depth {n} is negative")
    if tree.depth_budget is not None and n > tree.depth_budget:
        raise DepthBudgetExceeded(f"depth {n} exceeds budget {tree.depth_budget}")


def level(tree: TreeShape, n: int) -> frozenset[Path]:
    """All nodes at depth n; empty beyond the height of the tree."""
    _check_budget(tree, n)
    if isinstance(tree, ExplicitTree):
        return tree.level_nodes(n)
    return frozenset(t for t in walk_to_depth(tree, n) if len(t) == n)


def walk_to_depth(tree: TreeShape, depth: int) -> Iterator[Path]:
    """Depth-first iteration over all nodes with length at most depth."""
    _check_budget(tree, depth)
    stack: list[Path] = [()]
    while stack:
        t = stack.pop()
        yield t
        if len(t) < depth:
            stack.extend(t + (k,) for k in reversed(tree._child_indices(t)))


@dataclass(frozen=True)
class Front:
    """A finite antichain met by every maximal branch of the tree."""

    tree: TreeShape
    nodes: frozenset[Path]
    # the last tree object this front passed `is_front` against (see _check_front)
    _valid_for: TreeShape | None = field(default=None, init=False, repr=False, compare=False)

    def __iter__(self) -> Iterator[Path]:
        return iter(self.nodes)

    def __len__(self) -> int:
        return len(self.nodes)


def enumerate_front(tree: TreeShape, n: int) -> Front:
    """The level-n nodes together with the maximal nodes shorter than n."""
    return Front(tree, frozenset(t for t in walk_to_depth(tree, n) if len(t) == n or not tree._child_indices(t)))


def is_front(tree: TreeShape, nodes: Iterable[Path]) -> bool:
    """Pairwise incompatible, and every branch (up to the budget) meets the set."""
    if isinstance(tree, ExplicitTree):
        position, end, leaves = tree._preorder()
        members = list(map(tuple, nodes))
        try:
            ranks = sorted(set(map(position.__getitem__, members)))
        except KeyError:
            raise UnknownNode(f"no node {min(t for t in members if t not in position)} in tree") from None
        # an extension of a member in the set would come next, inside the member's run; members
        # with disjoint runs cover every maximal node exactly when their counts add up to the root's
        return all(map(le, map(end.__getitem__, ranks), ranks[1:])) and sum(map(leaves.__getitem__, ranks)) == leaves[0]
    ordered, prev = sorted({tuple(t) for t in nodes}), ()
    for t in ordered:  # in order, so a rule tree checks a member only past the one before it
        if not tree._contains_after(t, prev):
            raise UnknownNode(f"no node {t} in tree")
        prev = t
    if not ordered:
        return False
    # in lexicographic order a member with an extension in the set is
    # immediately followed by one, so adjacent pairs decide incompatibility
    if any(is_prefix(s, t) for s, t in zip(ordered, ordered[1:])):
        return False
    members = frozenset(ordered)
    max_len = max(len(t) for t in members)
    # coverage walk, depth first in child order; a finite set can meet only
    # finitely many of an OMEGA node's subtrees
    stack: list[Path] = [()]
    while stack:
        t = stack.pop()
        if t in members:
            continue
        if len(t) == max_len:
            return False
        arity = tree._arity_unchecked(t)
        if arity == 0 or arity is OMEGA:
            return False
        stack.extend(t + (k,) for k in reversed(tree._child_indices(t)))
    return True


def _check_front(tree: TreeShape, front: Front, what: str) -> None:
    """Raise NotAFront unless `front` is a front of `tree`.

    Only a pass is remembered, on the front and for one tree object.
    """
    if front._valid_for is not tree:
        if not is_front(tree, front.nodes):
            raise NotAFront(f"{what} is not a front of the tree")
        object.__setattr__(front, "_valid_for", tree)


@dataclass(frozen=True)
class ClopenSelection:
    """A clopen set: a sub-selection of a front, possibly complemented."""

    front_level: int
    selected: frozenset[Path]
    complemented: bool = False


@dataclass(frozen=True)
class ClassifyReport:
    """Shape classification; exact=False means 'up to the reported depth'."""

    well_pruned: bool
    finitely_branching: bool
    perfect: bool
    height_or_budget: int
    exact: bool


def classify(tree: TreeShape, explore_depth: int | None = None) -> ClassifyReport:
    """Well-prunedness, branching, and perfectness of the tree.

    Explicit trees are classified exactly; a finite tree is never perfect
    because nothing splits above a maximal node. So is a generated tree
    with a shared arity: it is well pruned, finitely branching unless the
    arity is OMEGA, and perfect unless it is 0. Otherwise, or when an
    exploration depth is given, the answer is relative to that depth and
    marked inexact.
    """
    if explore_depth is not None:
        _check_budget(tree, explore_depth)
    if isinstance(tree, ExplicitTree):
        height = tree.height
        well_pruned = all(len(t) == height for t in tree.max_nodes())
        return ClassifyReport(
            well_pruned=well_pruned,
            finitely_branching=True,
            perfect=False,
            height_or_budget=height,
            exact=True,
        )

    a = tree.shared_arity
    if a is not None and explore_depth is None:
        return ClassifyReport(
            well_pruned=True,
            finitely_branching=a is not OMEGA,
            perfect=a != 0,
            height_or_budget=tree.depth_budget,
            exact=True,
        )

    depth = explore_depth if explore_depth is not None else min(tree.depth_budget, 8)
    finitely_branching = True
    max_depths: list[int] = []
    deepest = 0
    # OMEGA nodes are explored through two representative children only;
    # the report is honest about being an up-to-depth statement.
    stack: list[Path] = [()]
    while stack:
        t = stack.pop()
        deepest = max(deepest, len(t))
        a = tree._arity_unchecked(t)  # the walk starts at the root, so t is a node
        if a is OMEGA:
            finitely_branching = False
            if len(t) < depth:
                stack.extend(t + (k,) for k in range(2))
            continue
        if a == 0:
            max_depths.append(len(t))
            continue
        if len(t) < depth:
            stack.extend(t + (k,) for k in range(a))
        else:
            deepest = depth
    well_pruned = all(d == deepest for d in max_depths)
    perfect = not max_depths
    return ClassifyReport(
        well_pruned=well_pruned,
        finitely_branching=finitely_branching,
        perfect=perfect,
        height_or_budget=depth,
        exact=False,
    )


def complete_binary_tree(height: int) -> ExplicitTree:
    """The explicit binary tree whose deepest nodes have length `height`, its nodes listed level by level."""
    if height < 0:
        raise NegativeDepth(f"height {height} is negative")
    children = {t: (0, 1) if d < height else () for d in range(height + 1) for t in product((0, 1), repeat=d)}
    return ExplicitTree._canonical(children)
