"""Random variables on fronts and relative (conditional) expectations.

A front variable assigns an exact rational to every member of a front.
Its expectation relative to a node t is the expectation in the subtree
rooted at t under the inherited family, folded bottom-up by the inductive
law E[X | t] = sum_k p_t(k) E[X | tk] and memoized on the variable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Mapping, Optional

from .dists import FractionLike, as_fraction, fraction_sum
from .errors import InvalidArgument, NodeNotBelowFront, NotAFront, PreconditionFrontMismatch
from .measures import EdgeFamily, InductiveMeasure, _materialized_masses, _walk
from .paths import Path, is_prefix
from .trees import Front, _check_front, level


@dataclass(frozen=True)
class FrontVariable:
    """An exact rational value for every member of a front; `values` is read-only."""

    front: Front
    values: Mapping[Path, Fraction]

    def __post_init__(self) -> None:
        table = {tuple(t): as_fraction(v) for t, v in self.values.items()}
        if set(table) != set(self.front.nodes):
            raise InvalidArgument("variable values must cover exactly the front members")
        object.__setattr__(self, "values", MappingProxyType(table))
        # (family, {node: entry}), swapped as one object so no query mixes two families
        object.__setattr__(self, "_memo", (None, {}))

    def __call__(self, t: Path) -> Fraction:
        return self.values[tuple(t)]

    def scale_add(self, a: FractionLike, other: "FrontVariable", b: FractionLike) -> "FrontVariable":
        """Pointwise a*self + b*other on a shared front."""
        if self.front.nodes != other.front.nodes:
            raise InvalidArgument("variables live on different fronts")
        a, b = as_fraction(a), as_fraction(b)
        return FrontVariable(
            self.front, {t: a * v + b * other.values[t] for t, v in self.values.items()}
        )


def expect(measure: InductiveMeasure, variable: FrontVariable) -> Fraction:
    """Expectation of the variable under the front restriction of the measure."""
    _check_front(measure.tree, variable.front, "the variable's front")
    values = variable.values
    terms = zip(values.values(), _materialized_masses(measure, values))
    return fraction_sum((v.numerator * m.numerator, v.denominator * m.denominator) for v, m in terms)


def _conditional(family: EdgeFamily, variable: FrontVariable, t: Path) -> Optional[tuple]:
    """(E[X | t], depth of the shallowest, depth of the deepest member below t).

    None when t strictly extends a member. The first query at t folds the
    subtree below t post-order and memoizes every entry for one family
    object; later queries at or below t are dict reads. The front must be
    a front of the family's tree: every child of a node above it then lies
    at or above a member. A node's state gives its row before its children
    are folded, so the shallowest refused rule row on a path raises, as in `_walk`.
    """
    owner, memo = variable._memo
    if owner is not family:
        memo = {}
        object.__setattr__(variable, "_memo", (family, memo))
    values = variable.values
    if t in memo or any(t[:i] in values for i in range(len(t))):
        return memo.get(t)
    stack = [(t, family._state(t), None)]  # each node with its state, and its (child, edge mass) pairs once pushed
    while stack:
        u, state, kids = stack.pop()
        if kids is not None:
            es, los, his = zip(*(memo[c] for c, _ in kids))
            terms = [p * e for (_, p), e in zip(kids, es)]
            memo[u] = (sum(terms[1:], terms[0]), min(los), max(his))
        elif u in values:
            memo[u] = (values[u], len(u), len(u))
        else:  # an interior node: its row, read before its children are folded, lists every child
            d, _, nexts = state
            kids = [(u + (k,), p) for k, p in d.items()]
            stack.append((u, state, kids))
            stack.extend((c, nexts.get(c[-1], state), None) for c, _ in kids if c not in memo)
    return memo[t]


def _checked_conditional(family: EdgeFamily, variable: FrontVariable, t: Path) -> tuple:
    """`_conditional` at a node of the tree that some front member extends."""
    _check_front(family.tree, variable.front, "the variable's front")
    t = family.tree.require(tuple(t))
    entry = _conditional(family, variable, t)
    if entry is None:
        raise NodeNotBelowFront(f"node {t} has no extension in the variable's front")
    return t, entry


def relative_expect(family: EdgeFamily, variable: FrontVariable, t: Path) -> Fraction:
    """Expectation of the variable among the front members extending t.

    Requires that no maximal node shorter than the front level sits above
    t: every member extending t must lie at the full level, so the
    conditional weights form a probability distribution.
    """
    t, (e, shallowest, _) = _checked_conditional(family, variable, t)
    if shallowest != (n := max(map(len, variable.values))):
        raise PreconditionFrontMismatch(f"a maximal node shorter than level {n} lies above {t}")
    return e


def relative_expect_front(family: EdgeFamily, variable: FrontVariable, t: Path) -> Fraction:
    """Front-general variant: condition on t over an arbitrary front."""
    return _checked_conditional(family, variable, t)[1][0]


@dataclass(frozen=True)
class TowerCase:
    node: Path
    lhs: Fraction
    rhs: Fraction

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


@dataclass(frozen=True)
class TowerReport:
    cases: tuple[TowerCase, ...]

    @property
    def equal(self) -> bool:
        return all(c.equal for c in self.cases)

    @property
    def lhs(self) -> Fraction:
        if len(self.cases) != 1:
            raise InvalidArgument("lhs is only defined for single-node reports")
        return self.cases[0].lhs

    @property
    def rhs(self) -> Fraction:
        if len(self.cases) != 1:
            raise InvalidArgument("rhs is only defined for single-node reports")
        return self.cases[0].rhs


def _tower_case(family: EdgeFamily, variable: FrontVariable, t: Path, inner) -> TowerCase:
    """E[X | t] against the sum of w(t, s) × E[X | s] over the intermediate
    nodes s extending t, which lie at or above the variable's front."""
    cells = _walk(family, inner, start=t)
    terms = ((w, q, _conditional(family, variable, s)[0]) for s, (_, w, q) in cells.items())
    rhs = fraction_sum((w * e.numerator, q * e.denominator) for w, q, e in terms)
    return TowerCase(t, _conditional(family, variable, t)[0], rhs)


def tower_check(family: EdgeFamily, variable: FrontVariable, m: int, n: int, k: int) -> TowerReport:
    """Both sides of the iterated-conditioning identity, for every node at level m.

    The left side conditions the level-k variable on each level-m node
    directly; the right side first averages over level n. Equality is
    exact whenever no maximal node shorter than k sits above the node.
    """
    if not (0 <= m <= n <= k):
        raise InvalidArgument("levels must satisfy m <= n <= k")
    _check_front(family.tree, variable.front, "the variable's front")
    tree = family.tree
    cases = []
    for t in sorted(level(tree, m)):
        entry = _conditional(family, variable, t)
        if entry is None or entry[1:] != (k, k):
            raise PreconditionFrontMismatch(f"a maximal node shorter than level {k} lies above {t}")
        inner = [t]
        for _ in range(n - m):
            inner = [s + (c,) for s in inner for c in tree._child_indices(s)]
        cases.append(_tower_case(family, variable, t, inner))
    return TowerReport(tuple(cases))


def tower_check_fronts(
    family: EdgeFamily, variable: FrontVariable, inner: Front, t: Path = ()
) -> TowerReport:
    """Front-general tower identity: average over an intermediate front.

    `inner` must be a front lying below the variable's front; the check
    conditions on the single node t.
    """
    _check_front(family.tree, variable.front, "the variable's front")
    _check_front(family.tree, inner, "the intermediate node set")
    if any(_conditional(family, variable, s) is None for s in inner.nodes):
        raise NotAFront("the intermediate front is not below the variable's front")
    t = family.tree.require(tuple(t))
    between = [s for s in inner.nodes if is_prefix(t, s)]
    if not between:
        raise NodeNotBelowFront(f"node {t} has no extension in the intermediate front")
    return TowerReport((_tower_case(family, variable, t, between),))
