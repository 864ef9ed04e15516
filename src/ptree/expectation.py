"""Random variables on fronts and relative (conditional) expectations.

A front variable assigns an exact rational to every member of a front.
Its expectation relative to a node t re-weights the members extending t
by the edge probabilities accumulated from t down, which is exactly the
expectation in the subtree rooted at t under the inherited family.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .dists import FractionLike, ZERO, as_fraction
from .errors import NodeNotBelowFront, NotAFront, PreconditionFrontMismatch
from .measures import EdgeFamily, InductiveMeasure, _walk
from .paths import Path, is_prefix
from .trees import Front, is_front, level


@dataclass(frozen=True)
class FrontVariable:
    """An exact rational value for every member of a front."""

    front: Front
    values: Mapping[Path, Fraction]

    def __post_init__(self) -> None:
        table = {tuple(t): as_fraction(v) for t, v in self.values.items()}
        object.__setattr__(self, "values", table)
        if set(table) != set(self.front.nodes):
            raise ValueError("variable values must cover exactly the front members")

    def __call__(self, t: Path) -> Fraction:
        return self.values[tuple(t)]

    def scale_add(self, a: FractionLike, other: "FrontVariable", b: FractionLike) -> "FrontVariable":
        """Pointwise a*self + b*other on a shared front."""
        if self.front.nodes != other.front.nodes:
            raise ValueError("variables live on different fronts")
        a, b = as_fraction(a), as_fraction(b)
        return FrontVariable(
            self.front, {t: a * v + b * other.values[t] for t, v in self.values.items()}
        )


def expect(measure: InductiveMeasure, variable: FrontVariable) -> Fraction:
    """Expectation of the variable under the front restriction of the measure."""
    if not is_front(measure.tree, variable.front.nodes):
        raise NotAFront("variable's front is not a front of the measure's tree")
    return sum((variable(s) * measure.mass(s) for s in variable.front.nodes), ZERO)


def _expect_below(family: EdgeFamily, variable: FrontVariable, t: Path, members) -> Fraction:
    """Sum of X(s) times the weight from t down to s, over members extending t."""
    weights = _walk(family, members, start=t)
    return sum((variable(s) * w for s, w in weights.items()), ZERO)


def _members_below(variable: FrontVariable, t: Path) -> list[Path]:
    members = [s for s in variable.front.nodes if is_prefix(t, s)]
    if not members:
        raise NodeNotBelowFront(f"node {t} has no extension in the variable's front")
    return members


def relative_expect(
    family: EdgeFamily, variable: FrontVariable, t: Path, *, any_front: bool = False
) -> Fraction:
    """Expectation of the variable among the front members extending t.

    Requires that no maximal node shorter than the front level sits above
    t: every member extending t must lie at the full level, so the
    conditional weights form a probability distribution. With `any_front`
    the front may be arbitrary and that precondition is dropped.
    """
    if not is_front(family.tree, variable.front.nodes):
        raise NotAFront("variable's front is not a front of the family's tree")
    t = family.tree.require(tuple(t))
    members = _members_below(variable, t)
    if not any_front:
        n = max(len(s) for s in variable.front.nodes)
        if any(len(s) != n for s in members):
            raise PreconditionFrontMismatch(
                f"a maximal node shorter than level {n} lies above {t}"
            )
    return _expect_below(family, variable, t, members)


def relative_expect_front(family: EdgeFamily, variable: FrontVariable, t: Path) -> Fraction:
    """Front-general variant: condition on t over an arbitrary front."""
    return relative_expect(family, variable, t, any_front=True)


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
            raise ValueError("lhs is only defined for single-node reports")
        return self.cases[0].lhs

    @property
    def rhs(self) -> Fraction:
        if len(self.cases) != 1:
            raise ValueError("rhs is only defined for single-node reports")
        return self.cases[0].rhs


def _tower_case(
    family: EdgeFamily, variable: FrontVariable, t: Path, members: list[Path], inner: set[Path]
) -> TowerCase:
    """Both sides of E[E[X | inner] | t] = E[X | t] at the node t.

    `members` are the front members extending t and `inner` the
    intermediate nodes extending t. The right side groups the members by
    the inner node above them in one pass, then sums weight(t, s) × E[X | s].
    """
    lengths = {len(s) for s in inner}
    groups: dict[Path, list[Path]] = {}
    for r in members:
        for n in lengths:
            if r[:n] in inner:
                groups.setdefault(r[:n], []).append(r)
                break
    outer = _walk(family, groups, start=t)
    rhs = sum(
        (outer[s] * _expect_below(family, variable, s, rs) for s, rs in groups.items()), ZERO
    )
    return TowerCase(t, _expect_below(family, variable, t, members), rhs)


def tower_check(
    family: EdgeFamily, variable: FrontVariable, m: int, n: int, k: int
) -> TowerReport:
    """Both sides of the iterated-conditioning identity, for every node at level m.

    The left side conditions the level-k variable on each level-m node
    directly; the right side first averages over level n. Equality is
    exact whenever no maximal node shorter than k sits above the node.
    """
    if not (0 <= m <= n <= k):
        raise ValueError("levels must satisfy m <= n <= k")
    if not is_front(family.tree, variable.front.nodes):
        raise NotAFront("variable's front is not a front of the family's tree")
    below: dict[Path, list[Path]] = {}
    for r in variable.front.nodes:
        if len(r) >= m:
            below.setdefault(r[:m], []).append(r)
    cases = []
    for t in sorted(level(family.tree, m)):
        members = below.get(t, [])
        if any(len(r) != k for r in members):
            raise PreconditionFrontMismatch(
                f"a maximal node shorter than level {k} lies above {t}"
            )
        cases.append(_tower_case(family, variable, t, members, {r[:n] for r in members}))
    return TowerReport(tuple(cases))


def tower_check_fronts(
    family: EdgeFamily, variable: FrontVariable, inner: Front, t: Path = ()
) -> TowerReport:
    """Front-general tower identity: average over an intermediate front.

    `inner` must be a front lying below the variable's front; the check
    conditions on the single node t.
    """
    if not is_front(family.tree, variable.front.nodes):
        raise NotAFront("variable's front is not a front of the family's tree")
    if not is_front(family.tree, inner.nodes):
        raise NotAFront("the intermediate node set is not a front")
    if not inner.nodes <= {r[:i] for r in variable.front.nodes for i in range(len(r) + 1)}:
        raise NotAFront("the intermediate front is not below the variable's front")
    t = family.tree.require(tuple(t))
    between = {s for s in inner.nodes if is_prefix(t, s)}
    if not between:
        raise NodeNotBelowFront(f"node {t} has no extension in the intermediate front")
    members = _members_below(variable, t)
    return TowerReport((_tower_case(family, variable, t, members, between),))
