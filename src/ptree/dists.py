"""Successor distributions: finite tables and closed forms for infinite arity.

Every distribution answers three exact queries: the mass of child k, the
total mass of children below k (prefix mass), and the grand total. Closed
forms answer them symbolically so trees with infinitely many successors
never need enumeration.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Mapping, Sequence, Union

from .errors import InexactValue
from .paths import OMEGA

ONE = Fraction(1)
ZERO = Fraction(0)

FractionLike = Union[Fraction, int, str]


def as_fraction(value: FractionLike) -> Fraction:
    """Convert exactly; decimal strings become their exact rational value, floats raise."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise InexactValue(f"{value!r} is a float; give an exact value such as the string {str(value)!r}")
    return Fraction(value)


class FiniteDist:
    """A distribution over a finite set of child indices.

    The index set need not be contiguous: restrictions of a family to a
    subtree keep the original child indices. Entries are not forced to sum
    to one here; `defect` says whether they do, and walks refuse a row that fails.
    """

    __slots__ = ("_items", "_grid")

    def __init__(self, masses: Union[Sequence[FractionLike], Mapping[int, FractionLike]]):
        if isinstance(masses, Mapping):
            items = tuple((int(k), as_fraction(v)) for k, v in sorted(masses.items()))
        else:
            items = tuple((k, as_fraction(v)) for k, v in enumerate(masses))
        if any(k < 0 for k, _ in items):
            raise ValueError("negative child index")
        self._items = items
        self._grid = None

    @property
    def indices(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self._items)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(m for _, m in self._items)

    @property
    def support(self):
        return self.indices

    def mass(self, k: int) -> Fraction:
        for j, m in self._items:
            if j == k:
                return m
        raise ValueError(f"child index {k} not in distribution support {self.indices}")

    def prefix_mass(self, k: int) -> Fraction:
        q, _, _, _, runs = self.grid()
        return Fraction(runs[bisect_left(self._items, k, key=itemgetter(0))], q)

    @property
    def total(self) -> Fraction:
        q, _, _, _, runs = self.grid()
        return Fraction(runs[-1], q)

    def grid(self) -> tuple[int, list[int], list[tuple[int, int, int]], bool, list[int]]:
        """The row over one integer denominator, built on first use.

        Returns (q, lowers, cells, stochastic, runs): q is the lcm of the
        row's denominators; cells holds (k, b, a) for each child of
        positive mass, whose cell is [b/q, a/q), in index order; lowers
        holds the b's for bisection; stochastic says whether every mass
        is nonnegative and the masses sum to exactly one; runs[i] is q
        times the mass of the first i entries.
        """
        if self._grid is None:
            q = math.lcm(*(m.denominator for _, m in self._items))
            runs, cells, nonnegative = [0], [], True
            for k, m in self._items:
                run, c = runs[-1], m.numerator * (q // m.denominator)
                nonnegative = nonnegative and c >= 0
                if c > 0:
                    cells.append((k, run, run + c))
                runs.append(run + c)
            self._grid = (q, [b for _, b, _ in cells], cells, nonnegative and runs[-1] == q, runs)
        return self._grid

    def defect(self) -> str | None:
        """Why the row is not a probability distribution; None when it is one."""
        if self.grid()[3]:
            return None
        for k, m in self._items:
            if not 0 <= m <= 1:
                return f"child {k} has mass {m} outside [0, 1]"
        return f"masses sum to {self.total}, not 1"

    def positive_support(self) -> tuple[int, ...]:
        return tuple(j for j, m in self._items if m > 0)

    def restrict(self, indices: Iterable[int]) -> "FiniteDist":
        keep = set(indices)
        return FiniteDist({j: m for j, m in self._items if j in keep})

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        return self._items

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteDist) and self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {m}" for j, m in self._items)
        return f"FiniteDist({{{body}}})"


class Geometric:
    """Closed form over countably many children: child k has mass (1-r)·r^k."""

    __slots__ = ("ratio",)

    def __init__(self, ratio: FractionLike):
        r = as_fraction(ratio)
        if not 0 < r < 1:
            raise ValueError("geometric ratio must lie strictly between 0 and 1")
        self.ratio = r

    @property
    def support(self):
        return OMEGA

    def mass(self, k: int) -> Fraction:
        return (1 - self.ratio) * self.ratio**k

    def prefix_mass(self, k: int) -> Fraction:
        return 1 - self.ratio**k

    @property
    def total(self) -> Fraction:
        return ONE

    def positive_support(self):
        return OMEGA

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Geometric) and self.ratio == other.ratio

    def __hash__(self) -> int:
        return hash(("geometric", self.ratio))

    def __repr__(self) -> str:
        return f"Geometric({self.ratio})"


class PointMass:
    """Closed form over countably many children: all mass on one child."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise ValueError("negative child index")
        self.index = index

    @property
    def support(self):
        return OMEGA

    def mass(self, k: int) -> Fraction:
        return ONE if k == self.index else ZERO

    def prefix_mass(self, k: int) -> Fraction:
        return ONE if k > self.index else ZERO

    @property
    def total(self) -> Fraction:
        return ONE

    def positive_support(self) -> tuple[int, ...]:
        return (self.index,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointMass) and self.index == other.index

    def __hash__(self) -> int:
        return hash(("pointmass", self.index))

    def __repr__(self) -> str:
        return f"PointMass({self.index})"


Dist = Union[FiniteDist, Geometric, PointMass]
