"""Successor distributions: finite tables and closed forms for infinite arity.

Every distribution answers three exact queries: the mass of child k, the
total mass of children below k (prefix mass), and the grand total. Closed
forms answer them symbolically so trees with infinitely many successors
never need enumeration.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from operator import attrgetter, eq, itemgetter
from typing import Iterable, Mapping, Sequence, Union

from .errors import InexactValue, InvalidArgument, NotADistribution, OversizedValue
from .paths import OMEGA

ONE = Fraction(1)
ZERO = Fraction(0)

FractionLike = Union[Fraction, int, str]

# A string is read only when it is short and its decimal exponent small:
# CPython parses at most 4,300 digits, and 10^10,000 already has 33,220 bits.
MAX_CHARS = 4_000
MAX_EXPONENT = 10_000
_EXPONENT = re.compile(r"e([-+]?\d+(?:_\d+)*)\s*$", re.IGNORECASE)
_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")  # what str(Fraction) writes; int() reads it
SHOWN_BITS = 1_024
# The most bits r^k may take in a geometric cell: child k of r = rn/rd is
# refused once k · bits(rd) passes it (2^20 bits, 128 KiB per integer).
MAX_POWER_BITS = 1 << 20
# A shared geometric row tabulates children 0..K-1 over Q = rd^K, for the largest K >= 1 with K · bits(rd) <= it; a
# shared row steps m levels at once only while m · bits(its q) <= it (`FiniteDist._stride`, `Geometric._stride`).
HEAD_BITS = 256


def as_fraction(value: FractionLike) -> Fraction:
    """Convert exactly; decimal strings become their exact rational value, floats raise."""
    if value.__class__ is Fraction:  # not isinstance: Fraction is an ABC, slow to test a str against
        return value
    if isinstance(value, str):
        if len(value) <= MAX_CHARS and (canonical := _CANONICAL.fullmatch(value)):
            return Fraction(int(canonical[1]), int(canonical[2] or 1))
        if len(value) > MAX_CHARS or ((e := _EXPONENT.search(value)) and abs(int(e[1])) > MAX_EXPONENT):
            raise OversizedValue(f"fraction string {value[:40]!r}: over {MAX_CHARS} characters, or an exponent beyond ±{MAX_EXPONENT}")
    elif isinstance(value, float):
        raise InexactValue(f"{value!r} is a float; give an exact value such as the string {str(value)!r}")
    return Fraction(value)


def as_ratio(value: FractionLike) -> tuple[int, int]:
    """value exactly as integers (n, d), d > 0. A canonical string is read as written, so "2/4" gives (2, 4), and no
    Fraction is built; anything else is read by `as_fraction`, in lowest terms, and raises as it does."""
    if isinstance(value, str) and len(value) <= MAX_CHARS and (canonical := _CANONICAL.fullmatch(value)):
        if d := int(canonical[2] or 1):  # "1/0" is left to as_fraction's ZeroDivisionError
            return int(canonical[1]), d
    return as_fraction(value).as_integer_ratio()


def show(x: Fraction) -> str:
    """x as text for messages and names; past 1,024 bits, its size: str() fails past 4,300 digits."""
    n, d = x.numerator.bit_length(), x.denominator.bit_length()
    return str(x) if max(n, d) <= SHOWN_BITS else f"{'-' * (x < 0)}~2^{n - d} ({n}-bit/{d}-bit fraction)"


def _not_a_child(k: int, support: object) -> InvalidArgument:
    return InvalidArgument(f"child index {k} not in distribution support {support}")


def fraction_sum(terms: Iterable[tuple[int, int]]) -> Fraction:
    """The sum of n/d over (n, d) pairs, d > 0: numerators added per d, then over one lcm, one gcd."""
    groups: dict[int, int] = {}
    for n, d in terms:
        groups[d] = groups.get(d, 0) + n
    q = math.lcm(*groups)
    return Fraction(sum(n * (q // d) for d, n in groups.items()), q)


class FiniteDist:
    """A distribution over a finite set of child indices.

    The index set need not be contiguous: restrictions of a family to a
    subtree keep the original child indices. Entries are not forced to sum
    to one here; `defect` says whether they do, and families refuse a row that fails.
    The row is kept as integers over one denominator; its masses as Fractions are built where they are read.
    """

    __slots__ = ("indices", "_grid", "_hits")

    def __init__(self, masses: Union[Sequence[FractionLike], Mapping[int, FractionLike]]):
        if isinstance(masses, (list, tuple)) or not isinstance(masses, Mapping):
            ratios = list(map(as_ratio, masses))
            indices = tuple(range(len(ratios)))
        else:
            pairs = sorted(((int(k), as_ratio(v)) for k, v in masses.items()), key=itemgetter(0))
            indices = tuple(map(itemgetter(0), pairs))
            ratios = list(map(itemgetter(1), pairs))
            if indices and indices[0] < 0:
                raise InvalidArgument("negative child index")
            if any(map(eq, indices, indices[1:])):
                raise InvalidArgument("duplicate child index")
        self.indices = indices
        # (q, runs, table): q is the lcm of the row's reduced denominators; runs[i] is q times the mass of the
        # first i entries, so entry i's cell is [runs[i]/q, runs[i + 1]/q). table is None unless the masses are
        # nonnegative and sum to exactly one; then it holds each child's entry from `_hits`, by child index: `_hits`
        # itself on a canonical row (sorted, distinct, nonnegative indices ending at n - 1), a dict on a sparse one.
        q = math.lcm(*[d for _, d in ratios])  # a list unpacks faster than a generator
        scaled = [n * (q // d) for n, d in ratios]
        if (g := math.gcd(q, *scaled)) > 1:  # an unreduced entry, such as "2/4": q / g is the reduced lcm
            q, scaled = q // g, [c // g for c in scaled]
        runs, hits, b = [0], [], 0
        for k, c in zip(indices, scaled):
            hits.append((k, b, c, q))
            runs.append(b := b + c)
        self._hits = hits = tuple(hits)  # by position: each entry (k, b, c, q): child k and its cell
        stochastic = b == q and min(scaled) >= 0  # a distribution has an entry, so min has one
        canonical = stochastic and indices[-1] == len(indices) - 1
        self._grid = q, runs, hits if canonical else dict(zip(indices, hits)) if stochastic else None

    support = property(attrgetter("indices"))

    def items(self) -> tuple[tuple[int, Fraction], ...]:
        """(child index, mass) by position."""
        return tuple((k, Fraction(c, q)) for k, _, c, q in self._hits)

    @property
    def masses(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, q) for _, _, c, q in self._hits)

    def _position(self, k: int) -> int:
        """Where child k sits in the row; an InvalidArgument when it is not there."""
        indices = self.indices
        i = k if 0 <= k < len(indices) and indices[k] == k else bisect_left(indices, k)
        if i == len(indices) or indices[i] != k:
            raise _not_a_child(k, indices)
        return i

    def mass(self, k: int) -> Fraction:
        _, _, c, q = self._hits[self._position(k)]
        return Fraction(c, q)

    def prefix_mass(self, k: int) -> Fraction:
        q, runs, _ = self._grid
        return Fraction(runs[bisect_left(self.indices, k)], q)

    def cell(self, k: int) -> tuple[int, int, int]:
        """Child k's cell [b/q, (b + c)/q) in [0, 1], as unreduced integers (b, c, q)."""
        return self._hits[self._position(k)][1:]

    def locate(self, un: int, ud: int) -> tuple[int, int, int, int]:
        """The entry (k, b, c, q) of the child k whose cell holds u = un/ud in [0, 1]; u = 1 is in the last positive
        cell."""
        q, runs, table = self._grid
        if table is None:  # only on a direct call: a family holds or serves no such row
            raise NotADistribution(f"the masses are not a probability distribution: {self.defect()}")
        x = un * q // ud
        return self._hits[bisect_right(runs, x) - 1 if x < q else bisect_left(runs, q) - 1]

    def _stride(self) -> int:
        """The levels m one power cell takes: the largest m with n^m <= 256 and m · bits(q) <= HEAD_BITS."""
        n, bits, m = len(self.indices), self._grid[0].bit_length(), 1
        while n ** (m + 1) <= 256 and (m + 1) * bits <= HEAD_BITS:
            m += 1
        return m

    def _power(self, m: int) -> tuple:
        """This canonical row's m-level `_power_table`: every string of m children, none past end = Q but u = 1."""
        return _power_table(self._hits, m, False)

    @property
    def total(self) -> Fraction:
        q, runs, _ = self._grid
        return Fraction(runs[-1], q)

    def defect(self) -> str | None:
        """Why the row is not a probability distribution; None when it is one."""
        if self._grid[2] is not None:
            return None
        for k, _, c, q in self._hits:
            if not 0 <= c <= q:
                return f"child {k} has mass {show(Fraction(c, q))} outside [0, 1]"
        return f"masses sum to {show(self.total)}, not 1"

    def positive_support(self) -> tuple[int, ...]:
        return tuple(k for k, _, c, _ in self._hits if c > 0)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FiniteDist) and self.indices == other.indices and self._grid[:2] == other._grid[:2]

    def __hash__(self) -> int:
        q, runs, _ = self._grid
        return hash((self.indices, q, *runs))

    def __repr__(self) -> str:
        body = ", ".join(f"{j}: {show(m)}" for j, m in self.items())
        return f"FiniteDist({{{body}}})"


def _power_table(entries: Sequence[tuple[int, int, int, int]], m: int, tails: bool) -> tuple:
    """(Q, runs, hits, end): m levels of a shared row over the entries (k, b, c, q) of its children 0..K-1, for descent
    to take in one bisection. hits lists, in cell order, every string of m children as (digits, b, c, q), its nested
    cell; with tails, each shorter nonempty string is followed by an entry for the rest of its cell (children past
    K - 1) that answers the string's own cell. Entry i covers [runs[i]/Q, runs[i + 1]/Q); past end = runs[-1] lie
    children >= K."""
    hits = []
    def nest(digits: tuple[int, ...], b: int, c: int, q: int) -> None:
        if len(digits) == m:
            return hits.append((digits, b, c, q))
        for k, a, w, r in entries:
            nest((*digits, k), b * r + c * a, c * w, q * r)
        if tails and digits:
            hits.append((digits, b, c, q))
    nest((), 0, 1, 1)
    Q = math.lcm(*[q for *_, q in hits])
    runs = [0, *[(b + c) * (Q // q) for _, b, c, q in hits]]
    return Q, runs, tuple(hits), runs[-1]


class _ClosedForm:
    """Countably many children, total mass one. A closed form is its own entry table: `row[k]` is child k's entry
    (k, b, c, q), as `locate` answers it, and its cell, mass and prefix mass come from it."""

    __slots__ = ()
    support = OMEGA
    total = ONE

    def cell(self, k: int) -> tuple[int, int, int]:
        """Child k's cell [b/q, (b + c)/q) as unreduced integers (b, c, q)."""
        return self[k][1:]

    def mass(self, k: int) -> Fraction:
        _, _, c, q = self[k]
        return Fraction(c, q)

    def prefix_mass(self, k: int) -> Fraction:
        _, b, _, q = self[k]
        return Fraction(b, q)


def _geometric_index(rn: int, rd: int, vn: int, vd: int, inv_log: float, kmax: int) -> tuple[int, int, int]:
    """For r = rn/rd in (0, 1) and v = vn/vd in (0, 1]: the largest k with
    r^k >= v, and r^k as (numerator, denominator).

    This is the geometric child whose cell holds the relative point 1 - v,
    since child k covers [1 - r^k, 1 - r^(k+1)). Inversion estimates
    k = log v / log r in floats (inv_log = 1/log r), capped at kmax; exact
    steps then move k down while r^k < v and up while r^(k+1) >= v. Any
    estimate gives the same answer, and a sound one costs two comparisons.
    A k past kmax raises OversizedValue before r^k is built.
    """
    if rn * vd < vn * rd:  # r < v: child 0, half of all points when r = 1/2
        return 0, 1, 1
    x = (vd - vn) / vd  # 1 - v: near v = 1, log(vn) - log(vd) cancels and log1p does not
    est = (math.log1p(-x) if x < 0.5 else math.log(vn) - math.log(vd)) * inv_log
    if not est < kmax:  # past the limit; or nan, for r within 10^-300 of 1, where (1 - v)/(1 - r) bounds k from below
        est = kmax if est == est else min(kmax, math.exp(min(700.0, math.log((vd - vn) * rd) - math.log(vd * (rd - rn)))))
    k = int(est)
    pn, pd = rn**k, rd**k
    while pn * vd < vn * pd:  # r^k < v: step down
        k, pn, pd = k - 1, pn // rn, pd // rd
    while (qn := pn * rn) * vd >= vn * (qd := pd * rd):  # r^(k+1) >= v: step up
        k, pn, pd = _power_index(k + 1, kmax), qn, qd
    return k, pn, pd


def _power_index(k: int, kmax: int) -> int:
    """k, when it is a child and r^k fits: 0 <= k <= kmax = MAX_POWER_BITS // bits(rd).

    A negative k raises InvalidArgument, one past kmax OversizedValue.
    """
    if k > kmax:
        raise OversizedValue(f"geometric children past {kmax} are refused: child k needs k · bits(denominator of r) <= {MAX_POWER_BITS:,}")
    if k < 0:
        raise _not_a_child(k, OMEGA)
    return k


_NO_HEAD = (1, (0,), ())  # a head of size 0: every point lies in the tail


class Geometric(_ClosedForm):
    """Closed form over countably many children: child k has mass (1-r)·r^k, for k within MAX_POWER_BITS.

    A family's shared row keeps a head table (`_build_head`) of its first max(1, HEAD_BITS // bits(rd))
    children's entries, which `locate` and `row[k]` hand back as a finite row does from its grid; past it,
    and on a fresh row, they compute.
    """

    __slots__ = ("ratio", "_rn", "_rd", "_inv_log", "_kmax", "_head")

    def __init__(self, ratio: FractionLike):
        r = as_fraction(ratio)
        if not 0 < r < 1:
            raise InvalidArgument("geometric ratio must lie strictly between 0 and 1")
        self.ratio = r
        self._rn, self._rd = rn, rd = r.numerator, r.denominator
        # log r: log1p near 1, where log(rn) - log(rd) rounds to 0; none within 10^-300 of 1
        log_r = math.log1p(-(rd - rn) / rd) if 2 * rn > rd else math.log(rn) - math.log(rd)
        self._inv_log = 1 / log_r if log_r < -1e-300 else math.nan
        self._kmax = MAX_POWER_BITS // rd.bit_length()
        self._head = _NO_HEAD

    def _build_head(self) -> None:
        """Tabulate children 0..K-1 as (Q, runs, entries): Q = rd^K, runs[k] = Q·(1 - r^k) = Q - rn^k·rd^(K-k)
        for k <= K, and entries[k] = `row[k]`. Child k's cell is then [runs[k]/Q, runs[k + 1]/Q)."""
        rn, rd = self._rn, self._rd
        q = rd ** max(1, HEAD_BITS // rd.bit_length())
        runs, entries, pn, pd = [0], [], 1, 1  # pn/pd = r^k
        while pd < q:
            entries.append((len(entries), (pd - pn) * rd, (rd - rn) * pn, pd * rd))
            pn, pd = pn * rn, pd * rd
            runs.append(q - pn * (q // pd))
        self._head = q, runs, tuple(entries)

    def _stride(self) -> int:
        """2 when the two-level `_power` table holds at least half the mass (r^K <= 1/2), else 1: one level per step."""
        k = min(16, HEAD_BITS // (2 * self._rd.bit_length()))  # at most 256 strings of two children, over rd^(2K)
        return 2 if k and 2 * self._rn**k <= self._rd**k else 1

    def _power(self, m: int) -> tuple:
        """The two-level `_power_table` over children 0..K-1 of `_stride`, with a tail entry after each first child;
        the entries are the head's, which a family builds when it adopts the row."""
        return _power_table(self._head[2][: min(16, HEAD_BITS // (2 * self._rd.bit_length()))], m, True)

    def __getitem__(self, k: int) -> tuple[int, int, int, int]:
        """Child k's entry (k, b, c, q), its cell [1 - r^k, 1 - r^(k+1)) over q = rd^(k+1), for r = rn/rd."""
        entries = self._head[2]
        if 0 <= k < len(entries):
            return entries[k]
        rn, rd = self._rn, self._rd
        pn, pd = rn ** _power_index(k, self._kmax), rd**k
        return k, (pd - pn) * rd, (rd - rn) * pn, pd * rd

    def locate(self, un: int, ud: int) -> tuple[int, int, int, int] | None:
        """The entry `row[k]` of the child k whose cell holds u = un/ud in [0, 1]; None at u = 1.

        In the head, k is one bisection over integer boundaries: runs[k] <= floor(u·Q) < runs[k + 1]
        exactly when u lies in [runs[k]/Q, runs[k + 1]/Q). Past it, a certified float step finds k.
        """
        if un == ud:
            return None
        q, runs, entries = self._head
        if entries and (x := un * q // ud) < runs[-1]:  # an empty head skips the division
            return entries[bisect_right(runs, x) - 1]
        rn, rd = self._rn, self._rd
        k, pn, pd = _geometric_index(rn, rd, ud - un, ud, self._inv_log, self._kmax)
        return k, (pd - pn) * rd, (rd - rn) * pn, pd * rd

    def positive_support(self):
        return OMEGA

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Geometric) and self.ratio == other.ratio

    def __hash__(self) -> int:
        return hash(("geometric", self.ratio))

    def __repr__(self) -> str:
        return f"Geometric({show(self.ratio)})"


class PointMass(_ClosedForm):
    """Closed form over countably many children: all mass on one child."""

    __slots__ = ("index",)

    def __init__(self, index: int):
        if index < 0:
            raise InvalidArgument("negative child index")
        self.index = index

    def __getitem__(self, k: int) -> tuple[int, int, int, int]:
        """Child k's entry: the cell [0, 1] for the index, a point at 0 or 1 for every other child."""
        if k < 0:
            raise _not_a_child(k, OMEGA)
        return k, int(k > self.index), int(k == self.index), 1

    def locate(self, un: int, ud: int) -> tuple[int, int, int, int] | None:
        """The index's entry, whose cell [0, 1] holds u = un/ud; None at u = 1."""
        return None if un == ud else (self.index, 0, 1, 1)

    def positive_support(self) -> tuple[int, ...]:
        return (self.index,)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PointMass) and self.index == other.index

    def __hash__(self) -> int:
        return hash(("pointmass", self.index))

    def __repr__(self) -> str:
        return f"PointMass({self.index})"


Dist = Union[FiniteDist, Geometric, PointMass]
