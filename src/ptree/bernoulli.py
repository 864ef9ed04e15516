"""Dependent Bernoulli trials on the binary tree and the binomial CDF bound.

A sequence of n dependent trials is a probability tree on the complete
binary tree of height n, child 0 meaning success. When every conditional
success probability is at least p, the number of successes dominates a
Binomial(n, p) count: its CDF is bounded by the binomial CDF at every
threshold. The check here is exact rational arithmetic throughout.

A trial tree stores its success probabilities as two flat tuples of
numerators and denominators, not necessarily reduced, in heap order: the
node t at depth d sits at index 2^d - 1 + (t read as binary), so each level
is a contiguous run in lexicographic order and the children of index i sit
at 2i + 1 and 2i + 2.
A Fraction is built only where a caller reads a probability. The pmf and
the dominance bound are computed over integers: every probability becomes
a numerator over the lcm D of the denominators, leaf masses are integers
over D^n, and a Fraction is built once per pmf entry. Those integers grow
with D, which grows with every distinct prime power in the tree; when they
would exceed _MAX_MASS_BITS the pmf falls back to a Fraction walk over the
leaves, whose masses grow only with the denominators along one path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import accumulate
from typing import Callable, Iterator, Mapping, Union

from .dists import FiniteDist, FractionLike, ONE, ZERO, as_fraction, show
from .errors import HypothesisViolated, NotADistribution, NotALeaf, NotATrialTree, TooDeep, UnknownNode
from .measures import EdgeFamily
from .paths import Path
from .trees import complete_binary_tree

# Cost doubles per trial: `ptree bound --random 1 --n 21 --p 1/3 --min-p 1/3`
# takes 2.0 s and 325 MiB on a 2-vCPU x86-64 host, n = 22 3.9 s and 621 MiB
# (in-process, time.perf_counter, ru_maxrss). Time would allow n = 22; memory
# sets the cap.
MAX_TRIALS = 21

# The integer kernel keeps 2^(n-1) masses of up to n * bits(D) bits at its
# last level. On random trees with n = 6..14 (same host) it ran 5-13x faster
# than the leaf walk up to 2048 bits, 0.6-2.7x at 3500-5100 bits and slower
# from 9400 bits on; 2048 bits keep the n = 21 level within 256 MiB of digits.
_MAX_MASS_BITS = 2048

_UNREAD = object()  # `from_success_probs`' previous value before the first node; None is a value


def _check_trials(trials: int) -> None:
    if trials < 0:
        raise NotATrialTree(f"the number of trials must be nonnegative, got {trials}")
    if trials > MAX_TRIALS:
        raise TooDeep(f"{trials} trials would enumerate 2^{trials} leaves; the cap is {MAX_TRIALS}")


def _preorder(trials: int) -> Iterator[tuple[Path, int]]:
    """(node, heap index) of every interior node, in preorder with child 1 first.

    Probability getters and `random_trial_tree`'s draws go node by node in
    this order, so seeded trees stay pinned to it.
    """
    stack: list[tuple[Path, int]] = [((), 0)] if trials else []
    while stack:
        t, i = stack.pop()
        yield t, i
        if len(t) + 1 < trials:
            stack.append((t + (0,), 2 * i + 1))
            stack.append((t + (1,), 2 * i + 2))


@cache  # at most MAX_TRIALS + 1 entries
def _preorder_indices(trials: int) -> tuple[int, ...]:
    return tuple(i for _t, i in _preorder(trials))


def _heap_index(t: Path) -> int:
    i = 0
    for bit in t:
        i = 2 * i + 1 + bit
    return i


class DependentTrialTree:
    """n dependent Bernoulli trials; child 0 of each node is a success."""

    __slots__ = ("trials", "_nums", "_dens", "_family")

    def __init__(self, trials: int, family: EdgeFamily):
        """Adopt an explicit family on the complete binary tree of height `trials`."""
        _check_trials(trials)
        table = family.dist_table() if family.is_explicit else None
        if (
            table is None
            or len(table) != (1 << trials) - 1
            or any(len(t) >= trials or d.indices != (0, 1) for t, d in table.items())
        ):
            raise NotATrialTree(f"the family must live on the complete binary tree of height {trials}")
        nums, dens = [0] * len(table), [1] * len(table)
        for t, d in table.items():  # the family's constructor refused any row that is not a distribution
            p, i = d.mass(0), _heap_index(t)
            nums[i], dens[i] = p.numerator, p.denominator
        self.trials = trials
        self._nums, self._dens = tuple(nums), tuple(dens)
        self._family: EdgeFamily | None = family

    @classmethod
    def _from_ints(cls, trials: int, nums: list[int], dens: list[int]) -> "DependentTrialTree":
        """Adopt numerators and denominators, reduced or not, of probabilities in [0, 1], in heap order."""
        tree = cls.__new__(cls)
        tree.trials = trials
        tree._nums, tree._dens = tuple(nums), tuple(dens)
        tree._family = None
        return tree

    @classmethod
    def from_success_probs(
        cls,
        trials: int,
        probs: Union[Mapping[Path, FractionLike], Callable[[Path], FractionLike]],
    ) -> "DependentTrialTree":
        """Build from per-node success probabilities (for the 0-child)."""
        _check_trials(trials)
        getter = probs.__getitem__ if isinstance(probs, Mapping) else probs
        nums, dens = [0] * ((1 << trials) - 1), [1] * ((1 << trials) - 1)
        last = _UNREAD
        for t, i in _preorder(trials):
            if (value := getter(t)) is not last:  # a value shared by consecutive nodes is converted once
                last, p = value, as_fraction(value)
                a, d = p.as_integer_ratio()
                if not 0 <= a <= d:
                    raise NotATrialTree(f"success probability at {t} is {show(p)}, outside [0, 1]")
            nums[i], dens[i] = a, d
        return cls._from_ints(trials, nums, dens)

    @property
    def family(self) -> EdgeFamily:
        """The trial tree as an explicit edge family, built on first use."""
        if self._family is None:
            probs = list(map(Fraction, self._nums, self._dens))
            self._family = EdgeFamily(
                complete_binary_tree(self.trials),
                {t: FiniteDist([probs[i], 1 - probs[i]]) for t, i in _preorder(self.trials)},
            )
        return self._family

    def success_prob(self, t: Path) -> Fraction:
        t = tuple(t)
        if len(t) >= self.trials or any(bit not in (0, 1) for bit in t):
            raise UnknownNode(f"{t} is not an interior node of the {self.trials}-trial tree")
        i = _heap_index(t)
        return Fraction(self._nums[i], self._dens[i])

    def interior_nodes(self) -> Iterator[Path]:
        return (t for t, _i in _preorder(self.trials))


def _over_common_denominator(trial_tree: DependentTrialTree) -> tuple[int, list[int]] | None:
    """The lcm D of the denominators and each probability's numerator over D,
    or None when the integer kernel's masses would exceed _MAX_MASS_BITS."""
    n, dens = trial_tree.trials, trial_tree._dens
    distinct = set(dens)
    common = 1
    for d in distinct:
        common = math.lcm(common, d)
        if n * common.bit_length() > _MAX_MASS_BITS:
            return None
    factor = {d: common // d for d in distinct}
    return common, [a * factor[d] for a, d in zip(trial_tree._nums, dens)]


def _pmf_numerators(n: int, common: int, scaled: list[int]) -> list[int]:
    """Success-count masses over common^n, from integer leaf masses.

    Level d holds the masses of its 2^d nodes over common^d in lexicographic
    order, so a node's failures are the 1-bits of its position in the level.
    The leaves are never stored: each node of level n - 1 adds its two
    children's masses straight to their success counts.
    """
    if n == 0:
        return [1]
    masses = [1]
    for d in range(n - 1):
        row = scaled[(1 << d) - 1 : (1 << (d + 1)) - 1]
        masses = [x for m, a in zip(masses, row) for x in (m * a, m * (common - a))]
    sums = [0] * (n + 1)
    for j, (m, a) in enumerate(zip(masses, scaled[(1 << (n - 1)) - 1 :])):
        successes = n - j.bit_count()  # of the success child
        x = m * a
        sums[successes] += x
        sums[successes - 1] += m * common - x
    return sums


def _leaf_walk_pmf(n: int, probs: list[Fraction]) -> tuple[Fraction, ...]:
    """Success-count pmf by a depth-first Fraction walk over every leaf history."""
    pmf = [ZERO] * (n + 1)
    first_leaf = (1 << n) - 1
    stack: list[tuple[int, Fraction, int]] = [(0, ONE, 0)]
    while stack:
        i, mass, successes = stack.pop()
        if i >= first_leaf:
            pmf[successes] += mass
            continue
        p = probs[i]
        stack.append((2 * i + 1, mass * p, successes + 1))
        stack.append((2 * i + 2, mass * (1 - p), successes))
    return tuple(pmf)


def _pmf(trial_tree: DependentTrialTree, scaled: tuple[int, list[int]] | None) -> tuple[Fraction, ...]:
    n = trial_tree.trials
    if scaled is None:
        return _leaf_walk_pmf(n, list(map(Fraction, trial_tree._nums, trial_tree._dens)))
    common, nums = scaled
    den = common**n
    return tuple(Fraction(s, den) for s in _pmf_numerators(n, common, nums))


def success_pmf(trial_tree: DependentTrialTree) -> tuple[Fraction, ...]:
    """Exact distribution of the success count over all 2^n leaf histories."""
    return _pmf(trial_tree, _over_common_denominator(trial_tree))


def _binomial_numerators(n: int, p: Fraction) -> tuple[list[int], int]:
    """The Binomial(n, p) pmf as integer numerators over one denominator."""
    if n < 0:
        raise NotATrialTree(f"the number of trials must be nonnegative, got {n}")
    if not 0 <= p <= 1:
        raise NotADistribution(f"the success probability {show(p)} does not lie in [0, 1]")
    a, d = p.numerator, p.denominator
    return [math.comb(n, k) * a**k * (d - a) ** (n - k) for k in range(n + 1)], d**n


def binomial_pmf(n: int, p: FractionLike) -> tuple[Fraction, ...]:
    terms, den = _binomial_numerators(n, as_fraction(p))
    return tuple(Fraction(t, den) for t in terms)


def binomial_cdf(n: int, p: FractionLike, z: int) -> Fraction:
    """Pr[B(n, p) <= z], exact; zero below the range and one above it."""
    terms, den = _binomial_numerators(n, as_fraction(p))
    return Fraction(sum(terms[: max(z + 1, 0)]), den)


@dataclass(frozen=True)
class DominanceRow:
    z: int
    cdf_successes: Fraction
    cdf_binomial: Fraction

    @property
    def margin(self) -> Fraction:
        return self.cdf_binomial - self.cdf_successes

    @property
    def holds(self) -> bool:
        return self.cdf_successes <= self.cdf_binomial


@dataclass(frozen=True)
class DominanceReport:
    holds: bool
    rows: tuple[DominanceRow, ...]
    violated_z: int | None


def dominance_check(trial_tree: DependentTrialTree, p: FractionLike) -> DominanceReport:
    """Compare the success-count CDF against Binomial(n, p) at every threshold.

    The bound presupposes that p is a lower bound for every conditional
    success probability; that hypothesis is verified first and its failure
    is an error, not a report row. The error names the lexicographically
    first node below p.
    """
    p = as_fraction(p)
    n = trial_tree.trials
    scaled = _over_common_denominator(trial_tree)
    # success probability a/d < p  <=>  a * p.denominator < p.numerator * d
    if scaled is None:
        below = any(a * p.denominator < p.numerator * d for a, d in zip(trial_tree._nums, trial_tree._dens))
    else:
        common, nums = scaled
        below = bool(nums) and min(nums) * p.denominator < p.numerator * common
    if below:
        nums, dens = trial_tree._nums, trial_tree._dens
        t = min(t for t, i in _preorder(n) if nums[i] * p.denominator < p.numerator * dens[i])
        raise HypothesisViolated(
            t, f"success probability {show(trial_tree.success_prob(t))} at {t} is below {show(p)}"
        )
    binomial, binomial_den = _binomial_numerators(n, p)
    rows = []
    cdf_binomial = 0
    violated = None
    cdf_successes = accumulate(_pmf(trial_tree, scaled))
    for z, (cdf, b) in enumerate(zip(cdf_successes, binomial)):
        cdf_binomial += b
        row = DominanceRow(z, cdf, Fraction(cdf_binomial, binomial_den))
        rows.append(row)
        if violated is None and not row.holds:
            violated = z
    return DominanceReport(violated is None, tuple(rows), violated)


def cell_volume(trial_tree: DependentTrialTree, leaf: Path) -> Fraction:
    """Volume of the leaf's cube cell: success edges contribute the success
    probability, failure edges the complement. It equals the leaf's mass."""
    leaf = tuple(leaf)
    n = trial_tree.trials
    if len(leaf) != n or any(bit not in (0, 1) for bit in leaf):
        raise NotALeaf(f"{leaf} is not a depth-{n} leaf")
    num, den, i = 1, 1, 0
    for bit in leaf:  # down the heap: i is the heap index of the node above this edge
        a, d = trial_tree._nums[i], trial_tree._dens[i]
        num, den, i = num * (d - a if bit else a), den * d, 2 * i + 1 + bit
    return Fraction(num, den)


def random_trial_tree(
    trials: int,
    seed_or_rng: Union[int, random.Random],
    min_p: FractionLike = 0,
    denominator_bound: int = 32,
) -> DependentTrialTree:
    """A random trial tree with exact rational success probabilities >= min_p.

    Each node, in preorder with child 1 first, draws a denominator den in
    [1, bound] and then k in [0, den]; its probability is
    min_p + (1 - min_p) * k / den. Both draws are `rng.getrandbits` calls
    in the rejection steps of `Random.randint`, so draws and final rng
    state equal those of two `randint` calls per node, except for a
    `Random` subclass that overrides `random()` but not `getrandbits()`.
    """
    _check_trials(trials)
    lo = as_fraction(min_p)
    if not (0 <= lo <= 1 and isinstance(denominator_bound, int) and denominator_bound >= 1):
        raise NotATrialTree(
            f"need 0 <= min_p <= 1 and an int denominator_bound >= 1, got {show(lo)} and {denominator_bound!r}"
        )
    rng = seed_or_rng if isinstance(seed_or_rng, random.Random) else random.Random(seed_or_rng)
    getrandbits, bound_bits = rng.getrandbits, denominator_bound.bit_length()
    lo_num, lo_den = lo.numerator, lo.denominator
    lo_gap = lo_den - lo_num
    nums, dens = [0] * ((1 << trials) - 1), [1] * ((1 << trials) - 1)
    for i in _preorder_indices(trials):
        den = getrandbits(bound_bits)  # den = randint(1, denominator_bound)
        while den >= denominator_bound:
            den = getrandbits(bound_bits)
        den += 1
        k_bits = (den + 1).bit_length()
        k = getrandbits(k_bits)  # k = randint(0, den)
        while k > den:
            k = getrandbits(k_bits)
        nums[i], dens[i] = lo_num * den + lo_gap * k, lo_den * den  # unreduced
    return DependentTrialTree._from_ints(trials, nums, dens)


def flip_success_convention(trial_tree: DependentTrialTree) -> DependentTrialTree:
    """Reinterpret child 1 as success by mirroring every node of the tree.

    Mirroring reverses each level, and the new success probability is the
    old failure probability, (d - a)/d for a/d, over the same denominator.
    """
    n, nums, dens = trial_tree.trials, trial_tree._nums, trial_tree._dens
    mirror = [i for d in range(n) for i in range((2 << d) - 2, (1 << d) - 2, -1)]
    return DependentTrialTree._from_ints(n, [dens[i] - nums[i] for i in mirror], [dens[i] for i in mirror])
