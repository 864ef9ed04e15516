"""Command-line interface.

Each subcommand maps one-to-one onto a library operation. All numeric
output is exact-fraction formatted; only the sampler's optional frequency
report prints floats, and says so.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from fractions import Fraction
from typing import Callable, TypeVar

from .bernoulli import (
    DependentTrialTree,
    dominance_check,
    flip_success_convention,
    random_trial_tree,
)
from .errors import PTreeError, SpecValidationError
from .expectation import FrontVariable, expect, relative_expect
from .intervals import (
    cylinder_frequencies,
    node_interval,
    sample_branches,
)
from .measures import EdgeFamily, front_mass, induced_measure, node_mass
from .paths import format_path, parse_path
from .specio import _load_json, _parse_fraction, parse_spec
from .trees import DEFAULT_DEPTH_BUDGET, Front, classify, enumerate_front

ENV_BUDGET = "PTREE_DEPTH_BUDGET"

_T = TypeVar("_T")


class _UsageError(Exception):
    """Flag combinations argparse cannot express; exits with code 2."""


def _default_budget() -> int:
    raw = os.environ.get(ENV_BUDGET)
    if raw is None:
        return DEFAULT_DEPTH_BUDGET
    try:
        value = int(raw)
    except ValueError:
        raise PTreeError(f"{ENV_BUDGET} must be an integer, got {raw!r}") from None
    if value < 0:
        raise PTreeError(f"{ENV_BUDGET} must be nonnegative, got {value}")
    return value


def _read(path: str, parse: Callable[[str], _T]) -> _T:
    """`parse` on the text of a file; a file that cannot be read or decoded, and every error `parse` raises about its
    contents, raises a PTreeError naming the file."""
    try:
        with open(path, "rb") as handle:
            text = handle.read().decode("utf-8")  # decoded whole, so a JSON error's line is the file's
    except OSError as exc:
        raise PTreeError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise PTreeError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    try:
        return parse(text)
    except (PTreeError, ValueError) as exc:
        raise PTreeError(f"{path}: {exc}") from None


def _load_family(path: str, adopt: Callable[[EdgeFamily], _T] = lambda family: family) -> _T:
    """`adopt` on the family a spec file holds, read by `_read`."""
    budget = _default_budget()
    return _read(path, lambda text: adopt(parse_spec(text, budget)))


def _exact(x: Fraction | int) -> str:
    """str(x) at any size, for every exact answer the CLI prints: str() refuses ints past 4,300 digits by default."""
    if x.denominator != 1:
        return f"{_exact(x.numerator)}/{_exact(x.denominator)}"
    if (bits := abs(int(x)).bit_length()) <= 2_000:  # at most 603 digits: under 640, the lowest limit Python allows
        return str(x)
    high, low = divmod(abs(int(x)), 10 ** (k := bits * 3 // 20))  # k: about half the digits
    return "-" * (x < 0) + _exact(high) + _exact(low).zfill(k)


def _fraction(text: str) -> Fraction:
    try:
        return _parse_fraction(text, "")
    except SpecValidationError as exc:
        raise argparse.ArgumentTypeError(exc.reason) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built on first use and shared by every `main` call: parsing leaves no state in it."""
    parser = argparse.ArgumentParser(
        prog="ptree",
        description="Exact-arithmetic probability trees: masses, fronts, embeddings, bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="induced mass of a node, as an exact fraction")
    p.add_argument("--tree", required=True, help="tree-spec document")
    p.add_argument("--node", required=True, help="dot-separated node path ('' is the root)")

    p = sub.add_parser("front", help="the level-n front, optionally with its total mass")
    p.add_argument("--tree", required=True)
    p.add_argument("--depth", "--front-level", dest="depth", type=int, required=True)
    p.add_argument("--check-mass", action="store_true")

    p = sub.add_parser("expect", help="expectation of a front variable, optionally relative to a node")
    p.add_argument("--tree", required=True)
    p.add_argument("--depth", "--front-level", dest="depth", type=int, required=True)
    p.add_argument("--values", required=True, help="JSON file mapping front paths to fraction strings")
    p.add_argument("--node", default=None, help="condition on this node")

    p = sub.add_parser("bound", help="dominance of the success count by a binomial CDF")
    p.add_argument("--p", type=_fraction, required=True, help="lower bound for success probabilities")
    p.add_argument("--n", type=int, default=None, help="number of trials (required with --random)")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--tree", default=None, help="tree-spec document for the trial tree")
    source.add_argument("--random", type=int, default=None, metavar="SEED", help="generate a random trial tree")
    p.add_argument("--min-p", type=_fraction, default=None, help="lower bound used by --random")
    p.add_argument("--flip-success", action="store_true", help="treat child 1 as success at ingestion")

    p = sub.add_parser("embed", help="unit-interval cell of a node")
    p.add_argument("--tree", required=True)
    p.add_argument("--node", required=True)

    p = sub.add_parser("sample", help="draw branches by inverse-transform sampling")
    p.add_argument("--tree", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--freq", action="store_true", help="also print empirical cylinder frequencies (floats)")

    p = sub.add_parser("encode", help="binary encoding of the tree's nodes")
    p.add_argument("--tree", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--verify", action="store_true", help="check the preservation laws")

    p = sub.add_parser("classify", help="well-pruned / finitely-branching / perfect flags")
    p.add_argument("--tree", required=True)

    return parser


def _cmd_measure(args) -> int:
    family = _load_family(args.tree)
    print(_exact(node_mass(family, parse_path(args.node))))
    return 0


def _cmd_front(args) -> int:
    family = _load_family(args.tree)
    front = enumerate_front(family.tree, args.depth)
    for t in sorted(front.nodes):
        print(format_path(t) if t else "<root>")
    if args.check_mass:
        measure = induced_measure(family, args.depth)
        print(f"mass = {_exact(front_mass(measure, front))}")
    return 0


def _cmd_expect(args) -> int:
    family = _load_family(args.tree)
    front = enumerate_front(family.tree, args.depth)
    variable = _read(args.values, functools.partial(_variable, front))
    if args.node is None:
        measure = induced_measure(family, args.depth)
        print(_exact(expect(measure, variable)))
    else:
        print(_exact(relative_expect(family, variable, parse_path(args.node))))
    return 0


def _variable(front: Front, text: str) -> FrontVariable:
    raw = _load_json(text)
    if not isinstance(raw, dict):
        raise PTreeError("expected a JSON object mapping front paths to values")
    return FrontVariable(front, {parse_path(k): _parse_fraction(v, k) for k, v in raw.items()})


def _trial_tree(n: int | None, family: EdgeFamily) -> DependentTrialTree:
    if not family.is_explicit:
        raise PTreeError("the trial tree must be an explicit family")
    return DependentTrialTree(family.tree.height if n is None else n, family)


def _cmd_bound(args) -> int:
    if args.tree is not None:
        if args.min_p is not None:
            raise _UsageError("bound --min-p needs --random")
        trial_tree = _load_family(args.tree, functools.partial(_trial_tree, args.n))
    else:
        if args.n is None:
            raise _UsageError("bound --random needs --n")
        min_p = args.min_p if args.min_p is not None else args.p
        trial_tree = random_trial_tree(args.n, args.random, min_p)
    if args.flip_success:
        trial_tree = flip_success_convention(trial_tree)
    report = dominance_check(trial_tree, args.p)
    print(f"{'z':>4}  {'CDF(successes)':>20}  {'CDF(binomial)':>20}  {'margin':>16}")
    for row in report.rows:
        print(f"{row.z:>4}  {_exact(row.cdf_successes):>20}  {_exact(row.cdf_binomial):>20}  {_exact(row.margin):>16}")
    print(f"dominance holds: {report.holds}")
    return 0


def _cmd_embed(args) -> int:
    family = _load_family(args.tree)
    iv = node_interval(family, parse_path(args.node))
    print(f"[{_exact(iv.lower)}, {_exact(iv.upper)}]")
    return 0


def _cmd_sample(args) -> int:
    family = _load_family(args.tree)
    samples = sample_branches(family, args.seed, args.count, args.depth)
    for t in samples:
        print(format_path(t) if t else "<root>")
    if args.freq:
        print("empirical cylinder frequencies (floats):")
        for t, f in cylinder_frequencies(samples, args.depth).items():
            print(f"  {format_path(t) if t else '<root>'}: {f:.6f}")
    return 0


def _cmd_encode(args) -> int:
    family = _load_family(args.tree)
    from .encoding import binary_encode

    enc = binary_encode(family.tree, args.depth)
    print("\n".join(f"{format_path(t) or '<root>'} -> {format_path(enc.h[t]) or '<root>'}" for t in sorted(enc.h)))
    if args.verify:
        report = enc.verify(family)
        print(f"verification: {'ok' if report.ok else 'FAILED'}")
        for failure in report.failures:
            print(f"  {failure}")
        if not report.ok:
            return 1
    return 0


def _cmd_classify(args) -> int:
    family = _load_family(args.tree)
    report = classify(family.tree)
    scope = "exact" if report.exact else f"up to depth {report.height_or_budget}"
    print(f"well_pruned: {report.well_pruned} ({scope})")
    print(f"finitely_branching: {report.finitely_branching} ({scope})")
    print(f"perfect: {report.perfect} ({scope})")
    label = "height" if family.tree.is_explicit else "depth budget"
    print(f"{label}: {report.height_or_budget}")
    return 0


_COMMANDS = {
    "measure": _cmd_measure,
    "front": _cmd_front,
    "expect": _cmd_expect,
    "bound": _cmd_bound,
    "embed": _cmd_embed,
    "sample": _cmd_sample,
    "encode": _cmd_encode,
    "classify": _cmd_classify,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PTreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
