"""The tree-spec document format: JSON in, edge families out, and back.

Explicit documents carry a node table keyed by dot-separated index paths
("" is the root, "0.1" is the second child of the first child), each row
giving the node's arity and, for interior nodes, the list of successor
probabilities as exact fraction strings. Generator documents name one of
the built-in families instead. Probabilities are strings throughout so no
decimal rounding can sneak in at the boundary.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import repeat
from typing import Any

from .dists import SHOWN_BITS, FiniteDist, as_fraction
from .errors import InvalidArgument, MalformedTree, OversizedValue, SpecSyntaxError, SpecValidationError, UnknownGenerator
from .measures import EdgeFamily, dirac, geometric_omega, uniform_binary
from .paths import Path, format_path, parse_path
from .trees import DEFAULT_DEPTH_BUDGET, ExplicitTree

FORMAT_VERSION = 1

_GENERATORS = ("uniform_binary", "geometric_omega", "geometric_omega(r)", "dirac(k)")
_DIRAC_RE = re.compile(r"^dirac\((\d+)\)$")
_GEOMETRIC_RE = re.compile(r"geometric_omega\((.*)\)")


def _parse_fraction(text: Any, path: str) -> Fraction:
    """An exact value written as a fraction string; JSON numbers would be floats."""
    if not isinstance(text, str):
        raise SpecValidationError(path, f"expected a fraction string, got {text!r}")
    try:
        return as_fraction(text)
    except OversizedValue as exc:
        raise SpecValidationError(path, str(exc)) from None
    except (ValueError, ZeroDivisionError):
        raise SpecValidationError(path, f"not an exact fraction: {text!r}") from None


def _row(key: str, row: Any) -> tuple[tuple[int, ...], FiniteDist | None]:
    """The checked row at key: its children (0..arity-1, the distribution's indices) and its distribution, which is
    None at a maximal node."""
    if not isinstance(row, dict):
        raise SpecValidationError(key, "node rows must be objects")
    arity = row.get("arity")
    if type(arity) is not int or arity < 0:
        raise SpecValidationError(key, f"arity must be a nonnegative integer, got {arity!r}")
    probs = row.get("probs", [])
    if arity == 0:
        if probs:
            raise SpecValidationError(key, "a maximal node cannot carry probabilities")
        return (), None
    if not isinstance(probs, list) or len(probs) != arity:
        raise SpecValidationError(key, f"expected {arity} probabilities, got {len(probs) if isinstance(probs, list) else probs!r}")
    try:
        dist = FiniteDist(probs) if all(map(isinstance, probs, repeat(str))) else None
    except (ValueError, ZeroDivisionError):
        dist = None
    if dist is None:  # the entry-by-entry parse names the entry at fault
        dist = FiniteDist([_parse_fraction(p, key) for p in probs])
    if (defect := dist.defect()) is not None:
        raise SpecValidationError(key, defect)
    return dist.indices, dist


def _build_generator(name: str, depth_budget: int) -> EdgeFamily:
    if name == "uniform_binary":
        return uniform_binary(depth_budget)
    if name == "geometric_omega":
        return geometric_omega(depth_budget)
    match = _DIRAC_RE.match(name)
    if match:
        return dirac(int(match.group(1)), depth_budget)
    match = _GEOMETRIC_RE.fullmatch(name)
    if match:
        ratio, bad = _parse_fraction(match.group(1), ""), f"bad geometric ratio {match.group(1)!r}"
        if max(ratio.numerator.bit_length(), ratio.denominator.bit_length()) > SHOWN_BITS:  # too long for its name
            raise SpecValidationError("", f"{bad}: a family name spells out at most {SHOWN_BITS} bits")
        try:
            return geometric_omega(depth_budget, ratio)
        except InvalidArgument as exc:  # a ratio outside (0, 1)
            raise SpecValidationError("", f"{bad}: {exc}") from None
    raise UnknownGenerator(f"unknown generator {name!r}; available: {', '.join(_GENERATORS)}")


def _load_json(text: str) -> Any:
    """The JSON document in text; bad syntax, or nesting too deep to parse, raises SpecSyntaxError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SpecSyntaxError(exc.msg, line=exc.lineno) from None
    except RecursionError:
        raise SpecSyntaxError("arrays or objects nested too deeply") from None


def parse_spec(text: str, default_budget: int | None = None) -> EdgeFamily:
    """Parse a tree-spec document into a validated edge family."""
    doc = _load_json(text)
    if not isinstance(doc, dict):
        raise SpecValidationError("", "the document must be a JSON object")
    version = doc.get("version")
    if version != FORMAT_VERSION or version is True:  # True == 1 in Python
        raise SpecValidationError("", f"unsupported version {version!r}")
    rep = doc.get("representation")
    budget = doc.get("depth_budget")
    if budget is None:
        budget = DEFAULT_DEPTH_BUDGET if default_budget is None else default_budget
    elif type(budget) is not int or budget < 0:
        raise SpecValidationError("", f"depth_budget must be a nonnegative integer, got {budget!r}")

    if rep == "generator":
        name = doc.get("generator")
        if not isinstance(name, str):
            raise SpecValidationError("", "generator documents need a 'generator' name")
        return _build_generator(name, budget)
    if rep != "explicit":
        raise SpecValidationError("", f"representation must be 'explicit' or 'generator', got {rep!r}")

    nodes = doc.get("nodes")
    if not isinstance(nodes, dict):
        raise SpecValidationError("", "explicit documents need a 'nodes' table")
    # One walk from the root key "": a child's key is its parent's plus ".k", so no key is parsed, and each row is
    # checked as the walk reaches it. A key it never reaches, a declared child with no key, or a node past the budget
    # sends the table, in document order, to the structural check, which names the fault.
    declared = doc.get("depth_budget")  # an explicit tree keeps only a budget its document states
    children: dict[Path, tuple[int, ...]] = {}
    dists: dict[Path, FiniteDist] = {}
    stack, height = [("", ())] if "" in nodes else [], 0
    while stack:
        key, t = stack.pop()
        children[t], dist = _row(key, nodes[key])
        if dist is not None:
            dists[t] = dist
        height = max(height, len(t))
        prefix = f"{key}." if t else ""
        for k in reversed(children[t]):  # popped in preorder, the order of a serialized table
            if (child := f"{prefix}{k}") in nodes:
                stack.append((child, t + (k,)))
    # every key was walked, and every declared child has one: each walked node but the root is a declared child
    if not len(nodes) == len(children) == sum(map(len, children.values())) + 1 or (declared is not None and height > declared):
        walked, children, height = children, {}, None
        for key, row in nodes.items():
            try:
                t = parse_path(key)
            except ValueError as exc:
                raise SpecValidationError(key, str(exc)) from None
            children[t] = walked[t] if t in walked else _row(key, row)[0]
    try:
        tree = ExplicitTree._canonical(children, declared, height)
    except MalformedTree as exc:
        # keys are canonical, so format_path gives back the key of a node
        raise SpecValidationError(format_path(exc.node), exc.reason) from None
    return EdgeFamily(tree, dists)


def serialize_spec(family: EdgeFamily) -> str:
    """Serialize an edge family; explicit tables round-trip exactly."""
    if not family.is_explicit:
        if family.name is None:
            raise InvalidArgument("only named generated families can be serialized")
        doc = {
            "version": FORMAT_VERSION,
            "representation": "generator",
            "generator": family.name,
            "depth_budget": family.tree.depth_budget,
        }
        return json.dumps(doc, indent=2) + "\n"

    nodes: dict[str, dict] = {}
    rows = family.dist_table()
    for t in sorted(family.tree.nodes()):
        idx = family.tree._child_indices(t)
        if idx != tuple(range(len(idx))):
            raise InvalidArgument(f"node {t} has a sparse child set; the format stores canonical trees")
        row: dict[str, Any] = {"arity": len(idx)}
        if idx:
            row["probs"] = [str(p) for p in rows[t].masses]
        nodes[format_path(t)] = row
    doc = {"version": FORMAT_VERSION, "representation": "explicit", "nodes": nodes}
    if family.tree.depth_budget is not None:
        doc["depth_budget"] = family.tree.depth_budget
    return json.dumps(doc, indent=2) + "\n"
