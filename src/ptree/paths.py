"""Node paths, the infinite-arity marker, and path order relations.

A node of a tree of sequences is identified by the tuple of child indices
leading to it from the root; the empty tuple is the root itself.
"""

from __future__ import annotations

import re
from enum import Enum

from .errors import MalformedPath

Path = tuple[int, ...]


class _Omega:
    """Marker for countably infinite arity."""

    _instance = None

    def __new__(cls) -> "_Omega":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA"


OMEGA = _Omega()


# ASCII digits without leading zeros, so each node has exactly one key
_CANONICAL_PATH = re.compile(r"(?:0|[1-9][0-9]*)(?:\.(?:0|[1-9][0-9]*))*")


def parse_path(text: str) -> Path:
    """Parse a canonical dot-separated index path; the empty string is the root.

    Only the form `format_path` writes is accepted: "00", " 0", "+0" and
    "1_0" raise MalformedPath, so two different keys never name one node.
    """
    if text == "":
        return ()
    if _CANONICAL_PATH.fullmatch(text) is None:
        raise MalformedPath(f"not a canonical dot-separated index path: {text!r}")
    return tuple(map(int, text.split(".")))


def format_path(path: Path) -> str:
    return ".".join(map(str, path))


def is_prefix(s: Path, t: Path) -> bool:
    """True when t extends s (including s == t)."""
    return len(s) <= len(t) and t[: len(s)] == s


def compatible(s: Path, t: Path) -> bool:
    return is_prefix(s, t) or is_prefix(t, s)


class OrderRelation(Enum):
    EQUAL = "equal"
    PREFIX = "prefix"
    EXTENSION = "extension"
    LEX_LESS = "lex_less"
    LEX_GREATER = "lex_greater"


def order_relations(s: Path, t: Path) -> OrderRelation:
    """Compatibility or, for incompatible pairs, the lexicographic order.

    Incompatible paths differ at their first common position; the order of
    the entries there decides. Comparable paths are never lex-comparable.
    """
    for a, b in zip(s, t):
        if a != b:
            return OrderRelation.LEX_LESS if a < b else OrderRelation.LEX_GREATER
    if len(s) == len(t):
        return OrderRelation.EQUAL
    return OrderRelation.PREFIX if len(s) < len(t) else OrderRelation.EXTENSION


def lex_less(s: Path, t: Path) -> bool:
    """True when s is lexicographically below t (first-difference order)."""
    return order_relations(s, t) is OrderRelation.LEX_LESS
