"""Node paths, the infinite-arity marker, and path order relations.

A node of a tree of sequences is identified by the tuple of child indices
leading to it from the root; the empty tuple is the root itself.
"""

from __future__ import annotations

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


def parse_path(text: str) -> Path:
    """Parse a dot-separated index path; the empty string is the root."""
    if text == "":
        return ()
    parts = text.split(".")
    try:
        indices = tuple(int(p) for p in parts)
    except ValueError:
        raise MalformedPath(f"not a dot-separated index path: {text!r}") from None
    if any(i < 0 for i in indices):
        raise MalformedPath(f"negative child index in path: {text!r}")
    return indices


def format_path(path: Path) -> str:
    return ".".join(str(i) for i in path)


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
