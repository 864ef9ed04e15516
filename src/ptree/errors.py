"""Exception types shared across the package."""

from __future__ import annotations


class PTreeError(Exception):
    """Base class for every error raised by this library."""


class CyclicInput(PTreeError):
    """The parent relation of a labeled tree description contains a cycle."""


class MalformedTree(PTreeError, ValueError):
    """A child-index map that is not a tree: no root, a detached node, a missing or bad child."""

    def __init__(self, node: tuple, reason: str) -> None:
        super().__init__(f"node {node}: {reason}")
        self.node = node
        self.reason = reason


class MultipleRoots(PTreeError):
    """A labeled tree description has more than one parentless node."""


class InvalidAdjacency(PTreeError):
    """A labeled tree description is not a tree (e.g. a node with two parents)."""


class DepthBudgetExceeded(PTreeError):
    """An operation asked about nodes beyond the tree's depth budget."""


class InvalidArgument(PTreeError, ValueError):
    """An argument the call cannot take: a missing depth, masses that break the inductive law, levels out of order."""


class NegativeDepth(PTreeError, ValueError):
    """A depth or level argument is negative."""


class NegativeCount(PTreeError, ValueError):
    """A count argument, such as the number of draws, is negative."""


class InfiniteLevel(PTreeError):
    """An operation would have to enumerate an infinite set of nodes."""


class MalformedPath(PTreeError, ValueError):
    """Text that is not a canonical dot-separated path of nonnegative child indices."""


class UnknownNode(PTreeError):
    """A path does not denote a node of the tree at hand."""


class NotAFront(PTreeError):
    """A node set is not a front: comparable members, or uncovered branches."""


class NodeNotBelowFront(PTreeError):
    """The node has no extension inside the given front."""


class PreconditionFrontMismatch(PTreeError):
    """A maximal node shorter than the front level sits above the conditioning node."""


class MalformedPair(PTreeError):
    """A positive-measure/filler pair violates its structural invariants."""


class MalformedClopen(PTreeError):
    """A clopen selection picks nodes outside the stated front."""


class NotASubtree(PTreeError):
    """A node set is not a subtree of the host tree with compatible leaves."""


class InexactValue(PTreeError, TypeError):
    """A float where an exact value is needed: it would enter as its binary value."""


class OversizedValue(PTreeError, ValueError):
    """A fraction string too long, or with too large a decimal exponent, to read exactly."""


class NotADistribution(PTreeError, ValueError):
    """Masses that are not a probability distribution: one is negative, or they do not sum to one."""


class QPointError(PTreeError):
    """The point is a shared cell endpoint; the descent map is undefined there."""


class RequiresExplicitFiniteTree(PTreeError):
    """The operation is only meaningful for explicit finite trees."""


class EncodingMismatch(PTreeError):
    """A binary encoding was built from a different tree than the one supplied."""


class TooDeep(PTreeError):
    """Trial count exceeds the leaf-enumeration cap."""


class NotATrialTree(PTreeError, ValueError):
    """Not a trial tree: a family of the wrong shape, a probability outside [0, 1], or a bad count or draw bound."""


class NotALeaf(PTreeError):
    """The path does not denote a leaf of the trial tree."""


class HypothesisViolated(PTreeError):
    """Some per-trial success probability is below the claimed lower bound."""

    def __init__(self, node: tuple, message: str) -> None:
        super().__init__(message)
        self.node = node


class SpecSyntaxError(PTreeError):
    """The tree-spec document is not well-formed JSON."""

    def __init__(self, message: str, line: int | None = None) -> None:
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line


class SpecValidationError(PTreeError):
    """The tree-spec document is well-formed but semantically invalid."""

    def __init__(self, path: str, reason: str) -> None:
        super().__init__(f"node {path!r}: {reason}")
        self.path = path
        self.reason = reason


class UnknownGenerator(PTreeError):
    """The tree-spec document names a generator this library does not provide."""
