"""Seeded random generators shared by the unit and acceptance tests."""

from __future__ import annotations

import random
from fractions import Fraction

from ptree import EdgeFamily, ExplicitTree, FiniteDist, Front, FrontVariable, GeneratedTree
from ptree.paths import Path


def random_tree(
    rng: random.Random,
    max_depth: int = 4,
    max_arity: int = 3,
    leaf_prob: float = 0.25,
    well_pruned: bool = False,
) -> ExplicitTree:
    """A random explicit canonical tree; leaf_prob controls early maximal nodes."""
    children: dict[Path, tuple[int, ...]] = {}
    stack: list[Path] = [()]
    while stack:
        t = stack.pop()
        if len(t) >= max_depth or (t != () and not well_pruned and rng.random() < leaf_prob):
            children[t] = ()
            continue
        arity = rng.randint(1, max_arity)
        children[t] = tuple(range(arity))
        stack.extend(t + (k,) for k in range(arity))
    return ExplicitTree(children)


def random_dist(rng: random.Random, arity: int, allow_zero: bool = False) -> FiniteDist:
    """Exact random distribution over range(arity); may place zero mass on edges."""
    low = 0 if allow_zero else 1
    weights = [rng.randint(low, 9) for _ in range(arity)]
    if sum(weights) == 0:
        weights[rng.randrange(arity)] = 1
    total = sum(weights)
    return FiniteDist([Fraction(w, total) for w in weights])


def random_family(rng: random.Random, tree: ExplicitTree, allow_zero: bool = False) -> EdgeFamily:
    dists = {
        t: random_dist(rng, len(tree.child_indices(t)), allow_zero)
        for t in tree.nodes()
        if not tree.is_maximal(t)
    }
    return EdgeFamily(tree, dists)


def rule_family(table: dict) -> EdgeFamily:
    """A rule family serving a canonical table's rows (mass lists or FiniteDists) on a generated tree with the table's
    nodes. Unlike a table, a rule's row is checked only when a walk steps off its node."""
    rows = {tuple(t): d if isinstance(d, FiniteDist) else FiniteDist(d) for t, d in table.items()}
    height = 1 + max(map(len, rows), default=-1)
    return EdgeFamily(GeneratedTree(lambda t: len(rows[t].masses) if t in rows else 0, height), rows.__getitem__)


def random_variable(rng: random.Random, front: Front) -> FrontVariable:
    values = {
        t: Fraction(rng.randint(-20, 20), rng.randint(1, 10)) for t in front.nodes
    }
    return FrontVariable(front, values)
