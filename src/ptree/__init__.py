"""Exact-arithmetic probability trees.

Edge-probability families on countable trees, the inductive measures they
induce, relative expectations on fronts, the unit-interval realization
with inverse-transform sampling, binary encodings, and the exact binomial
CDF bound for dependent Bernoulli trials.
"""

from .bernoulli import (
    DependentTrialTree,
    DominanceReport,
    DominanceRow,
    binomial_cdf,
    binomial_pmf,
    cell_volume,
    dominance_check,
    flip_success_convention,
    random_trial_tree,
    success_pmf,
)
from .dists import FiniteDist, Geometric, PointMass, as_fraction
from .encoding import (
    BinaryEncoding,
    EncodingReport,
    binary_encode,
    embed_branch,
    encoded_measure,
    verify_encoding,
)
from .errors import (
    CyclicInput,
    DepthBudgetExceeded,
    EncodingMismatch,
    HypothesisViolated,
    InexactValue,
    InfiniteLevel,
    InvalidArgument,
    InvalidAdjacency,
    MalformedClopen,
    MalformedPair,
    MalformedPath,
    MalformedTree,
    MultipleRoots,
    NegativeCount,
    NegativeDepth,
    NodeNotBelowFront,
    NotADistribution,
    NotAFront,
    NotALeaf,
    NotASubtree,
    NotATrialTree,
    OversizedValue,
    PreconditionFrontMismatch,
    PTreeError,
    QPointError,
    RequiresExplicitFiniteTree,
    SpecSyntaxError,
    SpecValidationError,
    TooDeep,
    UnknownGenerator,
    UnknownNode,
)
from .expectation import (
    FrontVariable,
    TowerCase,
    TowerReport,
    expect,
    relative_expect,
    relative_expect_front,
    tower_check,
    tower_check_fronts,
)
from .intervals import (
    ATOM_FOUND,
    BranchWindow,
    FREE_CERTIFIED,
    FreenessReport,
    INCONCLUSIVE,
    Interval,
    SubtreeMassReport,
    atom_gaps,
    branch_mass_bound,
    branch_window,
    clopen_mass,
    cylinder_frequencies,
    freeness_report,
    locate_branch,
    node_interval,
    sample_branches,
    subtree_mass_bound,
)
from .measures import (
    EdgeFamily,
    GeneralPair,
    InductiveMeasure,
    NullNodeSet,
    ValidationReport,
    below_mass,
    dirac,
    family_from_pair,
    front_mass,
    geometric_omega,
    induced_measure,
    node_mass,
    pair_from_family,
    positive_equivalent,
    positive_equivalent_measures,
    positive_part,
    split_measure,
    uniform_binary,
    validate_edge_family,
)
from .paths import OMEGA, OrderRelation, Path, format_path, order_relations, parse_path
from .specio import parse_spec, serialize_spec
from .trees import (
    ClassifyReport,
    ClopenSelection,
    ExplicitTree,
    Front,
    GeneratedTree,
    canonicalize,
    classify,
    complete_binary_tree,
    enumerate_front,
    is_front,
    level,
    walk_to_depth,
)

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "0.1.0"
