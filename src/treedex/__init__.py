"""Degree-based tree indices, extremal constructions, and verification.

The library computes two degree-based indices over trees, evaluates the
closed-form extremal bounds for families with a fixed number of pendant
vertices, segments, or branching vertices, constructs the extremal
trees, applies the associated degree-shifting moves, and verifies every
bound against exhaustive isomorphism-free enumeration at desk scale.
"""

from .bounds import (
    THEOREM_FAMILY,
    THEOREM_NAMES,
    BalancedCounts,
    BoundValue,
    FamilyConstraint,
    balanced_counts,
    balanced_counts_formula,
    construct_extremal,
    theorem_bound,
)
from .enumeration import (
    family_members,
    free_tree_count_by_prufer,
    free_trees,
    labeled_trees_prufer,
)
from .indices import (
    ABS_TOL,
    REL_TOL,
    WINDOW_LOW_A,
    Index,
    r0_general,
    r0_of_degseq,
    sei,
    sei_of_degseq,
    values_close,
)
from .transforms import (
    TRANSFORMS,
    MoveRecord,
    claimed_sign,
    predicted_delta,
)
from .trees import (
    DegreeSequence,
    Tree,
    canonical_code,
    parse_tree,
    realize_caterpillar,
    segment_decomposition,
    squeeze,
    structural_profile,
)
from .verify import (
    CONFIRMED,
    DEFAULT_A_GRID,
    DEFAULT_ALPHA_GRID,
    REFUTED,
    TheoremReport,
    check_monotonicity,
    check_theorem,
    full_report,
    oracle_extremum,
    reports_to_csv,
    reports_to_json,
)

__version__ = "0.1.0"
