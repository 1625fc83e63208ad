"""Structure-sensitive information theory.

Entropy, divergence, and coding quantities that weight distinctions by how
separated the underlying outcomes are — on ultrametric trees, on weighted
partition structures, and on the real line — plus classical Shannon notions
as the degenerate case, empirical typical-sequence checks, and a CLI.
"""

__version__ = "0.1.0"

from .errors import (
    AlphabetMismatch,
    DegenerateSplit,
    DuplicateValues,
    EmptySubset,
    NonMonotoneCdf,
    NotNormalized,
    NotUltrametric,
    ParseError,
    PartitionMismatch,
    SpaceTooLarge,
    StructentError,
    TooFewLetters,
    TooFewPoints,
    UnsupportedRegime,
    ValidationError,
    ZeroMassSide,
    ZeroMassSubset,
)
from .alphabet import (
    Alphabet,
    Distribution,
    Partition,
    PartitionStructure,
    StructuredSpace,
    build_q,
    combine,
    join,
    merge_inseparable,
    power_structure,
    product_alphabet,
    product_partition,
    product_structure,
    reduce,
    reduced_probs,
    refines,
    restrict_distribution,
    restrict_structure,
    sequence_alphabet,
)
from .notions import (
    JointDistribution,
    StructuredAlphabet,
    StructuredJoint,
    binary_entropy,
    d_kl_s,
    entropy,
    h_s,
    h_s_conditional,
    h_s_joint,
    h_s_of,
    h_s_via_q,
    i_s,
    kl_divergence,
)
from .ultrametric import (
    DistanceMatrix,
    TreeNode,
    UltrametricTree,
    band,
    check_binary_partition_minimality,
    hu_arcwise,
    hu_bandwise,
    hu_nodewise,
    hu_recursive,
    leaf,
    node,
    set_distance,
    to_partition_structure,
    tree_equal,
    tree_from_distance,
    tree_to_distance,
)
from .concordance import (
    BinarySplit,
    concordance,
    d_hat,
    d_hat_via_entropy_gap,
    grouping_decompose,
    state_distance,
    state_distance_matrix,
)
from .coding import (
    GAP_BOUND,
    CodeNode,
    CodeTree,
    OptimizeTrace,
    TrialRecord,
    TrialReport,
    code_lengths,
    code_tree_from_nesting,
    distance_code_lengths,
    esscl,
    initial_code_tree,
    lambda_u,
    mu_u,
    optimize,
    optimize_with_trace,
    run_bound_trials,
    typical_compression_check,
)
from .linear import (
    LinearAlphabet,
    collapse_duplicate_points,
    dkl_r,
    h_r,
    h_r_conditional,
    h_r_joint,
    h_r_limit,
    h_r_sample,
    i_r,
    linear_structure,
    pearson,
    stddev_correlation_sim,
)
from .sequences import (
    EquivalenceClassStats,
    SequenceSpace,
    TypicalSetSummary,
    component_space,
    equivalence_class_stats,
    letter_space,
    pair_space,
    partition_space,
    project,
    subset_probability,
    typical_set,
    typical_set_sampled,
    types_correction,
)
from .io import (
    AMINO_ACIDS,
    GAP,
    Alignment,
    distance_to_csv,
    distribution_to_json,
    parse_distance_csv,
    parse_distribution_json,
    parse_fasta,
    parse_joint_json,
    parse_newick,
    parse_points_csv,
    parse_stockholm,
    parse_structure_json,
    structure_to_json,
    tree_to_newick,
)
from .conservation import (
    DEFAULT_COVERAGE_THRESHOLD,
    SYNTHETIC_CLUSTER_HEIGHT,
    ColumnScore,
    ConservationReport,
    conservation_score,
    synthetic_aa_tree,
)
from . import sampling

from types import ModuleType as _ModuleType

__all__ = [k for k, v in globals().items() if not (k.startswith("_") or isinstance(v, _ModuleType))]
