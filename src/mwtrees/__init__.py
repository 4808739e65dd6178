"""Distance matrices, block Laplacians and spectral identities of
matrix-weighted graphs and trees.

A matrix-weighted graph carries an s x s real matrix on every edge.  For
trees, the block distance matrix (path sums of weights) has a closed-form
determinant and inverse built from the inverse-weighted block Laplacian;
this package constructs those objects, evaluates the closed forms, and
verifies the identities, rank, inertia and interlacing facts that come with
them, both as a library and through the ``mwtrees`` command line tool.
"""

__version__ = "0.1.0"

from .closedforms import (
    FAIL,
    IDENTITY_NAMES,
    PASS,
    SKIPPED,
    SUITES,
    DeficientWeighting,
    InterlacingReport,
    InvertibilityResult,
    LaplacianMode,
    RankProbe,
    VerificationReport,
    distance_determinant_sign_log,
    distance_inverse,
    distance_matrix,
    ginverse_distance_recovery,
    ginverse_invariance_check,
    incidence_matrix,
    inertia_check,
    interlacing_check,
    invertibility_check,
    laplacian,
    rank_characterization_probe,
    rank_deficient_weighting,
    reweighted_scalar_laplacian,
    verification_suite,
    verify_identities,
)
from .errors import (
    BadConfigError,
    GraphFileError,
    IsATreeError,
    MWTreesError,
    NonFiniteError,
    NotATreeError,
    NotConnectedError,
    NotInvertibleError,
    NotSPDError,
    NotSymmetricError,
    SameVertexError,
    SingularMatrixError,
    SingularWeightError,
)
from .formats import (
    GRAPH_SCHEMA,
    REPORT_SCHEMA,
    dump_graph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    loads_graph,
)
from .gallery import (
    cycle4_block2,
    cycle_graph,
    diamond4,
    path4_block2,
    path_graph,
    star_graph,
)
from .generators import (
    GenConfig,
    WeightKind,
    distance_oracle,
    random_connected_nontree,
    random_instances,
    random_nonsingular,
    random_spd,
    random_tree,
)
from .graphs import (
    Edge,
    MatrixWeightedGraph,
    Violation,
    degrees,
    delta_vector,
    is_connected,
    is_tree,
    tree_path,
    validate,
    weight_sum,
)
from .linalg import (
    BlockMatrix,
    Inertia,
    inertia_of,
    inverse,
    numerical_rank,
    pseudo_inverse,
    sign_log_determinant,
    symmetric_eigenvalues,
)

from types import ModuleType as _Module
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _Module))
