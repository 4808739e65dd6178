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
    PASS,
    SKIPPED,
    SUITES,
    DeficientWeighting,
    InvertibilityResult,
    LaplacianMode,
    VerificationReport,
    distance_determinant_sign_log,
    distance_inverse,
    distance_matrix,
    incidence_matrix,
    invertibility_check,
    laplacian,
    rank_deficient_weighting,
    reweighted_scalar_laplacian,
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
    sign_log_determinant,
    symmetric_eigenvalues,
)

# The names of the gallery, the generators and the checks load their
# module on first use (PEP 562): no report command reads the first two,
# only ``verify`` runs the checks, and a CLI process compiles and runs
# none of the three unless its command needs it.
_LAZY = dict.fromkeys(("cycle4_block2", "cycle_graph", "diamond4",
                       "path4_block2", "path_graph", "star_graph"), "gallery")
_LAZY |= dict.fromkeys(("GenConfig", "WeightKind", "distance_oracle",
                        "random_connected_nontree", "random_instances",
                        "random_nonsingular", "random_spd", "random_tree"),
                       "generators")
_LAZY |= dict.fromkeys(("IDENTITY_NAMES", "InterlacingReport", "RankProbe",
                        "ginverse_distance_recovery",
                        "ginverse_invariance_check", "inertia_check",
                        "interlacing_check", "pseudo_inverse",
                        "rank_characterization_probe", "verification_suite",
                        "verify_identities"), "checks")


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(
        import_module(f".{_LAZY[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})


from types import ModuleType as _Module
__all__ = sorted([*_LAZY, *(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _Module))])
