"""Closed forms for tree distance matrices, on one cached analysis per graph.

For a matrix-weighted tree the determinant and the inverse of the block
distance matrix have exact expressions in the edge weights.  This module
builds D, the inverse-weighted Laplacian L and Q, evaluates those
expressions, decides invertibility and finds the rank-deficient scalar
weighting of a non-tree: all that the report commands but ``verify`` run.

Every public function reads the one :class:`_Analysis` that its graph
object keeps: D, L and the other arrays the checks share are built at most
once, read-only, and the per-edge facts from one stacked call per graph.  A
matrix beyond float range raises NonFiniteError.  The kernels are in
:mod:`mwtrees.operators`.  The check families that verify the identities,
g-inverse, spectrum and rank facts on the same analysis are in
:mod:`mwtrees.checks`, which this module never imports, so a command that
runs no check compiles none; it keeps the check records
(:class:`VerificationReport`) and the seed check, which the commands and
the generators share.  The README's Architecture section shows the whole.
"""

from __future__ import annotations

import math
import sys
import weakref
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import (
    IsATreeError,
    NonFiniteError,
    NotInvertibleError,
    NotSPDError,
    SingularMatrixError,
    SingularWeightError,
)
from .graphs import (
    MatrixWeightedGraph,
    _read_only,
    check_structure,
    degrees,
    delta_vector,
    is_tree,
    require_tree,
    weight_sum,
)
from .linalg import (
    DEFAULT_RANK_TOL,
    BlockMatrix,
    inverse,
    numerical_rank,
    sign_log_determinants,
    spd_inverse_sqrts,
    symmetric_eigenvalues,
)
from .operators import (
    TreeLayout,
    _subtree_runs,
    block_incidence,
    block_laplacian,
    inverse_weights,
    tree_distance_data,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

SUITES = ("identities", "ginverse", "spectrum", "rank", "all")


class VerificationReport(NamedTuple):
    """Outcome of one named numerical check.

    ``status`` is PASS, FAIL or SKIPPED; for PASS/FAIL the ``residual`` and
    ``tolerance`` fields are set and consistent with the status, for SKIPPED
    they are None and ``detail`` carries the reason.
    """

    name: str
    status: str
    residual: float | None
    tolerance: float | None
    n: int
    s: int
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == PASS


def _report(name: str, residual: float, tolerance: float,
            g: MatrixWeightedGraph, detail: str = "") -> VerificationReport:
    # an overflowed residual or tolerance (inf <= inf) proves nothing
    passed = math.isfinite(residual) and math.isfinite(tolerance)
    status = PASS if passed and residual <= tolerance else FAIL
    return VerificationReport(name, status, float(residual), float(tolerance),
                              g.n, g.s, detail)


def _skipped(name: str, reason: str,
             g: MatrixWeightedGraph) -> VerificationReport:
    return VerificationReport(name, SKIPPED, None, None, g.n, g.s, reason)


def _finite(build, what: str,
            cause: str = "sums of the weights overflow") -> np.ndarray:
    """The array ``build()`` returns, read-only; NonFiniteError naming
    ``what`` and the ``cause`` if it holds inf or NaN, which the weights'
    sums or inverses reach on overflow (quietly: the error reports it)."""
    with np.errstate(over="ignore", invalid="ignore"):
        a = build()
    if not np.isfinite(a).all():
        raise NonFiniteError(f"{what} has non-finite entries: {cause} "
                             f"float range")
    return _read_only(a)


class _Analysis:
    """What the checks of one graph share, each piece built at most once.

    Construction validates the structure (ValueError on a malformed graph)
    from the violation list the graph keeps, which also answers whether it
    is connected or a tree.  The rest is built on first use and cached
    read-only, so no check can change what another one sees; graphs are
    immutable, so the cache cannot go stale.  Every reader takes the one
    stack of the weights, the graph's.  One ``eigh`` of them gives Q and,
    with the rank test that inverts them for L and the rank probe, decides
    SPD; that test and R's, for R^-1, decide invertibility.  One preorder
    layout, read off the search that validation ran, serves D, the
    g-inverses (:func:`~mwtrees.checks.g_inverse`), the rank certificate
    and the witness's marked edge.

    :func:`_analysis` keeps one analysis on each graph object.  The analysis
    reaches its graph through a weak reference, so graph -> analysis is the
    only strong link: dropping the graph frees D and L by reference
    counting, without the cycle collector.
    """

    def __init__(self, g: MatrixWeightedGraph):
        check_structure(g)
        self._graph = weakref.ref(g)

    @property
    def g(self) -> MatrixWeightedGraph:
        return self._graph()

    @property
    def tree(self) -> bool:
        """Whether the graph is a tree; NotConnectedError if disconnected."""
        return is_tree(self.g)

    def require_spd(self) -> None:
        if not self.spd:
            raise NotSPDError("every edge weight must be SPD")

    @cached_property
    def weight_roots(self) -> np.ndarray:
        """The inverse square roots of the weights; NotSPDError names the
        first weight that is not SPD."""
        try:
            return _read_only(spd_inverse_sqrts(self.g.weights))
        except NotSPDError as exc:
            e = self.g.edges[exc.index]
            raise NotSPDError(f"edge {exc.index} ({e.u}, {e.v}): {exc}",
                              edge_index=exc.index) from None

    @cached_property
    def spd(self) -> bool:
        """Whether every weight is SPD, by :attr:`weight_roots`, and passes
        the rank test of :attr:`weight_inverses`, which ``eigh`` can miss."""
        try:
            self.weight_roots
            self.weight_inverses
        except (NotSPDError, SingularWeightError):
            return False
        return True

    @cached_property
    def weight_sum(self) -> np.ndarray:
        """R, the sum of the weights; NonFiniteError if it overflows."""
        return _finite(lambda: weight_sum(self.g),
                       "the sum of the edge weights")

    @cached_property
    def weight_sum_inverse(self) -> np.ndarray:
        """R^-1; SingularMatrixError if R is singular at the default
        tolerance."""
        return _read_only(inverse(self.weight_sum))

    @cached_property
    def layout(self) -> TreeLayout:
        """The :func:`~mwtrees.operators._subtree_runs` of the graph."""
        return _subtree_runs(self.g)

    @cached_property
    def distance(self) -> np.ndarray:
        """D; NotATreeError on other graphs, NonFiniteError if a path sum
        overflows."""
        require_tree(self.g)
        return _finite(lambda: tree_distance_data(self.g, self.layout),
                       "the distance matrix")

    @cached_property
    def distance_eigenvalues(self) -> np.ndarray:
        return _read_only(symmetric_eigenvalues(self.distance))

    @cached_property
    def weight_inverses(self) -> np.ndarray:
        """The blocks of L, the inverse weights, from one batched rank test;
        SingularWeightError names the first singular weight."""
        return _finite(lambda: inverse_weights(self.g),
                       "an inverse edge weight",
                       "inverting the weights overflows")

    @cached_property
    def laplacian(self) -> np.ndarray:
        """The inverse-weighted Laplacian."""
        return _finite(lambda: block_laplacian(self.g, self.weight_inverses),
                       "the Laplacian",
                       "sums of the inverse weights overflow")

    @cached_property
    def laplacian_eigenvalues(self) -> np.ndarray:
        """The eigenvalues of L, descending, from one ``eigvalsh`` of its
        symmetric part: where inversion left L slightly asymmetric, they
        are its own to second order in the asymmetry, where one triangle
        would shift them to first order.  NotSPDError unless the weights
        are SPD."""
        self.require_spd()
        lap = self.laplacian
        return _read_only(np.linalg.eigvalsh(0.5 * (lap + lap.T))[::-1])

    @cached_property
    def invertibility(self) -> InvertibilityResult:
        """:func:`invertibility_check`, from the rank tests that invert the
        weights for L and R for R^-1."""
        require_tree(self.g)
        try:
            self.weight_inverses
            self.weight_sum_inverse
        except SingularWeightError as exc:
            return InvertibilityResult(False, _singular_edge(self.g,
                                                             exc.edge_index))
        except SingularMatrixError:
            return InvertibilityResult(False, _SINGULAR_SUM)
        return InvertibilityResult(True)

    @cached_property
    def deficient_weighting(self) -> DeficientWeighting:
        """The :func:`rank_deficient_weighting` of the graph."""
        g = self.g
        if self.tree:
            raise IsATreeError(
                "every nonsingular weighting of a tree has full-rank Laplacian"
            )
        off = self.layout.off   # each closes a cycle with the tree
        score = degrees(g)[g.ends[off] - 1].sum(axis=1)
        best = int(off[np.argmax(score)])   # the first of the highest
        c1 = _marked_cofactor(g, best, 1.0)
        c2 = _marked_cofactor(g, best, 2.0)
        with_edge = round(c2 - c1)
        without_edge = round(2.0 * c1 - c2)
        return DeficientWeighting(
            edge_index=best,
            endpoints=tuple(g.ends[best].tolist()),
            w=-without_edge / with_edge,
            trees_with_edge=with_edge,
            trees_without_edge=without_edge,
        )


def _require_seed(seed) -> None:
    """ValueError for a negative integer seed, which numpy refuses with a
    message naming no argument, and TypeError for a seed that is not None,
    an integer or a generator, bit generator or seed sequence of
    ``numpy.random``.  Builds no generator and loads no ``numpy.random``:
    an object of its types exists only once it is loaded."""
    if isinstance(seed, (int, np.integer)):
        if seed < 0:
            raise ValueError(f"seed must be >= 0, got {seed}")
        return
    random = sys.modules.get("numpy.random")
    if seed is None or random is not None and isinstance(
            seed, (random.Generator, random.BitGenerator, random.SeedSequence)):
        return
    raise TypeError(f"seed must be an integer, got {type(seed).__name__}")


def _seeded_rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` after :func:`_require_seed`."""
    _require_seed(seed)
    return np.random.default_rng(seed)


def _analysis(g: MatrixWeightedGraph) -> _Analysis:
    """The analysis of ``g``, built on the first call and kept in a private
    slot of the graph, so every public function on one graph object shares
    it."""
    a = g.__dict__.get("_analysis")
    if a is None:
        a = g.__dict__["_analysis"] = _Analysis(g)
    return a


class LaplacianMode(Enum):
    """Which matrix sits in the off-diagonal Laplacian blocks."""

    RAW = "raw"          # blocks use the edge weights themselves
    INVERTED = "inverted"  # blocks use the inverses of the edge weights


def distance_matrix(g: MatrixWeightedGraph) -> BlockMatrix:
    """Block distance matrix of a matrix-weighted tree, read-only.

    Block (i, j) is the sum of the weights on the unique i-to-j path, taken
    in ascending edge-index order; diagonal blocks are zero.  Blocks (i, j)
    and (j, i) are the same matrix, so the full array is symmetric exactly
    when every path sum is.  See :func:`~mwtrees.operators.tree_distance_data`
    for how it is built and why it matches ``distance_oracle`` bit for bit.
    NotATreeError on other graphs; a path sum beyond float range raises
    NonFiniteError.
    """
    return BlockMatrix(_analysis(g).distance, g.s)


def laplacian(
    g: MatrixWeightedGraph, mode: LaplacianMode = LaplacianMode.INVERTED
) -> BlockMatrix:
    """Block Laplacian of a matrix-weighted graph, read-only.

    Off-diagonal block (i, j) is minus the (possibly inverted) weight of the
    edge {i, j}; diagonal block (i, i) is the sum of those matrices over the
    edges at vertex i, accumulated in ascending edge order.  Block rows and
    columns sum to zero by construction.  INVERTED mode is the analysis's L:
    a singular edge weight raises SingularWeightError naming the edge.
    ``mode`` is a member or its value; ValueError for any other.
    """
    mode = LaplacianMode(mode)
    a = _analysis(g)
    if mode is LaplacianMode.RAW:
        return BlockMatrix(_read_only(block_laplacian(g, g.weights)), g.s)
    return BlockMatrix(a.laplacian, g.s)


def incidence_matrix(g: MatrixWeightedGraph) -> BlockMatrix:
    """Scaled incidence matrix Q of a graph with SPD weights, read-only.

    Column block k (one per edge, (n s) x (m s) overall) carries
    ``+inverse_sqrt(W_k)`` at the smaller endpoint and the negated copy at
    the larger one, so that ``Q @ Q.T`` equals the inverse-weighted
    Laplacian and block rows of Q sum to zero.  The inverse square roots
    are the analysis's, from one batched SPD test and eigendecomposition;
    the first non-SPD weight raises NotSPDError naming its edge.
    """
    roots = _analysis(g).weight_roots
    return BlockMatrix(_read_only(block_incidence(g, roots)), g.s)


def distance_determinant_sign_log(g: MatrixWeightedGraph) -> tuple[float, float]:
    """``(sign, log|det|)`` of the tree distance matrix, in closed form.

    The determinant factors as (-1)^((n-1)s) * 2^((n-2)s) times the product
    of the edge-weight determinants times the determinant of the weight sum,
    so it costs one small determinant per edge instead of an (n s)^3
    factorization; those of the edge weights come from one batched
    ``slogdet``, of each weight scaled into range where it is subnormal or
    huge (see :func:`~mwtrees.linalg.sign_log_determinants`).  Sign 0.0
    means the distance matrix is singular.
    """
    a = _analysis(g)
    require_tree(g)
    sign = -1.0 if ((g.n - 1) * g.s) % 2 else 1.0
    log_abs = (g.n - 2) * g.s * math.log(2.0)
    # the weights in edge order, then R, each member factored on its own
    signs, logs = sign_log_determinants(
        np.concatenate([g.weights, a.weight_sum[None]]))
    for es, el in zip(signs.tolist(), logs.tolist()):
        sign *= es
        log_abs += el
    if sign == 0.0:
        return 0.0, -math.inf
    return sign, log_abs


class InvertibilityResult(NamedTuple):
    """Whether the tree distance matrix is invertible, with the reason when
    it is not (a singular edge weight or a singular weight sum)."""

    invertible: bool
    reason: str = ""


def invertibility_check(g: MatrixWeightedGraph) -> InvertibilityResult:
    """Decide invertibility of the tree distance matrix from the weights.

    The matrix is invertible exactly when every edge weight and the sum of
    all edge weights are invertible, so no (n s)-sized factorization is
    needed.  The rank tests are those that invert the weights for L and R
    for R^-1, made at most once per graph.
    """
    return _analysis(g).invertibility


_SINGULAR_SUM = "sum of edge weights is singular"


def _singular_edge(g: MatrixWeightedGraph, k: int) -> str:
    e = g.edges[k]
    return f"edge {k} ({e.u}, {e.v}) weight is singular"


def _require_invertible(a: _Analysis) -> None:
    result = a.invertibility
    if not result.invertible:
        raise NotInvertibleError(
            f"distance matrix is not invertible: {result.reason}",
            reason=result.reason,
        )


def distance_inverse(g: MatrixWeightedGraph) -> BlockMatrix:
    """Inverse of the tree distance matrix, in closed form.

    Built as ``-L/2 + (delta delta^T kron R^{-1}) / 2`` where L is the
    inverse-weighted Laplacian, delta holds ``2 - degree`` per vertex and R
    is the sum of the edge weights.  Raises NotInvertibleError (carrying the
    reason) when :func:`invertibility_check` fails, and NonFiniteError when
    R overflows.
    """
    a = _analysis(g)
    _require_invertible(a)
    return BlockMatrix(_inverse_data(a), g.s)


def _inverse_data(a: _Analysis) -> np.ndarray:
    """The array of :func:`distance_inverse`: ``0.5 delta_i delta_j R^-1``
    added to each block of ``-0.5 L``, the float operations of adding the
    Kronecker product."""
    g = a.g
    n, s = g.n, g.s
    delta = delta_vector(g).astype(float)
    products = np.outer(delta, delta)[:, None, :, None]
    data = -0.5 * a.laplacian
    data.reshape(n, s, n, s)[:] += 0.5 * (products
                                         * a.weight_sum_inverse[:, None, :])
    return data


def reweighted_scalar_laplacian(
    g: MatrixWeightedGraph, edge_index: int, w: float
) -> np.ndarray:
    """Scalar (n x n) Laplacian with weight ``w`` on one edge and 1 on all
    others.  Only the topology of ``g`` matters; block weights are ignored."""
    if not 0 <= edge_index < g.m:
        raise ValueError(f"edge index {edge_index} out of range 0..{g.m - 1}")
    weights = np.ones((g.m, 1, 1))
    weights[edge_index] = w
    return block_laplacian(g, weights)


def _marked_cofactor(g: MatrixWeightedGraph, edge_index: int, w: float) -> float:
    lap = reweighted_scalar_laplacian(g, edge_index, w)
    return float(np.linalg.det(lap[1:, 1:]))


class DeficientWeighting(NamedTuple):
    """A scalar weighting that drops the Laplacian rank of a non-tree graph.

    Putting weight ``w`` on the marked edge and 1 on every other edge makes
    every spanning-tree cofactor vanish: the cofactor is linear in the
    marked weight, ``trees_with_edge * w + trees_without_edge``, and ``w``
    is its root.  Both counts are positive because the edge lies on a cycle.
    """

    edge_index: int
    endpoints: tuple[int, int]
    w: float
    trees_with_edge: int
    trees_without_edge: int


def rank_deficient_weighting(g: MatrixWeightedGraph) -> DeficientWeighting:
    """Find a scalar weighting of a non-tree graph with deficient rank.

    Marks the edge off the spanning tree of :attr:`_Analysis.layout` whose
    endpoint degree sum is largest (first in storage order on ties): each
    such edge closes a cycle.  Recovers the spanning-tree counts from the
    marked cofactor evaluated at weights 1 and 2, and returns the root of
    that linear polynomial.  Trees have no such weighting (IsATreeError);
    every connected non-tree has one.  Computed once per graph object,
    so it is the witness of an earlier
    :func:`~mwtrees.checks.verification_suite`.
    """
    return _analysis(g).deficient_weighting


def witness_rank(g: MatrixWeightedGraph,
                 rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """The SVD rank at ``rel_tol`` of the scalar Laplacian that the
    :func:`rank_deficient_weighting` of ``g`` weights: the rank that
    ``deficient`` reports and the rank probe's witness branch observes.
    IsATreeError on a tree."""
    witness = _analysis(g).deficient_weighting
    lap = reweighted_scalar_laplacian(g, witness.edge_index, witness.w)
    return numerical_rank(lap, rel_tol)
