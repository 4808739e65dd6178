"""Closed forms for tree distance matrices, plus the verification suite.

For a matrix-weighted tree the determinant and the inverse of the block
distance matrix have exact expressions in the edge weights, and the distance
matrix satisfies a family of product identities against the inverse-weighted
Laplacian.  This module computes those expressions, checks the identities
numerically, and probes the rank, inertia, interlacing and generalized-
inverse properties that hold alongside them.

Every public function reads the one :class:`_Analysis` that its graph
object keeps: D, L and the other arrays the checks share are built at most
once, read-only, and the per-edge facts from one stacked call per graph.  A
matrix beyond float range raises NonFiniteError, and the suite SKIPs the
checks that need it.  :func:`verify_identities` forms L D and D L and
estimates the other identities on seeded Gaussian probes, the g-inverse
checks read grounded inverses (:meth:`_Analysis.g_inverse`), and the rank
probe certifies a tree's Laplacian ranks from its edge blocks where it can,
in one stacked call.  The kernels are in :mod:`mwtrees.operators`; this
module keeps the caches, the hypothesis gates and two choices: the route
to G_r (:func:`_few_cycles`) and the rank that the kernels' bounds certify
(:func:`_certifies`).  The README's Architecture section shows the whole.
"""

from __future__ import annotations

import math
import sys
import weakref
from enum import Enum
from functools import cached_property, lru_cache
from typing import NamedTuple

import numpy as np

from .errors import (
    IsATreeError,
    MWTreesError,
    NonFiniteError,
    NotConnectedError,
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
    is_connected,
    is_tree,
    require_tree,
    weight_sum,
)
from .linalg import (
    _CERTIFICATE_SAFETY,
    DEFAULT_RANK_TOL,
    BlockMatrix,
    Inertia,
    _require_rel_tol,
    block_planes,
    frobenius_norms,
    inertia_of,
    inverse,
    largest_pair_norm,
    numerical_rank,
    pair_contractions,
    sign_log_determinants,
    spd_inverse_sqrts,
    symmetric_eigenvalues,
)
from .operators import (
    TreeLayout,
    _subtree_runs,
    _tree_bounds,
    block_incidence,
    block_laplacian,
    cholesky_g_inverse_data,
    cycle_g_inverse_data,
    inverse_weights,
    tree_distance_data,
    tree_g_inverse_data,
)

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"

#: Record names emitted by :func:`verify_identities`, in order.
IDENTITY_NAMES = ("ld", "dl", "ldl", "dinv_minus_l", "qdq")

SUITES = ("identities", "ginverse", "spectrum", "rank", "all")

#: Gaussian probe columns of the ``ldl``, ``dinv_minus_l`` and ``qdq``
#: estimates of :func:`verify_identities`.
_PROBES = 8

#: Tolerance of both g-inverse checks, times the norm of L^+ or of D.
_GINVERSE_REL_TOL = 1e-7

#: Slack of the interlacing check, times the largest eigenvalue magnitude.
_INTERLACING_SLACK = 1e-8

#: Bound on the condition number of the rank probe's reweightings, built
#: with their singular values in [cap^-1/2, cap^1/2]: far below
#: 1 / DEFAULT_RANK_TOL, so each is nonsingular at the rank cutoff.
_PROBE_CONDITION_CAP = 1e4


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
    g-inverses (:meth:`g_inverse`), the rank certificate and the witness's
    marked edge.

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

    def g_inverse(self, root: int) -> np.ndarray:
        """G_root: L grounded at ``root`` (its block row and column
        deleted), inverted and padded with zeros, so ``L G_root L = L``: on
        a tree in closed form; where :func:`_few_cycles` holds, by
        :func:`~mwtrees.operators.cycle_g_inverse_data` on :attr:`layout`;
        elsewhere by :func:`~mwtrees.operators.cholesky_g_inverse_data`,
        which lays out no spanning tree.  Every route reads L first, so an
        L beyond float range raises its NonFiniteError; a G_root beyond it
        raises one of its own.  SingularMatrixError when a factored matrix
        is not positive definite to working precision.  The array is
        read-only.
        """
        self.laplacian
        return _finite(lambda: self._g_inverse_data(root),
                       "the grounded inverse of L",
                       "inverting the grounded Laplacian overflows")

    def _g_inverse_data(self, root: int) -> np.ndarray:
        g = self.g
        if self.tree:
            return tree_g_inverse_data(self.layout, g.weights, root)
        try:
            if _few_cycles(g.n, g.m, g.s):
                return cycle_g_inverse_data(g, self.layout, root)
            return cholesky_g_inverse_data(self.laplacian, g.s, root)
        except SingularMatrixError:
            raise SingularMatrixError("the grounded Laplacian is not positive "
                                      "definite to working precision") from None

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


def _few_cycles(n: int, m: int, s: int) -> bool:
    """Whether a connected non-tree with n vertices, m edges and blocks of
    order s takes G_r from the closed form on a spanning tree corrected
    for its k = m - n + 1 other edges: when ``n + k s + 24 <= n s``.  In
    units of (n s)^2 operations the tree's product costs about n, the
    correction k s and the Cholesky inverse n s; the 24, the correction's
    fixed costs, is fitted to timings of both routes (see the README)."""
    return n + (m - n + 1) * s + 24 <= n * s


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


def _require_trials(trials: int) -> None:
    """TypeError for a trial count that is not an integer, which only the
    tree branch of the rank probe would reach, and ValueError below 0."""
    if not isinstance(trials, (int, np.integer)):
        raise TypeError(f"trials must be an integer, got "
                        f"{type(trials).__name__}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def _seeded_rng(seed) -> np.random.Generator:
    """``numpy.random.default_rng(seed)`` after :func:`_require_seed`."""
    _require_seed(seed)
    return np.random.default_rng(seed)


def _seeded_root(n: int, seed: int) -> int:
    """The g-inverse root, from 1 to n, for ``seed``: the first draw of
    numpy's PCG64 stream for ``seed``."""
    return int(_seeded_rng(seed).integers(1, n + 1))


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


def verify_identities(
    g: MatrixWeightedGraph, rel_tol: float = 1e-8, seed: int = 0
) -> list[VerificationReport]:
    """Check the five product identities tying D, L and Q together.

    Residuals are Frobenius norms, each compared against
    ``rel_tol * n * s``:

    - ``ld``:   L D   equals  (delta 1^T kron I) - 2 I
    - ``dl``:   D L   equals  (1 delta^T kron I) - 2 I
    - ``ldl``:  L D L equals  -2 L
    - ``dinv_minus_l``: (D^{-1} - L) times (D/3 + (J kron R)/3) equals I,
      i.e. the shifted inverse has its own closed form
    - ``qdq``:  Q^T D Q equals -2 I (needs SPD weights; SKIPPED otherwise)

    ``ld`` and ``dl`` are exact: the two (n s)^3 products, less their
    right-hand sides on the diagonals of the blocks.  The other three are
    estimates ``||M X||_F / sqrt(k)`` of ``||M||_F`` for the residual
    matrix M (Freivalds 1977, Hutchinson 1989), X of k = 8 standard
    Gaussian columns drawn from ``seed``, each factor applied to X in
    O((n s)^2 k): ``ldl`` as ``(L D)(L X) + 2 L X`` through the exact L D,
    whose rows of L cancel with less rounding than ``D X`` would;
    ``dinv_minus_l`` with D^{-1} and ``J kron R`` applied by their factors;
    ``qdq`` on k columns of length (n - 1) s drawn after X.

    Requires an invertible tree distance matrix (NotInvertibleError if not)
    whose D and R are finite (NonFiniteError if not).
    """
    rng = _seeded_rng(seed)
    _require_rel_tol(rel_tol)
    a = _analysis(g)
    _require_invertible(a)
    n, s = g.n, g.s
    tol = rel_tol * n * s
    dist, lap = a.distance, a.laplacian
    delta = delta_vector(g).astype(float)
    x = rng.standard_normal((n * s, _PROBES))
    probes = f"; {_PROBES} Gaussian probes, seed {seed}"

    shift = delta[:, None] - 2.0 * np.eye(n)   # [i, j]: delta_i - 2 [i = j]
    # D L first, so that one (n s)^2 product is alive at a time
    dl = _minus_block_diagonals(dist @ lap, shift.T)
    ld = lap @ dist
    lx = lap @ x
    ldl = _probe_norm(ld @ lx + 2.0 * lx)   # before ld changes in place
    reports = [
        _report("ld", _minus_block_diagonals(ld, shift), tol, g,
                "Laplacian times distance matrix against its "
                "rank-one-plus-shift form"),
        _report("dl", dl, tol, g, "distance matrix times Laplacian against "
                "its rank-one-plus-shift form"),
        _report("ldl", ldl, tol, g,
                "three-factor product collapsing back to the Laplacian"
                + probes),
    ]
    del ld   # before Q, as large as L D

    # (D/3 + (J kron R)/3) X, then D^{-1} - L = -3/2 L + (delta delta^T
    # kron R^{-1}) / 2 on it
    closed = ((dist @ x).reshape(n, s, _PROBES)
              + a.weight_sum @ x.reshape(n, s, _PROBES).sum(axis=0)) / 3.0
    corner = a.weight_sum_inverse @ np.tensordot(delta, closed, 1)
    shifted = (-1.5 * (lap @ closed.reshape(n * s, _PROBES))
               + 0.5 * (delta[:, None, None] * corner).reshape(n * s, _PROBES))
    reports.append(_report(
        "dinv_minus_l", _probe_norm(shifted - x), tol, g,
        "product check of the closed form for (D^{-1} - L)^{-1}" + probes,
    ))

    if a.spd:
        q = block_incidence(g, a.weight_roots)
        y = rng.standard_normal((q.shape[1], _PROBES))
        reports.append(_report(
            "qdq", _probe_norm(q.T @ (dist @ (q @ y)) + 2.0 * y), tol, g,
            "incidence matrix compresses the distance matrix to -2 I"
            + probes,
        ))
    else:
        reports.append(_skipped(
            "qdq", "weights are not all symmetric positive definite", g
        ))
    return reports


def _minus_block_diagonals(a: np.ndarray, shift: np.ndarray) -> float:
    """``||a - shift kron I_s||_F``, subtracted in place in ``a``: the bits
    of the norm of the difference with the Kronecker product built."""
    n = len(shift)
    s = a.shape[0] // n
    d = np.arange(s)
    a.reshape(n, s, n, s)[:, d, :, d] -= shift   # [k, i, j]: a[i, k, j, k]
    return float(frobenius_norms(a[None])[0])


def _probe_norm(mx: np.ndarray) -> float:
    """The estimate ``||M X||_F / sqrt(k)`` of ``||M||_F`` from ``M X``."""
    return float(frobenius_norms(mx[None])[0]) / math.sqrt(mx.shape[1])


def _centred_norm(planes: np.ndarray, scratch: np.ndarray) -> float:
    """``||P H P||_F``, ``P = (I - J/n) kron I_s``, of the H given as
    planes, with the bits of the means of its (n, s, n, s) view: the
    block-row mean subtracted, then the block-column mean, each added up
    in index order, except that numpy adds up a contiguous axis pairwise,
    as it does a block column when s = 1; the norm is taken over the
    entries in H's own order.  ``scratch``, two (s, s, n, n) slots of the
    caller's work array, holds the two centred copies, and its contents
    are lost."""
    s, _, n, _ = planes.shape
    centred = np.subtract(planes, planes.mean(axis=2, keepdims=True),
                          out=scratch[0])
    if s == 1:
        centred -= centred.mean(axis=3, keepdims=True)
        return float(frobenius_norms(centred.reshape(1, -1))[0])
    columns = scratch[1]   # [a, b, j, i]
    np.copyto(columns, centred.swapaxes(2, 3))
    mean = columns.mean(axis=2)
    ordered = columns.reshape(n, s, n, s)   # H's order, in the same memory
    np.subtract(centred, mean[..., None], out=ordered.transpose(1, 3, 0, 2))
    return float(frobenius_norms(ordered.reshape(1, -1))[0])


def ginverse_invariance_check(
    g: MatrixWeightedGraph, seed: int = 0
) -> VerificationReport:
    """Check that Laplacian pair contractions ignore the g-inverse choice.

    Compares ``H_ii + H_jj - H_ij - H_ji`` of two generalized inverses H of
    the inverse-weighted Laplacian L, for every vertex pair: L grounded at
    the roots that ``seed`` and ``seed + 1`` draw, inverted (see
    :meth:`_Analysis.g_inverse`), the second root moved to the next vertex
    ``r % n + 1`` when it repeats the first.  For a connected graph with
    SPD weights the contraction cancels the null terms that tell the other
    g-inverses apart, so the deviation is pure round-off; tolerance is
    ``_GINVERSE_REL_TOL`` times ``||P H P||_F = ||L^+||_F`` of the first H,
    ``P = (I - J/n) kron I_s``.

    Its (n s)^2-sized scratch is one work array of (s, s, n, n) slots,
    allocated once: the first H's planes and the second's (when s > 1;
    at s = 1 they are views of the two H), the first's pair contractions
    and the second's, less the first's, and :func:`_centred_norm`'s two
    centred copies in the last two slots, which are free by then.
    """
    n, s = g.n, g.s
    seeds = (seed, seed + 1)
    roots = [_seeded_root(n, k) for k in seeds]   # the seed is refused first
    if roots[1] == roots[0]:
        roots[1] = roots[0] % n + 1
    a = _analysis(g)
    if not is_connected(g):
        raise NotConnectedError(f"graph on {g.n} vertices is not connected")
    a.require_spd()
    # at s = 1 the planes are views of the two G_r and take no slot
    work = np.empty((3 if s > 1 else 2, s, s, n, n))
    first, second = (block_planes(a.g_inverse(r), s,
                                  out=slot if s > 1 else None)
                     for r, slot in zip(roots, work))
    dev = pair_contractions(second, out=work[-1])
    dev -= pair_contractions(first, out=work[-2])
    worst = largest_pair_norm(dev)
    tol = _GINVERSE_REL_TOL * _centred_norm(first, work[-2:])
    return _report("ginverse_invariance", worst, tol, g,
                   f"g-inverses grounded at roots {tuple(roots)}, "
                   f"seeds {seeds}")


def ginverse_distance_recovery(
    g: MatrixWeightedGraph, seed: int = 0
) -> VerificationReport:
    """Check that Laplacian g-inverse contractions rebuild tree distances.

    On a tree with SPD weights, ``H_ii + H_jj - H_ij - H_ji`` of any
    generalized inverse H of the Laplacian equals distance block (i, j).
    H is the Laplacian grounded at the root ``seed`` draws, inverted in
    closed form (see :meth:`_Analysis.g_inverse`).  Tolerance is
    ``_GINVERSE_REL_TOL`` times the distance-matrix norm.
    """
    root = _seeded_root(g.n, seed)   # the seed is refused first
    a = _analysis(g)
    require_tree(g)
    a.require_spd()
    dist = a.distance
    dev = pair_contractions(block_planes(a.g_inverse(root), g.s))
    dev -= block_planes(dist, g.s)
    worst = largest_pair_norm(dev)
    tol = _GINVERSE_REL_TOL * float(frobenius_norms(dist[None])[0])
    return _report("ginverse_recovery", worst, tol, g,
                   f"g-inverse grounded at root {root}, seed {seed}")


def inertia_check(g: MatrixWeightedGraph) -> Inertia:
    """Eigenvalue sign counts of the distance matrix of an SPD-weighted tree,
    at :func:`~mwtrees.linalg.inertia_of`'s cutoff for zero.

    For n >= 2 the expected value is (s, (n-1) s, 0): block size many
    positive eigenvalues, all the rest negative, none zero.  A single
    vertex has the s x s zero block as D.
    """
    a = _analysis(g)
    require_tree(g)
    a.require_spd()
    return inertia_of(a.distance_eigenvalues)


class InterlacingReport(NamedTuple):
    """Eigenvalue interlacing data for an SPD-weighted tree.

    ``mu`` and ``lam`` are the descending spectra of the distance matrix and
    the inverse-weighted Laplacian.  Row i of ``triples`` is
    ``(mu[s+i], -2/lam[i], mu[i])`` (0-based), which must be nondecreasing
    up to ``slack``; ``worst_violation`` is the largest overshoot found.
    """

    mu: np.ndarray
    lam: np.ndarray
    triples: np.ndarray
    slack: float
    worst_violation: float
    passed: bool
    n: int
    s: int


def interlacing_check(g: MatrixWeightedGraph) -> InterlacingReport:
    """Check that -2 over each nonzero Laplacian eigenvalue sits between the
    matching pair of distance-matrix eigenvalues.

    With both spectra sorted descending and k = (n-1) s, the chain is
    ``mu[s+i] <= -2/lam[i] <= mu[i]`` for i = 0..k-1.  Slack is
    ``_INTERLACING_SLACK`` times the largest eigenvalue magnitude present.
    mu and lam come from one ``eigvalsh`` each, of D and of the symmetric
    part of L (:attr:`_Analysis.laplacian_eigenvalues`), kept on the
    analysis.
    """
    a = _analysis(g)
    require_tree(g)
    a.require_spd()
    n, s = g.n, g.s
    mu = a.distance_eigenvalues
    lam = a.laplacian_eigenvalues
    k = (n - 1) * s
    lower = mu[s : s + k]
    upper = mu[:k]
    mid = -2.0 / lam[:k]
    triples = np.column_stack([lower, mid, upper])
    scale = max(float(np.max(np.abs(mu))), float(np.max(np.abs(lam))))
    slack = _INTERLACING_SLACK * scale
    overshoot = np.maximum(lower - mid, mid - upper)
    worst = float(np.max(overshoot, initial=0.0))
    return InterlacingReport(mu, lam, triples, slack, worst, worst <= slack, n, s)


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
    so it is the witness of an earlier :func:`verification_suite`.
    """
    return _analysis(g).deficient_weighting


class RankProbe(NamedTuple):
    """Outcome of :func:`rank_characterization_probe`.

    On a tree (branch "tree"), ``observed_ranks`` holds the Laplacian rank
    for the given weights and each random nonsingular reweighting; all must
    equal ``full_rank`` = (n-1) s.  On a non-tree (branch "witness"),
    ``observed_ranks`` holds the single scalar-Laplacian rank under the
    deficient weighting, which must be below ``full_rank`` = n - 1.  Every
    rank is the count of singular values above ``rel_tol`` times the
    largest that an SVD gives, whether it was certified or computed.
    """

    branch: str
    full_rank: int
    observed_ranks: tuple[int, ...]
    witness: DeficientWeighting | None
    passed: bool


def _reweightings(seed, trials: int, m: int,
                  s: int) -> tuple[np.ndarray, np.ndarray]:
    """The rank probe's ``trials`` reweightings of an m-edge tree with
    blocks of order s: the read-only ``(trials, m, s, s)`` stacks of the
    draws ``W = U diag(sigma) V^T`` and of their blocks ``V diag(1 / sigma)
    U^T``, drawn from ``default_rng(seed)`` as
    :func:`rank_characterization_probe` describes.

    They depend on nothing else, so for an integer seed the probe reads
    them from ``_memo_reweightings``, which keeps the last four keys
    ``(seed, trials, m, s)``: at most ``2 trials m s^2 8`` bytes each.
    Any other seed (None, or a generator, bit generator or seed sequence
    of ``numpy.random``) is fresh or stateful, so it draws on every call.
    """
    rng = np.random.default_rng(seed)
    shape = (trials, m, s, s)
    u = np.linalg.qr(rng.standard_normal(shape))[0]
    v = np.linalg.qr(rng.standard_normal(shape))[0]
    half = 0.5 * math.log(_PROBE_CONDITION_CAP)
    sigma = np.exp(rng.uniform(-half, half, size=shape[:-1]))[..., None, :]
    draws = (u * sigma) @ v.swapaxes(-1, -2)
    blocks = (v / sigma) @ u.swapaxes(-1, -2)
    draws.flags.writeable = blocks.flags.writeable = False
    return draws, blocks


# four keys: the benchmark's `trees` workload probes three shapes
_memo_reweightings = lru_cache(maxsize=4)(_reweightings)


def rank_characterization_probe(
    g: MatrixWeightedGraph,
    trials: int = 5,
    seed: int = 0,
    rel_tol: float = DEFAULT_RANK_TOL,
) -> RankProbe:
    """Probe the rank dichotomy between trees and graphs with cycles.

    Trees keep full Laplacian rank (n-1) s under every nonsingular
    weighting, so the probe reweights a tree ``trials`` times with random
    nonsingular matrices and checks each rank (ValueError for ``trials <
    0``).  A connected non-tree always admits a scalar weighting with
    deficient rank, which the probe exhibits.

    Reweighting t gives edge k the draw ``W = U diag(sigma) V^T`` and the
    Laplacian block ``V diag(1 / sigma) U^T = W^-1``: from
    ``default_rng(seed)``, U and V are the Q factors of two ``(trials, m,
    s, s)`` standard normal stacks, drawn in that order, and sigma is
    log-uniform on ``[cap^-1/2, cap^1/2]``, cap =
    ``_PROBE_CONDITION_CAP``, as :func:`~mwtrees.generators.random_spd`
    draws its spectrum.  So every draw is nonsingular with cond(W) <= cap
    by construction, and none is rejected, decomposed or inverted.  For
    an integer seed the draws of recent ``(seed, trials, m, s)`` are kept
    (:func:`_reweightings`), so a probe of another tree of that shape
    draws nothing.

    The ranks are the SVD ranks at ``rel_tol``.  One :func:`_certifies`
    call on the :func:`_tree_bounds` of the stack of L and its reweightings
    certifies them without an SVD where it can, as at the default
    tolerance; each member it leaves undecided is assembled and ranked on
    its own (NonFiniteError if that Laplacian overflows).  The first, that
    of L, reads the inverse weights L was built from.
    """
    _require_trials(trials)
    _require_seed(seed)
    _require_rel_tol(rel_tol)
    a = _analysis(g)
    if a.tree:
        full = (g.n - 1) * g.s
        if isinstance(seed, (int, np.integer)):
            draws, inverses = _memo_reweightings(int(seed), int(trials),
                                                 g.m, g.s)
        else:
            draws, inverses = _reweightings(seed, trials, g.m, g.s)
        weights = np.concatenate([g.weights[None], draws])
        blocks = np.concatenate([a.weight_inverses[None], inverses])
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            bounds = _tree_bounds(g, a.layout, weights, blocks)
            ok = _certifies(g, bounds, rel_tol)
        ranks = [full if certified else numerical_rank(_finite(
            lambda: block_laplacian(g, b), "the Laplacian",
            "sums of the inverse weights overflow"), rel_tol)
            for certified, b in zip(ok, blocks)]
        return RankProbe(
            branch="tree",
            full_rank=full,
            observed_ranks=tuple(ranks),
            witness=None,
            passed=all(r == full for r in ranks),
        )
    witness = a.deficient_weighting
    lap = reweighted_scalar_laplacian(g, witness.edge_index, witness.w)
    rank = numerical_rank(lap, rel_tol)
    return RankProbe(
        branch="witness",
        full_rank=g.n - 1,
        observed_ranks=(rank,),
        witness=witness,
        passed=rank < g.n - 1,
    )


def _certifies(g: MatrixWeightedGraph, bounds, rel_tol: float) -> np.ndarray:
    """Which of the Laplacians of the tree g that :func:`_tree_bounds`
    bounded have SVD rank (n - 1) s at ``rel_tol``, certified: a mask,
    False where the SVD must decide.

    With N = n s, the bounds give ``sigma_{N-s}(L)`` from below and
    ``sigma_{N-s+1}(L)`` from above.  When the first clears ``rel_tol
    sigma_1`` and the second stays below it, both by
    ``_CERTIFICATE_SAFETY N eps sigma_1``, which covers the rounding of the
    bounds and LAPACK's error in the singular values, the SVD would count
    (n - 1) s.  The bounds and their rounding are derived in the README
    (Performance, the rank probe).  Path sums that overflow give inf or NaN
    bounds: the SVD decides.  One vertex has no K and a zero L, so
    every bound is 0 and the rank certified is 0, the SVD's.
    """
    n, s = g.n, g.s
    top, norm_k, norm_g, residual, null, frobenius = bounds
    slack = _CERTIFICATE_SAFETY * n * s * np.finfo(float).eps
    lowest = (1.0 - (residual + slack * norm_k * norm_g)) / norm_g
    return ((lowest - slack * top > rel_tol * (1.0 + slack) * top)
            & (null / math.sqrt(n) + slack * top
               <= rel_tol * (1.0 - slack) * frobenius / math.sqrt(n * s)))


def _inertia_record(g: MatrixWeightedGraph) -> VerificationReport:
    if g.n < 2:   # one vertex: D is the s x s zero block
        return _skipped("inertia", "needs n >= 2", g)
    found = tuple(inertia_check(g))
    expected = (g.s, (g.n - 1) * g.s, 0)
    mismatch = sum(abs(x - y) for x, y in zip(found, expected))
    return _report("inertia", float(mismatch), 0.0, g,
                   f"(pos, neg, zero) = {found}, expected {expected}")


def _interlacing_record(g: MatrixWeightedGraph) -> VerificationReport:
    inter = interlacing_check(g)
    return _report("interlacing", inter.worst_violation, inter.slack, g,
                   f"{inter.triples.shape[0]} eigenvalue triples")


def _rank_record(g: MatrixWeightedGraph, trials: int,
                 seed: int) -> VerificationReport:
    probe = rank_characterization_probe(g, trials, seed)
    ranks, full = probe.observed_ranks, probe.full_rank
    if probe.branch == "tree":
        return _report("rank_characterization",
                       float(max(abs(r - full) for r in ranks)), 0.0, g,
                       f"tree branch: ranks {ranks} vs full rank {full}")
    w = probe.witness
    return _report("rank_characterization", float(ranks[0]), float(full - 1),
                   g, f"witness branch: weight {w.w:g} on edge {w.endpoints} "
                   f"gives rank {ranks[0]} < {full}")


def verification_suite(
    g: MatrixWeightedGraph,
    suite: str = "all",
    *,
    seed: int = 0,
    trials: int = 5,
    rel_tol: float = 1e-8,
) -> list[VerificationReport]:
    """Run the named check suite and return one report per check.

    The suite is a table of checks, each with its family, the names of the
    records it returns and its runner.  A runner that raises a package
    error (MWTreesError) has found a hypothesis the graph does not satisfy
    (not a tree, weights not SPD or singular, distance matrix not
    invertible, a matrix it reads overflows, ...): its records are SKIPPED
    with the error's message as the reason, so a suite run always has the
    same shape for a given suite name.  Any other exception propagates.
    Runners work under ``np.errstate(all="ignore")``: a residual or a
    tolerance that overflowed is a FAIL record, not a numpy warning.
    ``seed`` draws the identity probes, the roots of the g-inverses
    (``seed`` and ``seed + 1`` for invariance, ``seed + 2`` for recovery)
    and seeds the rank probe.  Every argument is checked before the first
    runner.
    """
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}, expected one of {SUITES}")
    _require_seed(seed)
    _require_trials(trials)
    _require_rel_tol(rel_tol)
    checks = (
        ("identities", IDENTITY_NAMES,
         lambda: verify_identities(g, rel_tol, seed)),
        ("ginverse", ("ginverse_invariance",),
         lambda: [ginverse_invariance_check(g, seed)]),
        ("ginverse", ("ginverse_recovery",),
         lambda: [ginverse_distance_recovery(g, seed + 2)]),
        ("spectrum", ("inertia",), lambda: [_inertia_record(g)]),
        ("spectrum", ("interlacing",), lambda: [_interlacing_record(g)]),
        ("rank", ("rank_characterization",),
         lambda: [_rank_record(g, trials, seed)]),
    )
    reports: list[VerificationReport] = []
    for family, names, run in checks:
        if suite in (family, "all"):
            try:   # quietly: _report FAILs a residual that overflowed
                with np.errstate(all="ignore"):
                    reports += run()
            except MWTreesError as exc:
                reports += [_skipped(name, str(exc), g) for name in names]
    return reports
