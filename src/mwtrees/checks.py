"""The check families, loaded on first use: the identity, g-inverse,
inertia, interlacing and rank-probe checks, :func:`verification_suite`,
which runs them as records, and the kernels only they call.

Only ``verify`` runs them: :mod:`mwtrees.closedforms` never imports this
module, the package serves its public names on first use and the CLI
imports it inside ``verify``.  Every check reads the
:class:`~mwtrees.closedforms._Analysis` of its graph, which the closed
forms share.  :func:`g_inverse` takes one of three routes to G_r
(:func:`_few_cycles`), and the rank probe certifies a tree's ranks from
:func:`_tree_bounds` where it can (:func:`_certifies`).  The README's
Architecture section shows the whole.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .closedforms import (
    SUITES,
    DeficientWeighting,
    VerificationReport,
    _Analysis,
    _analysis,
    _finite,
    _report,
    _require_invertible,
    _require_seed,
    _seeded_rng,
    _skipped,
    witness_rank,
)
from .errors import MWTreesError, NotConnectedError, SingularMatrixError
from .graphs import (
    MatrixWeightedGraph,
    delta_vector,
    is_connected,
    require_tree,
)
from .linalg import (
    _CERTIFICATE_SAFETY,
    DEFAULT_RANK_TOL,
    Inertia,
    _binade_scaled,
    _require_rel_tol,
    _require_square,
    as_matrix,
    frobenius_norms,
    inertia_of,
    numerical_rank,
)
from .operators import TreeLayout, block_incidence, block_laplacian

#: Record names emitted by :func:`verify_identities`, in order.
IDENTITY_NAMES = ("ld", "dl", "ldl", "dinv_minus_l", "qdq")

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


def block_planes(data: np.ndarray, s: int,
                 out: np.ndarray | None = None) -> np.ndarray:
    """The (s, s, n, n) planes of a square array of s x s blocks: ``[a, b,
    i, j]`` is entry (a, b) of block (i, j), 0-based.  Contiguous, and a
    view of ``data``, no copy, when s = 1; copied into ``out`` when it is
    given, a slot of a caller's work array, and ``out`` returned."""
    n = data.shape[0] // s
    planes = data.reshape(n, s, n, s).transpose(1, 3, 0, 2)
    if out is None:
        return np.ascontiguousarray(planes)
    np.copyto(out, planes)
    return out


def pair_contractions(planes: np.ndarray,
                      out: np.ndarray | None = None) -> np.ndarray:
    """The contraction ``B_ii + B_jj - B_ij - B_ji`` of every block pair
    (i, j) of an array given as planes (:func:`block_planes`), as planes,
    added up in that order, with every loop n long.  Written into ``out``
    when it is given, a slot of a caller's work array that shares no
    memory with ``planes``, and ``out`` returned; a fresh array
    otherwise."""
    d = np.diagonal(planes, axis1=2, axis2=3)
    out = np.add(d[..., :, None], d[..., None, :], out=out)
    out -= planes
    out -= planes.swapaxes(2, 3)
    return out


def largest_pair_norm(planes: np.ndarray) -> float:
    """The largest :func:`~mwtrees.linalg.frobenius_norms` of the blocks
    (i, j), i < j, of an array given as planes, 0.0 with no pair: that of
    the blocks whose sums of squares, after
    :func:`~mwtrees.linalg._binade_scaled`, are within 2^-24 of the
    largest, far above their s^2 eps rounding, so the same bits as that of
    every block; of every block when that largest sum is inf, NaN or below
    2^-1000, where squares that underflow could reorder the blocks."""
    s, _, n, _ = planes.shape
    scaled = _binade_scaled(planes.reshape(1, -1))[0].reshape(s * s, n, n)
    sums = np.triu(np.einsum("kij,kij->ij", scaled, scaled), 1)
    top = sums.max(initial=0.0)
    if 2.0 ** -1000 <= top < math.inf:
        i, j = np.nonzero(sums >= (1.0 - 2.0 ** -24) * top)
    else:
        i, j = np.triu_indices(n, 1)
    blocks = planes.transpose(2, 3, 0, 1)[i, j]
    return float(frobenius_norms(blocks).max(initial=0.0))


def inverse_cholesky(a) -> np.ndarray:
    """Y = C^-1, by :func:`_lower_inverse`, for the Cholesky factor C of
    the lower triangle of a symmetric positive definite ``a``.  ``Y.T @
    Y`` is then a^-1 as LAPACK's ``xPOTRI`` forms it, in about half the
    flops of an LU inverse, and ``Y @ b`` whitens b: ``(Y b)^T (Y b)`` is
    ``b^T a^-1 b``.  numpy computes such products as a ``syrk``, so they
    are exactly symmetric.  The upper triangle is not read, and no rank
    test is made: a pivot that is not positive, or that is within the
    factorization's rounding of zero, raises SingularMatrixError.
    """
    m = as_matrix(a)
    _require_square(m)
    try:
        factor = np.linalg.cholesky(m)
        # the factor's backward error moves a_jj by up to about N eps a_jj,
        # so a smaller pivot c_jj^2 could as well be zero
        positive = (np.diagonal(factor) ** 2
                    > len(m) * np.finfo(float).eps * np.diagonal(m)).all()
    except np.linalg.LinAlgError:
        positive = False
    if not positive:
        raise SingularMatrixError("matrix is not positive definite to "
                                  "working precision")
    return _lower_inverse(factor)


#: Order up to which :func:`_lower_inverse` takes numpy's LU inverse.
_TRIANGLE_LEAF = 64


def _lower_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower triangle, by splitting it in two:
    ``[[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]]``, so every
    product is a GEMM; up to order ``_TRIANGLE_LEAF``, the lower triangle
    of ``np.linalg.inv``'s inverse, whose row swaps leave rounding above
    the diagonal."""
    n = len(c)
    if n <= _TRIANGLE_LEAF:
        return np.tril(np.linalg.inv(c))
    k = n // 2
    y = np.zeros_like(c)
    top = y[:k, :k] = _lower_inverse(c[:k, :k])
    bottom = y[k:, k:] = _lower_inverse(c[k:, k:])
    np.negative(bottom @ (c[k:, :k] @ top), out=y[k:, :k])
    return y


def pseudo_inverse(a, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the same rank cutoff as
    :func:`~mwtrees.linalg.numerical_rank`: ``np.linalg.pinv``'s, from one
    SVD."""
    _require_rel_tol(rel_tol)
    return np.linalg.pinv(as_matrix(a), rcond=rel_tol)


def tree_g_inverse_data(layout: TreeLayout, weights: np.ndarray,
                        root: int) -> np.ndarray:
    """G_root, the inverse-weighted Laplacian L of the tree that ``layout``
    lays out, with the nonsingular ``weights`` on its edges in the
    layout's edge order, grounded at vertex ``root`` (its block row and
    column deleted), inverted and padded with zeros, in closed form.

    G_r is ``sum_k t_k t_k^T kron W_k`` over the 0/1 indicator t_k of the
    side of edge k away from r: one product of the (n, n - 1) matrix of
    the t_k with the stack of ``t_k^T kron W_k``, with no factorization and
    no inversion.  Block (i, j) is the path sum of the weights from r to
    where the paths to i and j part, so ``L G_r L = L`` and ``G_r L G_r =
    G_r``.
    """
    m, s, _ = weights.shape
    n = len(layout.at)
    below = layout.below[layout.at]   # [i, k]: vertex i is below edge k
    # flip the edges on the path from vertex 1 to the root
    sides = np.abs(below - below[root - 1])
    if s == 1:   # numpy lays this product out edge first, as the GEMM reads it
        terms = sides.T[:, None, :, None] * weights[:, :, None, :]
    else:   # the same product, [k, a, i, b] = sides[i, k] W_k[a, b], from
        terms = np.empty((m, s, n, s))   # s multiplies of n-long rows
        for b in range(s):
            np.multiply(sides.T[:, None, :], weights[:, :, b, None],
                        out=terms[..., b])
    return (sides @ terms.reshape(m, s * n * s)).reshape(n * s, n * s)


def cycle_g_inverse_data(g: MatrixWeightedGraph, layout: TreeLayout,
                         root: int) -> np.ndarray:
    """G_root, as :func:`tree_g_inverse_data` defines it, for a connected
    graph whose SPD ``g.weights`` are already checked; ``layout`` is its
    :func:`~mwtrees.operators._subtree_runs`.  By Woodbury, ``G_r = G_T -
    Y^T Y``: G_T is the closed form on the spanning tree, ``Y = C^-1 U^T
    G_T`` with U the incidence blocks of the k edges off the tree, and C
    the Cholesky factor of the capacitance ``S = blockdiag(W_e) + U^T G_T
    U`` (see the README).  ``Y^T Y`` is a ``syrk``, so G_r is exactly
    symmetric and keeps exact zeros in the root's block row and column.
    The weights are taken as ``(W + W^T) / 2``; none is inverted, and no
    (n s)-order matrix is factored.  SingularMatrixError when S is not
    positive definite to working precision; an S beyond float range gives
    a G_r of inf.
    """
    n, s = g.n, g.s
    weights = 0.5 * (g.weights + g.weights.transpose(0, 2, 1))
    data = tree_g_inverse_data(layout, weights[layout.edges], root)
    u, v = (g.ends[layout.off] - 1).T
    k = len(u)
    rows = data.reshape(n, s, n * s)
    across = (rows[u] - rows[v]).reshape(k * s, n, s)   # U^T G_T
    capacitance = (across[:, u] - across[:, v]).reshape(k, s, k, s)
    capacitance[range(k), :, range(k), :] += weights[layout.off]
    if not np.isfinite(capacitance).all():   # so would G_r be
        return np.full_like(data, np.inf)
    y = (inverse_cholesky(capacitance.reshape(k * s, k * s))
         @ across.reshape(k * s, n * s))
    data -= y.T @ y
    return data


def cholesky_g_inverse_data(laplacian: np.ndarray, s: int,
                            root: int) -> np.ndarray:
    """G_root = Y^T Y, Y the :func:`inverse_cholesky` of
    the symmetric part of ``laplacian``, blocks of order s, with the root's
    block row and column zeroed and I_s on its diagonal block, zeroed
    again after.  The zeros stay exact through the factorization and the
    products, so no other index is gathered or scattered.  The symmetric
    part, not one triangle: L and L^T differ by the asymmetry of the
    inverse weights, so one triangle's block row sums are that far from
    zero, and cond(L) amplifies it in G_root.  No rank test, which would
    cost more: connected SPD weights make the grounded L SPD."""
    block = slice((root - 1) * s, root * s)
    grounded = 0.5 * (laplacian + laplacian.T)
    grounded[block] = 0.0
    grounded[:, block] = 0.0
    grounded[block, block] = np.eye(s)
    y = inverse_cholesky(grounded)
    data = y.T @ y
    data[block, block] = 0.0
    return data


def _tree_bounds(g: MatrixWeightedGraph, tree: TreeLayout,
                 weights: np.ndarray,
                 blocks: np.ndarray) -> tuple[np.ndarray, ...]:
    """``||L||``, ``||K||``, ``||G||``, ``||K G - I||``, ``||L (1_n kron
    I_s)||`` and ``||L||_F`` for :func:`_certifies`,
    one of each for every member of a ``(t, m, s, s)`` stack of edge
    weights and of the blocks of L = ``block_laplacian(g, blocks[i])``,
    from the layout of the tree g.  Each member's operations are those of
    a stack of one, in the same order, so its bounds have the same bits."""
    n, s, m, t = g.n, g.s, g.m, len(weights)
    below, lo, up = tree.below, tree.lo, tree.up
    size = np.full(n, float(n))   # the positions in each position's subtree
    size[lo] = tree.hi - lo
    ends = np.s_[:, np.stack([lo, up]).T.ravel()]   # as in block_laplacian
    inner = (up > 0)[:, None, None]   # the edges that K keeps
    pairs = np.repeat(blocks, 2, axis=1)
    diag = np.zeros((t, n, s, s))
    np.add.at(diag, ends, pairs)
    null = diag.copy()   # the block row sums of L
    np.subtract.at(null, ends, pairs)
    paths = (below @ weights.reshape(t, m, s * s)).reshape(t, n, s, s)
    steps = blocks @ (paths[:, lo] - paths[:, up])   # C_x
    at = np.zeros((t, n, s, s))   # C_x by the position of x, 0 at the root
    at[:, lo] = steps
    turns = np.where(inner, at[:, up] - steps, 0.0)   # C_p(x) - C_x
    lsum, nsum, psum = map(_abs_sums, (diag, null, paths))
    bsum, rsum, tsum = map(_abs_sums, (blocks, steps - np.eye(s), turns))
    ksum = lsum.copy()
    np.add.at(lsum, ends, np.repeat(bsum, 2, axis=1))
    np.add.at(ksum, ends, np.repeat(bsum * inner, 2, axis=1))
    spread = np.zeros((t, n, s))   # row p of K G - I has |sub(x)| C_p - C_x
    np.add.at(spread, np.s_[:, up], size[lo, None] * tsum[:, :, 0])
    rsum[:, :, 0] += spread[:, lo]
    rsum[:, :, 1] += (below @ tsum[:, :, 1])[:, lo]
    out = (size[up] - size[lo])[:, None, None] * psum[:, up]   # 0 at the root
    gsum = (size[lo, None, None] * psum[:, lo]
            + (below @ out.reshape(t, m, 2 * s)).reshape(t, n, 2, s)[:, lo])
    return (_norm_bound(lsum), _norm_bound(ksum[:, 1:]), _norm_bound(gsum),
            _norm_bound(rsum),
            np.sqrt(nsum[:, :, 0].max((1, 2)) * nsum[:, :, 1].sum(1).max(1)),
            np.sqrt((diag ** 2).sum((1, 2, 3))
                    + 2.0 * (blocks ** 2).sum((1, 2, 3))))


def _abs_sums(x: np.ndarray) -> np.ndarray:
    """The row sums ``[..., 0, :]`` and column sums ``[..., 1, :]`` of |x|."""
    mag = np.abs(x)
    return np.stack([mag.sum(axis=-1), mag.sum(axis=-2)], axis=-2)


def _norm_bound(sums: np.ndarray) -> np.ndarray:
    """``sqrt(||x||_1 ||x||_inf)`` >= the spectral norm of each member x of
    a stack, from the row sums ``[t, i, 0]`` of |x| by block row i and its
    column sums ``[t, i, 1]`` by block column i."""
    return np.sqrt(sums.max(axis=(1, 3), initial=0.0).prod(axis=1))


def g_inverse(a: _Analysis, root: int) -> np.ndarray:
    """G_root of the graph of ``a``: L grounded at ``root`` (its block row
    and column deleted), inverted and padded with zeros, so ``L G_root L =
    L``: on a tree in closed form; where :func:`_few_cycles` holds, by
    :func:`cycle_g_inverse_data` on the analysis's layout; elsewhere by
    :func:`cholesky_g_inverse_data`, which lays out no spanning tree.
    Every route reads L first, so an L beyond float range raises its
    NonFiniteError; a G_root beyond it raises one of its own.
    SingularMatrixError when a factored matrix is not positive definite to
    working precision.  The array is read-only.
    """
    a.laplacian
    return _finite(lambda: _g_inverse_data(a, root),
                   "the grounded inverse of L",
                   "inverting the grounded Laplacian overflows")


def _g_inverse_data(a: _Analysis, root: int) -> np.ndarray:
    g = a.g
    if a.tree:
        return tree_g_inverse_data(a.layout, g.weights, root)
    try:
        if _few_cycles(g.n, g.m, g.s):
            return cycle_g_inverse_data(g, a.layout, root)
        return cholesky_g_inverse_data(a.laplacian, g.s, root)
    except SingularMatrixError:
        raise SingularMatrixError("the grounded Laplacian is not positive "
                                  "definite to working precision") from None


def _few_cycles(n: int, m: int, s: int) -> bool:
    """Whether a connected non-tree with n vertices, m edges and blocks of
    order s takes G_r from the closed form on a spanning tree corrected
    for its k = m - n + 1 other edges: when ``n + k s + 24 <= n s``.  In
    units of (n s)^2 operations the tree's product costs about n, the
    correction k s and the Cholesky inverse n s; the 24, the correction's
    fixed costs, is fitted to timings of both routes (see the README)."""
    return n + (m - n + 1) * s + 24 <= n * s


def _require_trials(trials: int) -> None:
    """TypeError for a trial count that is not an integer, which only the
    tree branch of the rank probe would reach, and ValueError below 0."""
    if not isinstance(trials, (int, np.integer)):
        raise TypeError(f"trials must be an integer, got "
                        f"{type(trials).__name__}")
    if trials < 0:
        raise ValueError(f"trials must be >= 0, got {trials}")


def _seeded_root(n: int, seed: int) -> int:
    """The g-inverse root, from 1 to n, for ``seed``: the first draw of
    numpy's PCG64 stream for ``seed``."""
    return int(_seeded_rng(seed).integers(1, n + 1))


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
    :func:`g_inverse`), the second root moved to the next vertex
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
    first, second = (block_planes(g_inverse(a, r), s,
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
    closed form (see :func:`g_inverse`).  Tolerance is
    ``_GINVERSE_REL_TOL`` times the distance-matrix norm.
    """
    root = _seeded_root(g.n, seed)   # the seed is refused first
    a = _analysis(g)
    require_tree(g)
    a.require_spd()
    dist = a.distance
    dev = pair_contractions(block_planes(g_inverse(a, root), g.s))
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
    part of L (:attr:`~mwtrees.closedforms._Analysis.laplacian_eigenvalues`),
    kept on the analysis.
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
    rank = witness_rank(g, rel_tol)
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
