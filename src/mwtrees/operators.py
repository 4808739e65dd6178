"""Stateless kernels for the block operators of a matrix-weighted graph
the caller has already checked: L of any stack of edge blocks, Q (L = Q
Q^T for SPD weights), and the grounded inverses G_r of L by Cholesky or,
from the preorder :class:`TreeLayout` of a spanning tree, in closed form
on a tree and with a correction of low rank for the edges off it.  The
layout, which no other module reads but for its ``off`` edges, also gives
D and the rank certificate's bounds.  Nothing here is cached or chosen:
:mod:`mwtrees.closedforms` keeps each graph's arrays, picks the G_r route
and decides the rank that the bounds certify.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import SingularMatrixError, SingularWeightError
from .graphs import MatrixWeightedGraph, depth_first_tree
from .linalg import inverse_cholesky, inverses


def tree_distance_data(g: MatrixWeightedGraph, layout: TreeLayout) -> np.ndarray:
    """The array of the distance matrix D of a tree already checked;
    ``layout`` is its :func:`_subtree_runs`.

    Built by cut accumulation: removing edge k splits the tree in two, and
    W_k lies on the path of exactly the vertex pairs it separates.  Edges
    are taken in ascending index order and W_k is added to every separated
    block pair, so each block starts at zero and receives its path weights
    in ascending edge order: the same float additions, in the same order,
    as the pairwise definition, hence the same bits.  Vertices are laid out
    in the preorder of the layout, so each cut is two slice additions to
    the blocks below the diagonal; adding the zero blocks above it to
    their mirrors copies them there, bit for bit.
    """
    n, s = g.n, g.s
    blocks = np.zeros((n, n, s, s))   # [p, q]: block of preorder p > q
    for lo, hi, w in zip(layout.lo.tolist(), layout.hi.tolist(), g.weights):
        blocks[lo:hi, :lo] += w
        blocks[hi:, lo:hi] += w
    blocks += blocks.transpose(1, 0, 2, 3)
    blocks = blocks[np.ix_(layout.at, layout.at)]   # back to vertex order
    return blocks.transpose(0, 2, 1, 3).reshape(n * s, n * s)


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
    :func:`_subtree_runs`.  By Woodbury, ``G_r = G_T -
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
    """G_root = Y^T Y, Y the :func:`~mwtrees.linalg.inverse_cholesky` of
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
    I_s)||`` and ``||L||_F`` for :func:`~mwtrees.closedforms._certifies`,
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


class TreeLayout:
    """A spanning tree laid out in depth-first preorder from vertex 1, where
    the vertices below every tree edge are one contiguous run of positions.

    ``edges`` are the indices of the tree's edges in ascending order, and
    ``off`` those of the graph's other edges (none on a tree).
    ``at[i - 1]`` is the position of vertex i; tree edge ``edges[k]`` joins
    the position ``up[k]`` to its child at ``lo[k]``, and the positions
    below it are ``lo[k] .. hi[k] - 1``.  :attr:`below` is built on first
    use.
    """

    def __init__(self, at: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                 up: np.ndarray, edges: np.ndarray, off: np.ndarray):
        self.at, self.lo, self.hi, self.up = at, lo, hi, up
        self.edges, self.off = edges, off

    @cached_property
    def below(self) -> np.ndarray:
        """The (n, n - 1) matrix with 1 at [p, k] for the positions p below
        tree edge k and 0 elsewhere."""
        pos = np.arange(len(self.at))[:, None]
        return ((self.lo <= pos) & (pos < self.hi)).astype(float)


def _subtree_runs(g: MatrixWeightedGraph) -> TreeLayout:
    """The :class:`TreeLayout` of the depth-first spanning tree that
    :func:`~mwtrees.graphs.depth_first_tree` keeps for a connected graph
    already checked: on a tree, of the tree itself."""
    order, via = depth_first_tree(g)
    kids = np.array(order[1:], dtype=int)   # the vertices but 1, in preorder
    tree = np.array(via)[kids]   # the edge each one was reached by
    parent = g.ends[tree].sum(axis=1) - kids
    size = [1] * (g.n + 1)
    for x, up in zip(kids[::-1].tolist(), parent[::-1].tolist()):
        size[up] += size[x]
    at = np.zeros(g.n + 1, dtype=int)   # [x]: the position of vertex x
    at[order] = np.arange(g.n)
    by_edge = np.argsort(tree)
    kids, parent = kids[by_edge], parent[by_edge]
    return TreeLayout(at[1:], at[kids], at[kids] + np.array(size)[kids],
                      at[parent], tree[by_edge],
                      np.delete(np.arange(g.m), tree))


def inverse_weights(g: MatrixWeightedGraph) -> np.ndarray:
    """Inverses of the weights of ``g``, from one batched rank test and
    inversion; the first singular weight raises SingularWeightError naming
    its edge."""
    try:
        return inverses(g.weights)
    except SingularMatrixError as exc:
        e = g.edges[exc.index]
        raise SingularWeightError(
            f"edge {exc.index} ({e.u}, {e.v}) has a singular weight",
            edge_index=exc.index,
            endpoints=(e.u, e.v),
        ) from None


def block_laplacian(g: MatrixWeightedGraph, blocks: np.ndarray) -> np.ndarray:
    """Block Laplacian of the topology of ``g`` with the square ``blocks[k]``
    on edge k; the block size is that of ``blocks``.

    Off-diagonal block (u, v) is ``0 - blocks[k]`` for the edge k = {u, v}.
    Diagonal block (i, i) starts at zero and adds the blocks of the edges at
    i in ascending edge order (``np.add.at`` applies repeated indices in
    order), so every block gets the float operations, in the order, of
    adding one edge at a time.
    """
    n, s = g.n, blocks.shape[-1]
    u, v = (g.ends - 1).T
    data = np.zeros((n, s, n, s))   # [i, :, j, :]: block (i, j)
    data[u, :, v, :] = 0.0 - blocks
    data[v, :, u, :] = 0.0 - blocks
    ends = (g.ends - 1).ravel()   # u0, v0, u1, v1, ...
    np.add.at(data, (ends, slice(None), ends, slice(None)),
              np.repeat(blocks, 2, axis=0))
    return data.reshape(n * s, n * s)


def block_incidence(g: MatrixWeightedGraph, roots: np.ndarray) -> np.ndarray:
    """The incidence array of ``g``, (n s) x (m s), with ``roots[k]`` at the
    smaller endpoint of edge k and ``-roots[k]`` at the larger one: with
    the inverse square roots of the weights, Q."""
    n, s = g.n, roots.shape[-1]
    data = np.zeros((n, s, g.m, s))   # [i, :, k, :]: block (i, k)
    k = np.arange(g.m)
    data[g.ends[:, 0] - 1, :, k, :] = roots
    data[g.ends[:, 1] - 1, :, k, :] = -roots
    return data.reshape(n * s, g.m * s)
