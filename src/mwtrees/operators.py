"""Stateless kernels that assemble the arrays of a matrix-weighted graph's
block operators, for a graph the caller has already checked.

They build the tree distance matrix D, the block Laplacian L of any stack
of edge blocks, the scaled incidence matrix Q (L = Q Q^T for SPD weights)
and the grounded inverses of L from the preorder :class:`TreeLayout` of
a spanning tree: in closed form on a tree, and with a correction of low
rank for the edges off it on other graphs.  Nothing here is cached: the
public builders, which serve each graph's arrays from its analysis, are
in :mod:`mwtrees.closedforms`.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import SingularMatrixError, SingularWeightError
from .graphs import MatrixWeightedGraph, _depth_first
from .linalg import inverses, spd_whiten


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
    for lo, hi, e in zip(layout.lo.tolist(), layout.hi.tolist(), g.edges):
        blocks[lo:hi, :lo] += e.weight
        blocks[hi:, lo:hi] += e.weight
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
    terms = sides.T[:, None, :, None] * weights[:, :, None, :]
    return (sides @ terms.reshape(m, s * n * s)).reshape(n * s, n * s)


def cycle_g_inverse_data(g: MatrixWeightedGraph, layout: TreeLayout,
                         root: int) -> np.ndarray:
    """G_root, as :func:`tree_g_inverse_data` defines it, for a connected
    graph with SPD weights already checked; ``layout`` is its
    :func:`_subtree_runs`.  By Woodbury, ``G_r = G_T - Y^T Y``: G_T is the
    closed form on the spanning tree, ``Y = C^-1 U^T G_T`` with U the
    incidence blocks of the k edges off the tree, and C the Cholesky
    factor of the capacitance ``S = blockdiag(W_e) + U^T G_T U`` (see the
    README).  ``Y^T Y`` is a ``syrk``, so G_r is exactly symmetric and
    keeps exact zeros in the root's block row and column.  The weights
    are taken as ``(W + W^T) / 2``; none is inverted, and no (n s)-order
    matrix is factored.  SingularMatrixError when S is not positive
    definite to working precision; an S beyond float range gives a G_r
    of inf.
    """
    n, s = g.n, g.s
    weights = weight_stack(g)
    weights = 0.5 * (weights + weights.transpose(0, 2, 1))
    data = tree_g_inverse_data(layout, weights[layout.edges], root)
    off = [g.edges[k] for k in layout.off]
    u = np.array([e.u - 1 for e in off], dtype=int)
    v = np.array([e.v - 1 for e in off], dtype=int)
    k = len(off)
    rows = data.reshape(n, s, n * s)
    across = (rows[u] - rows[v]).reshape(k * s, n, s)   # U^T G_T
    capacitance = (across[:, u] - across[:, v]).reshape(k, s, k, s)
    capacitance[range(k), :, range(k), :] += weights[layout.off]
    if not np.isfinite(capacitance).all():   # so would G_r be
        return np.full_like(data, np.inf)
    y = spd_whiten(capacitance.reshape(k * s, k * s),
                   across.reshape(k * s, n * s))
    data -= y.T @ y
    return data


class TreeLayout:
    """A spanning tree laid out in depth-first preorder from vertex 1, where
    the vertices below every tree edge are one contiguous run of positions.

    ``edges`` are the indices of the tree's edges in ascending order, and
    ``off`` those of the graph's other edges (none on a tree).
    ``at[i - 1]`` is the position of vertex i; tree edge ``edges[k]`` joins
    the position ``up[k]`` to its child at ``lo[k]``, and the positions
    below it are ``lo[k] .. hi[k] - 1``.  :attr:`below` and :attr:`size`
    are built on first use.
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

    @cached_property
    def size(self) -> np.ndarray:
        """The number of positions in the subtree of each position."""
        size = np.full(len(self.at), float(len(self.at)))
        size[self.lo] = self.hi - self.lo
        return size


def _subtree_runs(g: MatrixWeightedGraph) -> TreeLayout:
    """The :class:`TreeLayout` of the depth-first spanning tree of a
    connected graph already checked: on a tree, of the tree itself."""
    order, via = _depth_first(g, 1)
    pos = [0] * (g.n + 1)
    for p, x in enumerate(order):
        pos[x] = p
    parent = [0] * (g.n + 1)
    child = [0] * g.m   # endpoint of tree edge k farther from vertex 1
    for x in order[1:]:
        e = g.edges[via[x]]
        parent[x], child[via[x]] = e.u + e.v - x, x
    size = [1] * (g.n + 1)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    kids = [c for c in child if c]   # 0 for an edge off the tree
    lo = np.array([pos[c] for c in kids], dtype=int)
    return TreeLayout(np.array(pos[1:]), lo,
                      lo + np.array([size[c] for c in kids], dtype=int),
                      np.array([pos[parent[c]] for c in kids], dtype=int),
                      np.flatnonzero(child), np.flatnonzero(np.equal(child, 0)))


def weight_stack(g: MatrixWeightedGraph) -> np.ndarray:
    """The edge weights as one (m, s, s) array, in edge order."""
    return np.array([e.weight for e in g.edges]).reshape(g.m, g.s, g.s)


def inverse_weights(g: MatrixWeightedGraph, weights: np.ndarray) -> np.ndarray:
    """Inverses of ``weights``, a (t m, s, s) stack of t sets of weights
    for the edges of ``g``, from one batched rank test and inversion.

    The first singular weight raises SingularWeightError naming its edge.
    One batched call per graph in place of one call per edge took the
    traced benchmark's ``operators.laplacian_s`` from 3.5 to 0.8 ms on an
    SPD path (n=72, s=2) and from 5.1 to 1.5 ms on a Pruefer tree (n=64,
    s=4), on a 2-vCPU VM, with the same bits.
    """
    try:
        return inverses(weights)
    except SingularMatrixError as exc:
        k = exc.index % g.m
        e = g.edges[k]
        raise SingularWeightError(
            f"edge {k} ({e.u}, {e.v}) has a singular weight",
            edge_index=k,
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
    u = np.array([e.u - 1 for e in g.edges], dtype=int)
    v = np.array([e.v - 1 for e in g.edges], dtype=int)
    data = np.zeros((n, s, n, s))   # [i, :, j, :]: block (i, j)
    data[u, :, v, :] = 0.0 - blocks
    data[v, :, u, :] = 0.0 - blocks
    ends = np.stack([u, v], axis=1).ravel()   # u0, v0, u1, v1, ...
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
    data[[e.u - 1 for e in g.edges], :, k, :] = roots
    data[[e.v - 1 for e in g.edges], :, k, :] = -roots
    return data.reshape(n * s, g.m * s)
