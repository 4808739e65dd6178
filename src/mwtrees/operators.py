"""Stateless kernels that assemble the block operators of a
matrix-weighted graph the caller has already checked: D of a tree, from
the preorder :class:`TreeLayout` of its edges, L of any stack of edge
blocks and Q (L = Q Q^T for SPD weights).  Nothing here is cached or
chosen: :mod:`mwtrees.closedforms` keeps each graph's arrays.  The kernels
that only the checks call, the three routes to the grounded inverses G_r
of L and the rank certificate's bounds, are in :mod:`mwtrees.checks`; they
read the layout of a spanning tree too.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import SingularMatrixError, SingularWeightError
from .graphs import MatrixWeightedGraph, depth_first_tree
from .linalg import inverses


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


class TreeLayout:
    """A spanning tree laid out in depth-first preorder from vertex 1, where
    the vertices below every tree edge are one contiguous run of positions.

    ``edges`` are the indices of the tree's edges in ascending order, and
    ``off`` those of the graph's other edges (none on a tree).
    ``at[i - 1]`` is the position of vertex i; tree edge ``edges[k]`` joins
    the position ``up[k]`` to its child at ``lo[k]``, and the positions
    below it are ``lo[k] .. hi[k] - 1``.  :attr:`below`, which only the
    kernels of :mod:`mwtrees.checks` read, is built on first use.
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
