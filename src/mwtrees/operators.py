"""Block matrices attached to a matrix-weighted graph.

Three operators: the tree distance matrix D, the block Laplacian L (raw or
inverse-weighted), and the scaled incidence matrix Q with L = Q Q^T for SPD
weights.  All are returned as :class:`~mwtrees.linalg.BlockMatrix` with the
graph's block size.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from .errors import NotSPDError, SingularMatrixError, SingularWeightError
from .graphs import (
    MatrixWeightedGraph,
    adjacency,
    check_structure,
    require_tree,
)
from .linalg import BlockMatrix, inverse, is_spd, spd_inverse_sqrt


class LaplacianMode(Enum):
    """Which matrix sits in the off-diagonal Laplacian blocks."""

    RAW = "raw"          # blocks use the edge weights themselves
    INVERTED = "inverted"  # blocks use the inverses of the edge weights


def distance_matrix(g: MatrixWeightedGraph) -> BlockMatrix:
    """Block distance matrix of a matrix-weighted tree.

    Block (i, j) is the sum of the weights on the unique i-to-j path, taken
    in ascending edge-index order; diagonal blocks are zero.  Blocks (i, j)
    and (j, i) are the same matrix, so the full array is symmetric exactly
    when every path sum is.  See :func:`tree_distance_data` for how it is
    built and why it matches ``distance_oracle`` bit for bit.
    """
    check_structure(g)
    require_tree(g)
    return BlockMatrix(tree_distance_data(g), g.s)


def tree_distance_data(g: MatrixWeightedGraph) -> np.ndarray:
    """The array of :func:`distance_matrix`, for a tree already checked.

    Built by cut accumulation: removing edge k splits the tree in two, and
    W_k lies on the path of exactly the vertex pairs it separates.  Edges
    are taken in ascending index order and W_k is added to every separated
    block pair, so each block starts at zero and receives its path weights
    in ascending edge order: the same float additions, in the same order,
    as the pairwise definition, hence the same bits.  Vertices are laid out
    in depth-first preorder from vertex 1, where every subtree is one
    contiguous run, so each cut is four slice additions.
    """
    n, s = g.n, g.s
    adj = adjacency(g)
    order: list[int] = []
    parent = [0] * (n + 1)
    child = [0] * g.m          # endpoint of edge k farther from vertex 1
    seen = [False] * (n + 1)
    seen[1] = True
    stack = [1]
    while stack:
        x = stack.pop()
        order.append(x)
        for y, k in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                child[k] = y
                stack.append(y)
    pos = [0] * (n + 1)
    for p, x in enumerate(order):
        pos[x] = p
    size = [1] * (n + 1)
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]

    blocks = np.zeros((n, n, s, s))   # [p, q]: block of preorder p and q
    for k, e in enumerate(g.edges):
        lo = pos[child[k]]
        hi = lo + size[child[k]]
        blocks[lo:hi, :lo] += e.weight
        blocks[lo:hi, hi:] += e.weight
        blocks[:lo, lo:hi] += e.weight
        blocks[hi:, lo:hi] += e.weight
    at = pos[1:]
    blocks = blocks[np.ix_(at, at)]   # back to vertex order
    return blocks.transpose(0, 2, 1, 3).reshape(n * s, n * s)


def laplacian(
    g: MatrixWeightedGraph, mode: LaplacianMode = LaplacianMode.INVERTED
) -> BlockMatrix:
    """Block Laplacian of a matrix-weighted graph.

    Off-diagonal block (i, j) is minus the (possibly inverted) weight of the
    edge {i, j}; diagonal block (i, i) is the sum of those matrices over the
    edges at vertex i, accumulated in ascending edge order.  Block rows and
    columns sum to zero by construction.  In INVERTED mode a singular edge
    weight raises SingularWeightError naming the edge.
    """
    check_structure(g)
    return BlockMatrix(laplacian_data(g, mode), g.s)


def laplacian_data(
    g: MatrixWeightedGraph, mode: LaplacianMode = LaplacianMode.INVERTED
) -> np.ndarray:
    """The array of :func:`laplacian`, for a graph already checked."""
    n, s = g.n, g.s
    data = np.zeros((n * s, n * s))
    for k, e in enumerate(g.edges):
        if mode is LaplacianMode.INVERTED:
            try:
                block = inverse(e.weight)
            except SingularMatrixError:
                raise SingularWeightError(
                    f"edge {k} ({e.u}, {e.v}) has a singular weight",
                    edge_index=k,
                    endpoints=(e.u, e.v),
                ) from None
        else:
            block = e.weight
        iu = (e.u - 1) * s
        iv = (e.v - 1) * s
        data[iu : iu + s, iu : iu + s] += block
        data[iv : iv + s, iv : iv + s] += block
        data[iu : iu + s, iv : iv + s] -= block
        data[iv : iv + s, iu : iu + s] -= block
    return data


def incidence_matrix(g: MatrixWeightedGraph) -> BlockMatrix:
    """Scaled incidence matrix Q of a graph with SPD weights.

    Column block k (one per edge, (n s) x (m s) overall) carries
    ``+inverse_sqrt(W_k)`` at the smaller endpoint and the negated copy at
    the larger one, so that ``Q @ Q.T`` equals the inverse-weighted
    Laplacian and block rows of Q sum to zero.  A non-SPD weight raises
    NotSPDError naming the edge.
    """
    check_structure(g)
    return BlockMatrix(incidence_data(g), g.s)


def incidence_data(g: MatrixWeightedGraph) -> np.ndarray:
    """The array of :func:`incidence_matrix`, for a graph already checked."""
    n, s = g.n, g.s
    data = np.zeros((n * s, g.m * s))
    for k, e in enumerate(g.edges):
        try:
            root = spd_inverse_sqrt(e.weight)
        except NotSPDError as exc:
            raise NotSPDError(
                f"edge {k} ({e.u}, {e.v}): {exc}", edge_index=k
            ) from None
        col = k * s
        data[(e.u - 1) * s : e.u * s, col : col + s] = root
        data[(e.v - 1) * s : e.v * s, col : col + s] = -root
    return data


def weights_are_spd(g: MatrixWeightedGraph) -> bool:
    """True when every edge weight is symmetric positive definite."""
    return all(is_spd(e.weight) for e in g.edges)
