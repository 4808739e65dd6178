"""Small named graphs used by the tests, the docs and the shipped fixtures."""

from __future__ import annotations

import numpy as np

from .graphs import MatrixWeightedGraph


def _assemble(n: int, s: int, topology, weights=None) -> MatrixWeightedGraph:
    """The graph on n vertices with the ``weights``, identity by default,
    on the edges (u, v) of ``topology`` in its order."""
    if weights is None:
        weights = [np.eye(s)] * len(topology)
    return MatrixWeightedGraph(
        n, s, [(u, v, w) for (u, v), w in zip(topology, weights)]
    )


def path_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Path 1 - 2 - ... - n; unit scalar (or identity) weights by default."""
    return _assemble(n, s, [(i, i + 1) for i in range(1, n)], weights)


def star_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Star with center 1 and leaves 2..n; identity weights by default."""
    return _assemble(n, s, [(1, i) for i in range(2, n + 1)], weights)


def cycle_graph(n: int, s: int = 1, weights=None) -> MatrixWeightedGraph:
    """Cycle 1 - 2 - ... - n - 1; identity weights by default."""
    return _assemble(n, s, [(i, i + 1) for i in range(1, n)] + [(1, n)],
                     weights)


def path4_block2() -> MatrixWeightedGraph:
    """Order-4 path with 2x2 weights, the middle one asymmetric.

    Its distance matrix is invertible but not symmetric, which makes it the
    standard exercise for the closed-form inverse: the weights are
    diag(2, 1), [[0, 2], [1, 0]] and diag(1, 2).
    """
    return MatrixWeightedGraph(
        4,
        2,
        [
            (1, 2, [[2.0, 0.0], [0.0, 1.0]]),
            (2, 3, [[0.0, 2.0], [1.0, 0.0]]),
            (3, 4, [[1.0, 0.0], [0.0, 2.0]]),
        ],
    )


def cycle4_block2() -> MatrixWeightedGraph:
    """Order-4 cycle with 2x2 weights alternating identity and a swap.

    The swap matrices are symmetric but indefinite.  The inverse-weighted
    Laplacian of this graph has rank 5, one below the rank 6 that every
    nonsingular weighting of a 4-vertex tree would give, so it is the
    standard witness that cycles can lose rank.
    """
    swap = [[0.0, 1.0], [1.0, 0.0]]
    eye = [[1.0, 0.0], [0.0, 1.0]]
    return MatrixWeightedGraph(
        4,
        2,
        [(1, 2, eye), (2, 3, swap), (3, 4, eye), (1, 4, swap)],
    )


def diamond4() -> MatrixWeightedGraph:
    """Complete graph on 4 vertices minus the edge (2, 4), scalar weights 1.

    The smallest graph where the deficient-weighting search has a unique
    best edge: marking (1, 3) splits the 8 spanning trees evenly (4 with the
    edge, 4 without), so weight -1 there drops the Laplacian rank to 2.
    """
    one = [[1.0]]
    return MatrixWeightedGraph(
        4,
        1,
        [(1, 2, one), (1, 3, one), (1, 4, one), (2, 3, one), (3, 4, one)],
    )
