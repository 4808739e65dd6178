"""Matrix-weighted graphs: representation, validation and tree queries.

A graph lives on vertices 1..n and every edge carries an s x s real weight
matrix.  Construction is lenient (anything shaped like edges is accepted,
endpoints are swapped into u < v); :func:`validate` reports every problem at
once so file loaders can surface complete diagnostics.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import NotATreeError, NotConnectedError, SameVertexError

#: Violation codes produced by :func:`validate`.
BAD_ORDER = "BadOrder"
BAD_BLOCK_SIZE = "BadBlockSize"
VERTEX_OUT_OF_RANGE = "VertexOutOfRange"
SELF_LOOP = "SelfLoop"
BAD_WEIGHT_SHAPE = "BadWeightShape"
NON_FINITE_WEIGHT = "NonFiniteWeight"
DUPLICATE_EDGE = "DuplicateEdge"
NOT_CONNECTED = "NotConnected"


@dataclass(frozen=True)
class Edge:
    """One undirected edge with endpoints u < v and its weight matrix."""

    u: int
    v: int
    weight: np.ndarray


@dataclass(frozen=True)
class Violation:
    """One problem found by :func:`validate`; ``edge_index`` is None for
    graph-level problems."""

    code: str
    message: str
    edge_index: int | None = None

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


@dataclass(frozen=True)
class MatrixWeightedGraph:
    """Undirected graph on vertices 1..n with an s x s weight per edge.

    Edges are stored with u < v (the orientation the incidence matrix signs
    against) in the order given; edge indices used throughout the API are
    0-based positions in ``edges``.  The constructor normalizes but does not
    reject: call :func:`validate` to check an instance.  Weights are copied
    and stored read-only, so a graph cannot change after it is built.
    """

    n: int
    s: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, s: int, edges):
        object.__setattr__(self, "n", int(n))
        object.__setattr__(self, "s", int(s))
        normalized = []
        for e in edges:
            if isinstance(e, Edge):
                u, v, w = e.u, e.v, e.weight
            else:
                u, v, w = e
            u, v = int(u), int(v)
            if u > v:
                u, v = v, u
            # a private read-only copy: the caller's array cannot change the
            # graph afterwards, and nothing can change it through the graph
            weight = np.array(w, dtype=float)
            weight.flags.writeable = False
            normalized.append(Edge(u, v, weight))
        object.__setattr__(self, "edges", tuple(normalized))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)


def validate(g: MatrixWeightedGraph) -> list[Violation]:
    """Every problem with ``g``, or an empty list for a usable instance.

    Checks order, block size, endpoint ranges, self-loops, weight shapes and
    finiteness, duplicate edges, and connectivity (the last only over the
    edges whose endpoints are in range).
    """
    problems: list[Violation] = []
    if g.n < 1:
        problems.append(Violation(BAD_ORDER, f"vertex count must be >= 1, got {g.n}"))
    if g.s < 1:
        problems.append(
            Violation(BAD_BLOCK_SIZE, f"block size must be >= 1, got {g.s}")
        )

    seen: dict[tuple[int, int], int] = {}
    for k, e in enumerate(g.edges):
        in_range = 1 <= e.u <= g.n and 1 <= e.v <= g.n
        if not in_range:
            problems.append(
                Violation(
                    VERTEX_OUT_OF_RANGE,
                    f"edge {k} endpoints ({e.u}, {e.v}) not in 1..{g.n}",
                    k,
                )
            )
        if e.u == e.v:
            problems.append(
                Violation(SELF_LOOP, f"edge {k} is a self-loop at vertex {e.u}", k)
            )
        if e.weight.ndim != 2 or e.weight.shape != (g.s, g.s):
            problems.append(
                Violation(
                    BAD_WEIGHT_SHAPE,
                    f"edge {k} weight has shape {e.weight.shape}, "
                    f"expected ({g.s}, {g.s})",
                    k,
                )
            )
        elif not np.all(np.isfinite(e.weight)):
            problems.append(
                Violation(
                    NON_FINITE_WEIGHT, f"edge {k} weight has non-finite entries", k
                )
            )
        key = (e.u, e.v)
        if in_range and e.u != e.v:
            if key in seen:
                problems.append(
                    Violation(
                        DUPLICATE_EDGE,
                        f"edge {k} duplicates edge {seen[key]} "
                        f"on ({e.u}, {e.v})",
                        k,
                    )
                )
            else:
                seen[key] = k

    if g.n >= 1 and not _connected_over_valid_edges(g):
        problems.append(
            Violation(NOT_CONNECTED, f"graph on {g.n} vertices is not connected")
        )
    return problems


def adjacency(g: MatrixWeightedGraph) -> list[list[tuple[int, int]]]:
    """Adjacency lists indexed by vertex (entry 0 unused): (neighbor,
    edge_index) pairs."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for k, e in enumerate(g.edges):
        adj[e.u].append((e.v, k))
        adj[e.v].append((e.u, k))
    return adj


def _connected_over_valid_edges(g: MatrixWeightedGraph) -> bool:
    if g.n < 1:
        return False
    adj: list[list[int]] = [[] for _ in range(g.n + 1)]
    for e in g.edges:
        if 1 <= e.u <= g.n and 1 <= e.v <= g.n and e.u != e.v:
            adj[e.u].append(e.v)
            adj[e.v].append(e.u)
    seen = [False] * (g.n + 1)
    seen[1] = True
    queue = deque([1])
    count = 1
    while queue:
        x = queue.popleft()
        for y in adj[x]:
            if not seen[y]:
                seen[y] = True
                count += 1
                queue.append(y)
    return count == g.n


def is_connected(g: MatrixWeightedGraph) -> bool:
    """True when every vertex is reachable from vertex 1."""
    return _connected_over_valid_edges(g)


def check_structure(g: MatrixWeightedGraph) -> None:
    """Raise ValueError with the full violation list when the instance is
    structurally malformed.  Connectivity is not included here; operators
    that need it check it themselves with a sharper error."""
    problems = [p for p in validate(g) if p.code != NOT_CONNECTED]
    if problems:
        raise ValueError("invalid graph: " + "; ".join(str(p) for p in problems))


def is_tree(g: MatrixWeightedGraph) -> bool:
    """True for a connected graph with exactly n - 1 edges.

    Raises NotConnectedError on a disconnected graph rather than answering
    a question that has no good answer there.
    """
    if not is_connected(g):
        raise NotConnectedError(f"graph on {g.n} vertices is not connected")
    return g.m == g.n - 1


def require_tree(g: MatrixWeightedGraph) -> None:
    """Raise NotATreeError unless ``g`` is a tree (disconnected included)."""
    if not is_connected(g) or g.m != g.n - 1:
        raise NotATreeError(
            f"graph with {g.n} vertices and {g.m} edges is not a tree"
        )


def bfs_parents(
    g: MatrixWeightedGraph, root: int
) -> tuple[list[int], list[int]]:
    """Breadth-first parents from ``root``.

    Returns (parent_vertex, parent_edge) lists indexed by vertex; the root
    and unreachable vertices have parent 0 and edge -1.
    """
    adj = adjacency(g)
    parent = [0] * (g.n + 1)
    via = [-1] * (g.n + 1)
    seen = [False] * (g.n + 1)
    seen[root] = True
    queue = deque([root])
    while queue:
        x = queue.popleft()
        for y, k in adj[x]:
            if not seen[y]:
                seen[y] = True
                parent[y] = x
                via[y] = k
                queue.append(y)
    return parent, via


def tree_path(g: MatrixWeightedGraph, u: int, v: int) -> list[int]:
    """Edge indices along the unique u-to-v path of a tree, in path order."""
    if u == v:
        raise SameVertexError(f"path endpoints must differ, got {u} twice")
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise ValueError(f"path endpoints ({u}, {v}) not in 1..{g.n}")
    require_tree(g)
    parent, via = bfs_parents(g, u)
    path = []
    x = v
    while x != u:
        path.append(via[x])
        x = parent[x]
    path.reverse()
    return path


def degrees(g: MatrixWeightedGraph) -> np.ndarray:
    """Vertex degrees as an integer vector of length n (index 0 is vertex 1)."""
    deg = np.zeros(g.n, dtype=int)
    for e in g.edges:
        deg[e.u - 1] += 1
        deg[e.v - 1] += 1
    return deg


def delta_vector(g: MatrixWeightedGraph) -> np.ndarray:
    """The vector with entry ``2 - degree(i)`` per vertex.

    On a tree its entries sum to 2, a consequence of the edge count n - 1.
    """
    return 2 - degrees(g)


def weight_sum(g: MatrixWeightedGraph) -> np.ndarray:
    """Sum of all edge weights in ascending edge order (s x s, zero when
    there are no edges)."""
    acc = np.zeros((g.s, g.s))
    for e in g.edges:
        acc += e.weight
    return acc
