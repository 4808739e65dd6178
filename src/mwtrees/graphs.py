"""Matrix-weighted graphs: representation, validation and tree queries.

A graph lives on vertices 1..n and every edge carries an s x s real weight
matrix, all held in the read-only arrays ``ends`` and ``weights`` that every
layer reads.  Construction is lenient but for integer n, s and endpoints
(anything shaped like edges is accepted, endpoints are swapped into
u < v); :func:`validate` reports every problem at once so file loaders
can surface complete diagnostics.
"""

from __future__ import annotations

import operator
from typing import NamedTuple

import numpy as np

from .errors import (
    NotATreeError,
    NotConnectedError,
    SameVertexError,
    refuse_change,
)

#: Violation codes produced by :func:`validate`.
BAD_ORDER = "BadOrder"
BAD_BLOCK_SIZE = "BadBlockSize"
VERTEX_OUT_OF_RANGE = "VertexOutOfRange"
SELF_LOOP = "SelfLoop"
BAD_WEIGHT_SHAPE = "BadWeightShape"
NON_FINITE_WEIGHT = "NonFiniteWeight"
DUPLICATE_EDGE = "DuplicateEdge"
NOT_CONNECTED = "NotConnected"


class Edge:
    """One undirected edge with endpoints u < v and its weight matrix;
    immutable, and compared and hashed by identity."""

    __slots__ = ("u", "v", "weight")
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, u: int, v: int, weight: np.ndarray):
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "weight", weight)

    def __repr__(self) -> str:
        return f"Edge(u={self.u!r}, v={self.v!r}, weight={self.weight!r})"

    def __reduce__(self):
        return type(self), (self.u, self.v, self.weight)


class Violation(NamedTuple):
    """One problem found by :func:`validate`; ``edge_index`` is None for
    graph-level problems."""

    code: str
    message: str
    edge_index: int | None = None

    def __str__(self) -> str:
        return f"{self.code}: {self.message}"


class MatrixWeightedGraph:
    """Undirected graph on vertices 1..n with an s x s weight per edge.

    Edges are stored with u < v (the orientation the incidence matrix signs
    against) in the order given; edge indices used throughout the API are
    0-based positions in ``edges``.  The constructor normalizes, and
    rejects only an n, s or endpoint that is not an integer (TypeError):
    call :func:`validate` to check an instance.  It converts the
    edges once, into the (m, 2) int array ``ends`` of their endpoints and
    the (m, s, s) stack ``weights``, a copy of their weights of which each
    ``Edge.weight`` is a view; all are read-only, so a graph cannot change
    after it is built.  Weights not all s x s leave ``weights`` None and
    each edge a copy of its own, and an endpoint beyond int64 is 0 or n + 1
    in ``ends``: :func:`validate` rejects both.

    Because it cannot change, a graph caches what is computed from it in
    private slots of its ``__dict__``: the violation list of
    :func:`validate`, the search of :func:`depth_first_tree` and the
    analysis that :mod:`mwtrees.closedforms` shares (D, L, the weight
    sum, the SPD flag and the results built from them).  Those arrays
    live as long as the graph does.  Pickling or copying a graph rebuilds
    it through the constructor, so the copy has fresh arrays and no cache.
    Like those caches, graphs and edges compare and hash by identity: a
    copy is another graph.  Its attributes cannot be set or deleted.
    """

    n: int
    s: int
    edges: tuple[Edge, ...]
    ends: np.ndarray
    weights: np.ndarray | None
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, n: int, s: int, edges):
        object.__setattr__(self, "n", operator.index(n))
        object.__setattr__(self, "s", operator.index(s))
        rows = [(e.u, e.v, e.weight) if isinstance(e, Edge) else e
                for e in edges]
        pairs = [sorted(map(operator.index, (u, v))) for u, v, _ in rows]
        try:
            ends = np.array(pairs, dtype=int)
        except OverflowError:   # beyond int64, so out of range: 0 or n + 1
            ends = np.clip(np.array(pairs, dtype=object), 0, self.n + 1)
        object.__setattr__(self, "ends", _read_only(
            ends.astype(int).reshape(len(pairs), 2)))
        ws = [w for _, _, w in rows]
        try:   # one stack, when every weight is s x s as the zeros are
            weights = _read_only(np.array(
                [*ws, np.zeros((self.s, self.s))], dtype=float)[:-1])
            views = weights   # its members are views
        except ValueError:   # shapes differ, or an entry is no number,
            weights = None   # which the copies raise on
            views = [_read_only(np.array(w, dtype=float)) for w in ws]
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "edges", tuple(
            Edge(u, v, w) for (u, v), w in zip(pairs, views)))

    @property
    def m(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def __repr__(self) -> str:
        return (f"MatrixWeightedGraph(n={self.n!r}, s={self.s!r}, "
                f"edges={self.edges!r})")

    def __reduce__(self):
        return type(self), (self.n, self.s, self.edges)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def validate(g: MatrixWeightedGraph) -> list[Violation]:
    """Every problem with ``g``, or an empty list for a usable instance.

    Checks order, block size, endpoint ranges, self-loops, weight shapes and
    finiteness, duplicate edges, and connectivity (the last only over the
    edges that join two distinct vertices in range).  The list is computed
    once per graph and kept on it; each call returns a copy.
    """
    found = g.__dict__.get("_violations")
    if found is None:
        found = g.__dict__["_violations"] = tuple(_violations(g))
    return list(found)


def _violations(g: MatrixWeightedGraph) -> list[Violation]:
    problems: list[Violation] = []
    if g.n < 1:
        problems.append(Violation(BAD_ORDER, f"vertex count must be >= 1, got {g.n}"))
    if g.s < 1:
        problems.append(
            Violation(BAD_BLOCK_SIZE, f"block size must be >= 1, got {g.s}")
        )

    finite = (np.isfinite(g.weights).all(axis=(1, 2)) if g.weights is not None
              else [np.isfinite(e.weight).all() for e in g.edges])
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
        elif not finite[k]:
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

    if g.n >= 1 and len(depth_first_tree(g)[0]) < g.n:
        problems.append(
            Violation(NOT_CONNECTED, f"graph on {g.n} vertices is not connected")
        )
    return problems


def adjacency(g: MatrixWeightedGraph) -> list[list[tuple[int, int]]]:
    """Adjacency lists indexed by vertex (entry 0 unused): (neighbor,
    edge_index) pairs, over the edges that join two distinct vertices in
    1..n."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n + 1)]
    for k, (u, v) in enumerate(g.ends.tolist()):
        if 1 <= u < v <= g.n:
            adj[u].append((v, k))
            adj[v].append((u, k))
    return adj


def _depth_first(g: MatrixWeightedGraph) -> tuple[list[int], list[int]]:
    """Iterative depth-first search from vertex 1 over the edges of
    :func:`adjacency`, so deep graphs do not recurse.

    Returns the vertices reached, in preorder, and for each vertex (entry 0
    unused) the index of the edge it was reached by, -1 for vertex 1 and
    for vertices not reached.  A vertex is marked when it is popped, so
    every edge out of it that leads to an unmarked vertex is a candidate;
    on a tree each vertex is pushed once, by its parent.
    """
    adj = adjacency(g)
    via = [-1] * len(adj)
    seen = [False] * len(adj)
    order: list[int] = []
    stack = [(1, -1)]
    while stack:
        x, k = stack.pop()
        if not seen[x]:
            seen[x] = True
            order.append(x)
            via[x] = k
            stack.extend((y, j) for y, j in adj[x] if not seen[y])
    return order, via


def depth_first_tree(g: MatrixWeightedGraph) -> tuple[list[int], list[int]]:
    """:func:`_depth_first`, run once per graph (n >= 1) and kept on it,
    read-only: :func:`validate` tests connectivity with it, and the layouts
    of :mod:`mwtrees.operators` and :func:`tree_path` read its tree."""
    found = g.__dict__.get("_search")
    if found is None:
        found = g.__dict__["_search"] = _depth_first(g)
    return found


def is_connected(g: MatrixWeightedGraph) -> bool:
    """True when every vertex is reachable from vertex 1 over the edges that
    join two distinct vertices in range; read off :func:`validate`."""
    return g.n >= 1 and all(p.code != NOT_CONNECTED for p in validate(g))


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


def tree_path(g: MatrixWeightedGraph, u: int, v: int) -> list[int]:
    """Edge indices along the unique u-to-v path of a tree, in path order,
    read off the tree of :func:`depth_first_tree`."""
    if u == v:
        raise SameVertexError(f"path endpoints must differ, got {u} twice")
    if not (1 <= u <= g.n and 1 <= v <= g.n):
        raise ValueError(f"path endpoints ({u}, {v}) not in 1..{g.n}")
    require_tree(g)
    _, via = depth_first_tree(g)
    walks = [], []
    for walk, x in zip(walks, (u, v)):
        while via[x] >= 0:   # up, over the far endpoint of each edge
            walk.append(via[x])
            x = g.edges[via[x]].u + g.edges[via[x]].v - x
    first, second = walks   # both end in the edges above where they meet
    while first and second and first[-1] == second[-1]:
        first.pop()
        second.pop()
    return first + second[::-1]


def degrees(g: MatrixWeightedGraph) -> np.ndarray:
    """Vertex degrees as an integer vector of length n (index 0 is vertex 1);
    :func:`check_structure`'s ValueError on a malformed graph."""
    check_structure(g)
    return np.bincount(g.ends.ravel() - 1, minlength=g.n)


def delta_vector(g: MatrixWeightedGraph) -> np.ndarray:
    """The vector with entry ``2 - degree(i)`` per vertex.

    On a tree its entries sum to 2, a consequence of the edge count n - 1.
    """
    return 2 - degrees(g)


def weight_sum(g: MatrixWeightedGraph) -> np.ndarray:
    """Sum of all edge weights, from zero in ascending edge order, one at a
    time (s x s, zero when there are no edges); :func:`check_structure`'s
    ValueError on a malformed graph."""
    check_structure(g)
    acc = np.zeros((g.s, g.s))
    for w in g.weights:
        acc += w
    return acc
