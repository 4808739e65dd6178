"""Seeded random instances and a brute-force distance oracle.

All randomness flows through ``numpy.random.default_rng`` (PCG64), so a
fixed seed reproduces the same instance on any platform.  The oracle
recomputes D by definition, one path sum at a time, and is deliberately
independent of the fast route it cross-checks.
"""

from __future__ import annotations

import heapq
import math
from enum import Enum
from typing import NamedTuple

import numpy as np

from .closedforms import _seeded_rng
from .errors import BadConfigError
from .gallery import _assemble
from .graphs import MatrixWeightedGraph, check_structure, tree_path
from .linalg import BlockMatrix

# Redraws allowed while rejecting ill-conditioned or singular weight sums.
_MAX_REDRAWS = 1000

# The largest range bound or seed: numpy draws from int64 ranges.
_INT64_MAX = np.iinfo(np.int64).max


class WeightKind(Enum):
    """Weight families the generators can draw from."""

    SPD = "spd"
    NONSINGULAR = "nonsingular"
    SCALAR_POSITIVE = "scalar-positive"
    SCALAR_ANY_NONZERO = "scalar-any-nonzero"


class _Config(NamedTuple):
    """The fields of :class:`GenConfig`, which checks them in a
    ``__new__`` that a NamedTuple class may not define itself."""

    n_range: tuple[int, int] = (2, 10)
    s_range: tuple[int, int] = (1, 4)
    kind: WeightKind = WeightKind.SPD
    condition_cap: float = 1e4
    seed: int = 0


class GenConfig(_Config):
    """Ranges and knobs for the random instance generators.

    ``n_range`` and ``s_range`` are inclusive ranges of integers that fit
    in int64; ``condition_cap``, finite and above 1, bounds the condition
    number of each drawn weight (and of the weight sum, for the kinds that
    do not guarantee it by construction); ``seed``, an integer from 0 to
    the int64 maximum, seeds the first instance.  Each construction,
    ``_replace`` included, checks the fields (BadConfigError).
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        n_lo, n_hi = self.n_range
        s_lo, s_hi = self.s_range
        if not (_integers(n_lo, n_hi) and 2 <= n_lo <= n_hi <= _INT64_MAX):
            raise BadConfigError(f"bad vertex range {self.n_range}")
        if not (_integers(s_lo, s_hi) and 1 <= s_lo <= s_hi <= _INT64_MAX):
            raise BadConfigError(f"bad block size range {self.s_range}")
        _require_cap(self.condition_cap)
        if not isinstance(self.kind, WeightKind):
            raise BadConfigError(f"bad weight kind {self.kind!r}")
        if not (_integers(self.seed) and 0 <= self.seed <= _INT64_MAX):
            raise BadConfigError(f"seed must be an integer from 0 to "
                                 f"{_INT64_MAX}, got {self.seed!r}")
        return self

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


def _integers(*values) -> bool:
    return all(isinstance(x, (int, np.integer)) for x in values)


def _require_size(s: int) -> None:
    """BadConfigError unless the block size s is an integer >= 1."""
    if not (_integers(s) and s >= 1):
        raise BadConfigError(f"block size must be an integer >= 1, got {s!r}")


def _require_cap(cap: float) -> None:
    """BadConfigError unless the condition cap is finite and above 1."""
    if not 1.0 < cap < math.inf:
        raise BadConfigError(f"condition cap must be finite and exceed 1, "
                             f"got {cap}")


def random_spd(s: int, condition_cap: float = 1e4, seed=0) -> np.ndarray:
    """Random s x s SPD matrix with condition number at most
    ``condition_cap``, finite and above 1, for an integer s >= 1
    (BadConfigError otherwise).

    Built as V diag(lam) V^T with a random orthogonal V and eigenvalues
    drawn log-uniformly from [1/sqrt(cap), sqrt(cap)].
    """
    _require_size(s)
    _require_cap(condition_cap)
    rng = _seeded_rng(seed)
    half = 0.5 * math.log(condition_cap)
    lam = np.exp(rng.uniform(-half, half, size=s))
    vec = np.linalg.qr(rng.standard_normal((s, s)))[0]
    w = (vec * lam) @ vec.T
    return 0.5 * (w + w.T)


def random_nonsingular(s: int, condition_cap: float = 1e4, seed=0) -> np.ndarray:
    """Random s x s invertible matrix, generally asymmetric, for an
    integer s >= 1 (BadConfigError otherwise).

    Entries are uniform(-1, 1); draws with tiny determinant or condition
    number above ``condition_cap`` are rejected and retried, up to
    ``_MAX_REDRAWS`` draws in all (BadConfigError after that).
    """
    _require_size(s)
    rng = _seeded_rng(seed)
    for _ in range(_MAX_REDRAWS):
        w = rng.uniform(-1.0, 1.0, size=(s, s))
        if abs(np.linalg.det(w)) >= 0.05 and np.linalg.cond(w) <= condition_cap:
            return w
    raise BadConfigError(
        f"could not draw a well-conditioned {s}x{s} matrix "
        f"(cap {condition_cap:g})"
    )


def _random_weight(kind: WeightKind, s: int, cap: float,
                   rng: np.random.Generator) -> np.ndarray:
    if kind is WeightKind.SPD:
        return random_spd(s, cap, rng)
    if kind is WeightKind.NONSINGULAR:
        return random_nonsingular(s, cap, rng)
    if kind is WeightKind.SCALAR_POSITIVE:
        return np.eye(s) * rng.uniform(0.1, 10.0)
    # SCALAR_ANY_NONZERO: nonzero multiple of the identity, either sign
    value = rng.uniform(0.1, 10.0) * (1.0 if rng.uniform() < 0.5 else -1.0)
    return np.eye(s) * value


def _weight_sum_acceptable(weights: list[np.ndarray], kind: WeightKind,
                           s: int, cap: float) -> bool:
    # SPD and positive scalar sums are automatically invertible; the signed
    # kinds can cancel, so reject sums that are singular or ill-conditioned
    if kind in (WeightKind.SPD, WeightKind.SCALAR_POSITIVE):
        return True
    total = np.zeros((s, s))
    for w in weights:
        total += w
    sv = np.linalg.svd(total, compute_uv=False)
    return sv[-1] > sv[0] / cap and sv[0] > 0.0


def _draw_weights(edge_count: int, kind: WeightKind, s: int, cap: float,
                  rng: np.random.Generator) -> list[np.ndarray]:
    for _ in range(_MAX_REDRAWS):
        weights = [_random_weight(kind, s, cap, rng) for _ in range(edge_count)]
        if _weight_sum_acceptable(weights, kind, s, cap):
            return weights
    raise BadConfigError("could not draw weights with an invertible sum")


def _prufer_tree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Edges of the labeled tree that a uniform random length n-2 sequence
    over 1..n encodes, a bijection onto the labeled trees on n vertices."""
    if n == 2:
        return [(1, 2)]
    seq = [int(x) for x in rng.integers(1, n + 1, size=n - 2)]
    degree = [1] * (n + 1)
    degree[0] = 0
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(1, n + 1) if degree[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _random_graph(config: GenConfig, topology) -> MatrixWeightedGraph:
    """The graph of ``config.seed``: from ``default_rng(config.seed)``, n
    and s from their ranges, then the edges that ``topology(n, rng)``
    draws, then their weights per ``config.kind``, in the order of the
    sorted edges."""
    rng = np.random.default_rng(config.seed)
    n = int(rng.integers(config.n_range[0], config.n_range[1] + 1))
    s = int(rng.integers(config.s_range[0], config.s_range[1] + 1))
    topo = sorted(topology(n, rng))
    weights = _draw_weights(len(topo), config.kind, s, config.condition_cap, rng)
    return _assemble(n, s, topo, weights)


def _with_cycles(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """A random tree on n >= 3 vertices and one to three distinct edges
    off it."""
    if n == 3:
        tree_topo = [(1, 2), (1, 3)] if rng.uniform() < 0.5 else [(1, 2), (2, 3)]
    else:
        tree_topo = _prufer_tree(n, rng)
    present = set(tree_topo)
    missing = [
        (u, v)
        for u in range(1, n + 1)
        for v in range(u + 1, n + 1)
        if (u, v) not in present
    ]
    extra_count = int(rng.integers(1, min(3, len(missing)) + 1))
    picks = rng.choice(len(missing), size=extra_count, replace=False)
    return tree_topo + [missing[int(i)] for i in picks]


def random_tree(config: GenConfig) -> MatrixWeightedGraph:
    """Random matrix-weighted tree drawn uniformly over labeled topologies.

    The topology comes from decoding a uniform random sequence (a bijection
    onto labeled trees, so every tree on n vertices is equally likely);
    weights are drawn per ``config.kind`` in edge order after sorting edges
    by endpoints.
    """
    return _random_graph(config, _prufer_tree)


def random_connected_nontree(config: GenConfig) -> MatrixWeightedGraph:
    """Random connected graph with at least one cycle.

    Starts from a random tree topology and adds one to three extra distinct
    non-tree edges, so the result is connected and never a tree.  Needs
    n >= 3 (no extra edge exists on two vertices).
    """
    if config.n_range[0] < 3:
        raise BadConfigError("connected non-trees need n >= 3")
    return _random_graph(config, _with_cycles)


def distance_oracle(g: MatrixWeightedGraph) -> BlockMatrix:
    """Tree distance matrix recomputed pairwise from scratch.

    Walks the unique path for every vertex pair independently and sums the
    weights in ascending edge-index order, mirroring the definition rather
    than the batched construction, so the two routes can be compared
    bit for bit.
    """
    check_structure(g)
    n, s = g.n, g.s
    data = np.zeros((n * s, n * s))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            block = np.zeros((s, s))
            for k in sorted(tree_path(g, i, j)):
                block = block + g.edges[k].weight
            data[(i - 1) * s : i * s, (j - 1) * s : j * s] = block
            data[(j - 1) * s : j * s, (i - 1) * s : i * s] = block
    return BlockMatrix(data, s)


def random_instances(
    count: int, config: GenConfig, tree: bool = True
) -> list[MatrixWeightedGraph]:
    """A reproducible batch: instance i uses seed ``config.seed + i``
    (BadConfigError for a count that is not an integer >= 0)."""
    if not (_integers(count) and count >= 0):
        raise BadConfigError(f"count must be an integer >= 0, got {count!r}")
    draw = random_tree if tree else random_connected_nontree
    return [draw(config._replace(seed=config.seed + i)) for i in range(count)]
