"""Seeded benchmark inputs and the workload definitions they belong to.

Every graph is generated here with numpy alone, independently of the
package's own generators, and handed to the program only as graph JSON text
(in process) or as a graph JSON file (CLI).  The same ``--seed`` always gives
the same graphs.
"""

from __future__ import annotations

import heapq
import json
import math
from dataclasses import dataclass

import numpy as np

GRAPH_SCHEMA = "mwtrees/graph/v1"
CONDITION_CAP = 1e4
# Distinct graphs generated per shape class; the op loop cycles over them.
POOL_SIZE = 8


@dataclass(frozen=True)
class Graph:
    """A generated input: topology, weights and the facts the references
    need to know about it (tree or not, SPD weights or not)."""

    name: str
    cls: str
    n: int
    s: int
    edges: tuple          # ((u, v), ...) with u < v, 1-based
    weights: tuple        # s x s float arrays, one per edge
    tree: bool
    spd: bool

    def to_json(self) -> str:
        obj = {
            "schema": GRAPH_SCHEMA,
            "n": self.n,
            "s": self.s,
            "edges": [
                {"u": u, "v": v, "weight": w.tolist()}
                for (u, v), w in zip(self.edges, self.weights)
            ],
        }
        return json.dumps(obj) + "\n"


def _spd(s: int, rng: np.random.Generator) -> np.ndarray:
    half = 0.5 * math.log(CONDITION_CAP)
    lam = np.exp(rng.uniform(-half, half, size=s))
    q = np.linalg.qr(rng.standard_normal((s, s)))[0]
    w = (q * lam) @ q.T
    return 0.5 * (w + w.T)


def _nonsingular(s: int, rng: np.random.Generator) -> np.ndarray:
    while True:
        w = rng.uniform(-1.0, 1.0, size=(s, s))
        if np.linalg.cond(w) <= CONDITION_CAP and abs(np.linalg.det(w)) > 0.05:
            return w


def _prufer_tree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    """Uniform random labelled tree on 1..n, edges sorted."""
    if n == 2:
        return [(1, 2)]
    seq = [int(x) for x in rng.integers(1, n + 1, size=n - 2)]
    degree = [0] + [1] * n
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
    u, v = heapq.heappop(leaves), heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return sorted(edges)


def _weighted(name, cls, n, s, edges, draw, rng, tree, spd) -> Graph:
    if spd:
        weights = [draw(s, rng) for _ in edges]
    else:
        # general weights: redraw until the weight sum is well conditioned,
        # so the tree distance matrix is invertible
        while True:
            weights = [draw(s, rng) for _ in edges]
            if np.linalg.cond(sum(weights)) <= CONDITION_CAP:
                break
    return Graph(name, cls, n, s, tuple(edges), tuple(weights), tree, spd)


def _scalar(name, cls, n, edges, value) -> Graph:
    """A non-tree with the same scalar weight on every edge."""
    w = np.array([[value]])
    return Graph(name, cls, n, 1, tuple(edges), tuple(w for _ in edges),
                 False, value > 0)


def grid_edges(k: int) -> list[tuple[int, int]]:
    idx = lambda r, c: r * k + c + 1  # noqa: E731
    edges = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                edges.append((idx(r, c), idx(r, c + 1)))
            if r + 1 < k:
                edges.append((idx(r, c), idx(r + 1, c)))
    return sorted(edges)


def complete_edges(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]


def _sparse_nontree(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    tree = _prufer_tree(n, rng)
    present = set(tree)
    extra = set()
    want = int(rng.integers(1, 4))
    while len(extra) < want:
        u, v = sorted(int(x) for x in rng.choice(n, size=2, replace=False) + 1)
        if (u, v) not in present:
            extra.add((u, v))
    return sorted(tree + sorted(extra))


# --- shape classes ---------------------------------------------------------
# Each maker takes (rng, k) and returns the k-th graph of its class.  Sizes
# are chosen so that the classes of a workload cost about the same per op
# (0.25-0.45 s on a 2-vCPU x86_64 VM with one BLAS thread): the op latencies
# then form one cluster, so the median and the tail are central order
# statistics rather than the gap between two clusters, and a run holds
# enough ops for a tail with ten samples above it.

def _deep(rng, k):
    n, s = 72, 2
    return _weighted(f"deep-{k}", "deep", n, s,
                     [(i, i + 1) for i in range(1, n)], _spd, rng, True, True)


def _wide(rng, k):
    n, s = 40, 8
    return _weighted(f"wide-{k}", "wide", n, s,
                     [(1, i) for i in range(2, n + 1)], _spd, rng, True, True)


def _mixed(rng, k):
    n, s = 64, 4
    return _weighted(f"mixed-{k}", "mixed", n, s, _prufer_tree(n, rng),
                     _spd, rng, True, True)


def _general(rng, k):
    n, s = 40, 8
    return _weighted(f"general-{k}", "general", n, s, _prufer_tree(n, rng),
                     _nonsingular, rng, True, False)


def _sparse(rng, k):
    n, s = 150, 2
    return _weighted(f"sparse-{k}", "sparse", n, s, _sparse_nontree(n, rng),
                     _spd, rng, False, True)


def _grid(rng, k):
    return _scalar(f"grid-{k}", "grid", 144, grid_edges(12), 1.0)


def _complete(rng, k):
    return _scalar(f"complete-{k}", "complete", 30, complete_edges(30), 1.0)


def _grid_overflow(rng, k):
    # weight -1 is not SPD, so the suite skips the O(n^2) g-inverse checks
    # and the op is the bridge search plus the overflowing float cofactor
    return _scalar(f"grid_overflow-{k}", "grid_overflow", 676,
                   grid_edges(26), -1.0)


@dataclass(frozen=True)
class ShapeClass:
    name: str
    maker: object
    size: str
    # graphs per run: POOL_SIZE, or 1 for fixed topologies/weights
    pool: int = POOL_SIZE
    # ops per round of the op loop; 0 means one op in the first round only
    per_round: int = 1


@dataclass(frozen=True)
class KnownFailure:
    """Why a class's ops fail at this commit, and the one problem that
    failure produces (a regular expression the whole problem must match)."""

    why: str
    problem: str


# The problem texts of checks.check_witness and run.describe.
INEXACT_COUNTS = (r"spanning-tree counts \(\d+, \d+\) are not the exact "
                  r"\(\d+, \d+\)")
NAN_TO_INT = r"raised ValueError: cannot convert float NaN to integer"


@dataclass(frozen=True)
class Workload:
    name: str
    loop: str
    classes: tuple
    # class -> KnownFailure; an op of such a class whose problems are all the
    # known one is counted in `failed` but does not make the run incorrect
    known_failures: dict
    # op time of one round at the compute kernel's nominal speed on this
    # commit; sizes the fixed round count of an in-process run
    round_s: float = 0.0

    def rounds(self, seconds: float) -> int:
        """The rounds of a run of ``seconds``.  The count depends on
        ``seconds`` alone, never on timing, so a seed gives the same ops,
        and the same failures, on every run."""
        return max(1, round(seconds / self.round_s))


# trees carries ROADMAP item 2: a fast D assembly should move `deep` and
# barely touch `wide`; a Cholesky L^+ should do the opposite.
TREES = Workload(
    name="trees",
    loop="closed loop, 1 client, in process, one op at a time; a fixed "
         "number of rounds (seconds / 1.3 s) of one op per class in seeded "
         "order, so class counts stay equal",
    classes=(
        ShapeClass("deep", _deep, "SPD path, n=72, s=2"),
        ShapeClass("wide", _wide, "SPD star, n=40, s=8"),
        ShapeClass("mixed", _mixed, "uniform Pruefer SPD tree, n=64, s=4"),
        ShapeClass("general", _general,
                   "asymmetric nonsingular Pruefer tree, n=40, s=8"),
    ),
    known_failures={},
    round_s=1.3,
)

# nontree is the only workload that reaches the bridge search and the
# rank-deficiency witness (ROADMAP item 4), and the g-inverse and rank
# families on graphs with cycles.  Its known failures stay in the mix.
NONTREE = Workload(
    name="nontree",
    loop="closed loop, 1 client, in process, one op at a time; a fixed "
         "number of rounds (seconds / 2 s) of sparse, grid and complete in "
         "seeded order, plus one grid_overflow op in the first round",
    classes=(
        ShapeClass("sparse", _sparse,
                   "random connected SPD non-tree (tree + 1..3 edges), "
                   "n=150, s=2"),
        ShapeClass("grid", _grid, "12x12 grid, scalar weight 1", pool=1),
        ShapeClass("complete", _complete, "K30, scalar weight 1", pool=1),
        ShapeClass("grid_overflow", _grid_overflow,
                   "26x26 grid, scalar weight -1", pool=1, per_round=0),
    ),
    known_failures={
        "grid": KnownFailure(
            "spanning-tree counts go through a float determinant and come "
            "back inexact (about 1e63 trees)", INEXACT_COUNTS),
        "complete": KnownFailure(
            "spanning-tree counts go through a float determinant and come "
            "back inexact (K30 has about 1e41 trees)", INEXACT_COUNTS),
        "grid_overflow": KnownFailure(
            "the float cofactor overflows; round(NaN) escapes as ValueError "
            "'cannot convert float NaN to integer'", NAN_TO_INT),
    },
    round_s=2.0,
)

# cli is the only workload that measures interpreter start-up and
# `import mwtrees`; each process runs one operator once, so a per-graph cache
# can only add cost here.
CLI = Workload(
    name="cli",
    loop="closed loop, 1 client, sequential `python -m mwtrees` "
         "subprocesses in a seeded cycle of (command, input) pairs",
    classes=(),
    known_failures={},
)

WORKLOADS = {w.name: w for w in (CLI, TREES, NONTREE)}


def class_pool(workload: Workload, seed: int) -> dict[str, list[Graph]]:
    """The distinct graphs of every class for one seed."""
    pools = {}
    for ci, sc in enumerate(workload.classes):
        pools[sc.name] = [
            sc.maker(np.random.default_rng([seed, ci, k]), k)
            for k in range(sc.pool)
        ]
    return pools


def op_schedule(workload: Workload, seed: int, rounds: int):
    """Yield ``(round, class name)`` for the op loop: each round holds one op
    per class (``per_round`` ops), shuffled by the seed; classes with
    ``per_round == 0`` appear once, in round 0."""
    rng = np.random.default_rng([seed, 99])
    for r in range(rounds):
        names = [sc.name for sc in workload.classes
                 for _ in range(sc.per_round or (1 if r == 0 else 0))]
        for i in rng.permutation(len(names)):
            yield r, names[int(i)]


# --- CLI inputs ------------------------------------------------------------

FIXTURES = ("path4_block2.json", "cycle4_block2.json", "diamond4.json")
# Facts about the shipped fixtures the expected exit codes depend on.
FIXTURE_FACTS = {
    "path4_block2.json": {"tree": True, "spd": False},
    "cycle4_block2.json": {"tree": False, "spd": False},
    "diamond4.json": {"tree": False, "spd": True},
}


def cli_seeded_graphs(seed: int) -> list[Graph]:
    """Small seeded CLI inputs (n <= 12, s <= 3): an SPD tree and an SPD
    non-tree."""
    rng = np.random.default_rng([seed, 7])
    out = []
    for kind in ("spd_tree", "spd_nontree"):
        n = int(rng.integers(6, 13))
        s = int(rng.integers(1, 4))
        tree = kind == "spd_tree"
        edges = _prufer_tree(n, rng) if tree else _sparse_nontree(n, rng)
        out.append(_weighted(kind, "cli", n, s, edges, _spd, rng, tree, True))
    return out


#: (label, argv after the input path) of every CLI command the cycle uses.
CLI_COMMANDS = (
    ("build-D", ["build", "{input}", "--which", "D"]),
    ("build-L-raw", ["build", "{input}", "--which", "L", "--mode", "raw"]),
    ("build-Q", ["build", "{input}", "--which", "Q"]),
    ("invert", ["invert", "{input}"]),
    ("det", ["det", "{input}"]),
    ("verify-json", ["verify", "{input}", "--suite", "all"]),
    ("verify-text", ["verify", "{input}", "--suite", "all", "--format", "text"]),
    ("deficient", ["deficient", "{input}"]),
)


def expected_exit(label: str, tree: bool, spd: bool) -> int:
    """Exit code the documented CLI contract gives for a command on an input
    whose weights (and weight sum) are all invertible: 0 success, 1 a check
    failed, 2 parse/validation error, 3 precondition, 4 not invertible."""
    if label == "build-D":
        return 0 if tree else 3
    if label == "build-Q":
        return 0 if spd else 3
    if label in ("invert", "det"):
        return 0 if tree else 3
    if label == "deficient":
        return 3 if tree else 0
    return 0
