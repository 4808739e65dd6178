import math
import os
import subprocess
import sys
from itertools import combinations

import numpy as np
import pytest

_FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "fixtures")
)
_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))


# Spanning-tree enumeration refuses above this many edge subsets.
_MAX_SUBSETS = 5_000_000


def fixture_path(name: str) -> str:
    return os.path.join(_FIXTURES, name)


@pytest.fixture
def fixtures_dir() -> str:
    return _FIXTURES


def python_env() -> dict[str, str]:
    """The environment for a child Python that imports this checkout's
    package."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (_SRC, env.get("PYTHONPATH")) if p
    )
    return env


def run_python(*argv, **kwargs) -> subprocess.CompletedProcess:
    """``python *argv`` on this checkout's package, output captured as
    text."""
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=python_env(), **kwargs)


def conditioned_matrix(s: int, ratio: float, rng) -> np.ndarray:
    """A random ``s x s`` matrix whose singular values run log-evenly from 1
    down to ``ratio``, between random orthogonal factors."""
    u, _ = np.linalg.qr(rng.standard_normal((s, s)))
    v, _ = np.linalg.qr(rng.standard_normal((s, s)))
    return (u * np.geomspace(1.0, ratio, s)) @ v.T


def graded_spd(s: int, ratio: float, rng) -> np.ndarray:
    """An SPD weight with eigenvalues log-evenly from 1 down to ``ratio``,
    scaled by a random power of ten in [0.1, 10]."""
    q, _ = np.linalg.qr(rng.standard_normal((s, s)))
    return (q * np.geomspace(1.0, ratio, s)) @ q.T * 10.0 ** rng.uniform(-1, 1)


def probe_reweightings(m: int, s: int, trials: int,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """The draws W = U diag(sigma) V^T of the rank probe's reweightings and
    their blocks V diag(1 / sigma) U^T, each of shape ``(trials, m, s, s)``,
    built one draw at a time: from ``default_rng(seed)``, the normals of
    every U, then those of every V, then every sigma, log-uniform on
    [cap^-1/2, cap^1/2] for the probe's condition cap."""
    from mwtrees.checks import _PROBE_CONDITION_CAP

    rng = np.random.default_rng(seed)
    count = trials * m
    us = [np.linalg.qr(rng.standard_normal((s, s)))[0] for _ in range(count)]
    vs = [np.linalg.qr(rng.standard_normal((s, s)))[0] for _ in range(count)]
    half = 0.5 * math.log(_PROBE_CONDITION_CAP)
    sigmas = [np.exp(rng.uniform(-half, half, size=s)) for _ in range(count)]
    draws = [(u * sigma) @ v.T for u, v, sigma in zip(us, vs, sigmas)]
    blocks = [(v / sigma) @ u.T for u, v, sigma in zip(us, vs, sigmas)]
    shape = (trials, m, s, s)
    return np.reshape(draws, shape), np.reshape(blocks, shape)


def grounded_inverse_oracle(g, weights: np.ndarray) -> np.ndarray:
    """The dense inverse, in exact arithmetic, of the Laplacian of the tree
    ``g`` with blocks ``inv(weights[k])``, grounded at vertex 1.

    Block (i, j) is the path sum of the weights from vertex 1 to the lowest
    common ancestor of i and j, gathered from one path sum per vertex; no
    matrix is inverted.
    """
    from mwtrees.operators import _subtree_runs

    n, s = g.n, g.s
    layout = _subtree_runs(g)
    runs = list(zip(layout.lo.tolist(), layout.hi.tolist()))
    below = np.zeros((n, g.m))   # [p, k]: 1 where position p is below edge k
    meet = np.zeros((n, n), dtype=int)   # [p, q]: position of the lowest
    for k, (lo, hi) in enumerate(runs):  # common ancestor of p and q
        below[lo:hi, k] = 1.0
    for lo, hi in sorted(runs):   # from the root down, so the lowest wins
        meet[lo:hi, lo:hi] = lo
    rest = layout.at[1:]   # vertex order, without vertex 1
    take = (meet[np.ix_(rest, rest)][:, None, :, None] * (s * s)
            + np.arange(s * s).reshape(1, s, 1, s))
    rooted = below @ np.reshape(weights, (g.m, s * s))   # [p]: path sum to p
    return rooted.ravel()[take.reshape((n - 1) * s, (n - 1) * s)]


def distance_inverse_factored(g):
    """The SPD-weight form of ``distance_inverse``, an independent route
    for cross-checking it: ``-L/2 + (Delta R^{-1} Delta^T) / 2`` with
    ``Delta = delta kron I``.  Requires every weight SPD."""
    from mwtrees import BlockMatrix, NotSPDError, delta_vector, inverse
    from mwtrees.closedforms import _analysis
    from mwtrees.graphs import require_tree

    a = _analysis(g)
    require_tree(g)
    if not a.spd:
        raise NotSPDError("every edge weight must be SPD for the factored form")
    delta = delta_vector(g).astype(float)
    big_delta = np.kron(delta[:, None], np.eye(g.s))
    data = -0.5 * a.laplacian + 0.5 * (big_delta @ inverse(a.weight_sum)
                                       @ big_delta.T)
    return BlockMatrix(data, g.s)


def dense_identity_reports(g, rel_tol: float = 1e-8) -> list:
    """The records of ``verify_identities`` from dense residual matrices:
    every product formed in full and every right-hand side built with
    ``np.kron``, from the arrays of the graph's analysis.  The oracle for
    the library's exact and probe residuals."""
    from mwtrees.closedforms import (
        _analysis,
        _inverse_data,
        _report,
        _require_invertible,
        _skipped,
    )
    from mwtrees.graphs import delta_vector
    from mwtrees.operators import block_incidence

    a = _analysis(g)
    _require_invertible(a)
    n, s = g.n, g.s
    tol = rel_tol * n * s
    dist, lap = a.distance, a.laplacian
    delta = delta_vector(g).astype(float)
    ones, eye_s, eye_ns = np.ones(n), np.eye(s), np.eye(n * s)
    ld = lap @ dist
    reports = [
        _report("ld", float(np.linalg.norm(
            ld - (np.kron(np.outer(delta, ones), eye_s) - 2.0 * eye_ns))),
            tol, g),
        _report("dl", float(np.linalg.norm(
            dist @ lap - (np.kron(np.outer(ones, delta), eye_s)
                          - 2.0 * eye_ns))), tol, g),
        _report("ldl", float(np.linalg.norm(ld @ lap + 2.0 * lap)), tol, g),
    ]
    closed = dist / 3.0 + np.kron(np.ones((n, n)), a.weight_sum) / 3.0
    shifted = _inverse_data(a) - lap
    reports.append(_report("dinv_minus_l", float(np.linalg.norm(
        shifted @ closed - eye_ns)), tol, g))
    if a.spd:
        q = block_incidence(g, a.weight_roots)
        reports.append(_report("qdq", float(np.linalg.norm(
            q.T @ dist @ q + 2.0 * np.eye(q.shape[1]))), tol, g))
    else:
        reports.append(_skipped("qdq", "weights are not all SPD", g))
    return reports


def ginverse_reference(g, seed: int) -> dict:
    """``name -> (residual, tolerance)`` of ``ginverse_invariance_check(g,
    seed)`` and, on a tree, ``ginverse_distance_recovery(g, seed)``, from
    the analysis's g-inverses and D, computed the way those checks once
    did: every pair contraction from an (n, n, s, s) view of the blocks,
    the norm of every pair's block, and P H P from the means of the (n, s,
    n, s) view.  The records must keep these bits."""
    from mwtrees.checks import _GINVERSE_REL_TOL, _seeded_root, g_inverse
    from mwtrees.closedforms import _analysis
    from mwtrees.linalg import frobenius_norms

    a = _analysis(g)
    n, s = g.n, g.s
    pairs = np.triu_indices(n, 1)

    def contractions(data):
        blocks = data.reshape(n, s, n, s).transpose(0, 2, 1, 3)
        diag = blocks[np.arange(n), np.arange(n)]
        return (diag[:, None] + diag[None, :]
                - blocks - blocks.transpose(1, 0, 2, 3))

    def worst(dev):
        return float(frobenius_norms(dev[pairs]).max(initial=0.0))

    def norm(x):
        return _GINVERSE_REL_TOL * float(frobenius_norms(x[None])[0])

    roots = [_seeded_root(n, k) for k in (seed, seed + 1)]
    if roots[1] == roots[0]:
        roots[1] = roots[0] % n + 1
    first, second = (g_inverse(a, r) for r in roots)
    x = first.reshape(n, s, n, s)
    x = x - x.mean(axis=0)
    reference = {"ginverse_invariance": (
        worst(contractions(second) - contractions(first)),
        norm(x - x.mean(axis=2, keepdims=True)))}
    if a.tree:
        dist = a.distance
        h = g_inverse(a, _seeded_root(n, seed))
        blocks = dist.reshape(n, s, n, s).transpose(0, 2, 1, 3)
        reference["ginverse_recovery"] = (worst(contractions(h) - blocks),
                                          norm(dist))
    return reference


def svd_interlacing_status(g, slack_tol: float = 1e-8) -> str:
    """The status of the ``interlacing`` record of the SPD tree ``g`` (n >=
    2) with the spectrum of L from a dense SVD of L, in place of the
    ``eigvalsh`` of its symmetric part that the library reads: the oracle
    for that spectrum."""
    from mwtrees import FAIL, PASS, distance_matrix, laplacian

    n, s = g.n, g.s
    k = (n - 1) * s
    mu = np.linalg.eigvalsh(distance_matrix(g).data)[::-1]
    lam = np.linalg.svd(laplacian(g).data, compute_uv=False)
    mid = -2.0 / lam[:k]
    worst = max(0.0, float(np.max(np.maximum(mu[s:s + k] - mid,
                                             mid - mu[:k]))))
    slack = slack_tol * max(float(np.max(np.abs(mu))), float(lam.max()))
    return PASS if worst <= slack else FAIL


def spanning_tree_oracle(g, marked_edge: int) -> tuple[int, int]:
    """Count spanning trees containing and avoiding one edge, by brute force.

    Enumerates every (n-1)-subset of the edges and tests it for being a
    spanning tree with a union-find; refuses (ValueError) graphs with more
    than 9 vertices or too many subsets.  Returns (with_marked,
    without_marked).
    """
    from mwtrees.graphs import check_structure

    check_structure(g)
    if g.n > 9:
        raise ValueError(f"spanning-tree oracle is capped at 9 vertices, "
                         f"got {g.n}")
    if not 0 <= marked_edge < g.m:
        raise ValueError(f"edge index {marked_edge} out of range 0..{g.m - 1}")
    if g.n >= 2 and math.comb(g.m, g.n - 1) > _MAX_SUBSETS:
        raise ValueError(
            f"{math.comb(g.m, g.n - 1)} edge subsets exceed the oracle cap"
        )
    with_marked = 0
    without_marked = 0
    for subset in combinations(range(g.m), g.n - 1):
        parent = list(range(g.n + 1))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        acyclic = True
        for k in subset:
            e = g.edges[k]
            ru, rv = find(e.u), find(e.v)
            if ru == rv:
                acyclic = False
                break
            parent[ru] = rv
        if not acyclic:
            continue
        if marked_edge in subset:
            with_marked += 1
        else:
            without_marked += 1
    return with_marked, without_marked
