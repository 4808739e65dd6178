import os

import numpy as np
import pytest

_FIXTURES = os.path.abspath(
    os.path.join(os.path.dirname(__file__), "..", "fixtures")
)


def fixture_path(name: str) -> str:
    return os.path.join(_FIXTURES, name)


@pytest.fixture
def fixtures_dir() -> str:
    return _FIXTURES


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
