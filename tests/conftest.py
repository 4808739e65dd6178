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
