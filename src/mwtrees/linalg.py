"""Dense linear-algebra kernels shared by the whole package.

Everything here works on plain float64 numpy arrays, with numpy as the only
backend.  Rank, symmetry and definiteness decisions are made with relative
thresholds so they behave the same across scales.  The rank cutoff below
can be overridden per call of the rank functions; the symmetry and zero
cutoffs are fixed.  A square matrix is singular exactly when its
:func:`numerical_rank` at the default cutoff falls short of its order:
:func:`inverse` and every invertibility check use that one test.  The
kernels that only the checks call (the Cholesky inverse, the block planes
and pair contractions of the g-inverse checks, and the pseudo-inverse)
are in :mod:`mwtrees.checks`, so a command that runs no check compiles
none of them.

The rank is the count of singular values above the cutoff, the SVD's
count.  An exactly symmetric matrix's singular values are its
``|eigenvalues|``, and :func:`numerical_ranks` reads its rank from one
``eigvalsh`` where LAPACK's error bounds certify that the SVD would count
the same; within rounding of the cutoff it takes the SVD.

The per-edge tests come in stacked form: :func:`numerical_ranks`,
:func:`inverses`, :func:`sign_log_determinants` and
:func:`spd_inverse_sqrts` take an ``(m, r, c)`` stack and make one
batched LAPACK call for all of it (:func:`numerical_ranks` one of each
kind it needs).  numpy's linalg routines factor each member of a stack
on its own, and the certificate is decided member by member, so every
member gets the bits and the rank a call on it alone would give.
:func:`inverse`, :func:`numerical_rank` and :func:`sign_log_determinant`
are stacks of one over the same code.
Symmetry within ``DEFAULT_SYMMETRY_TOL`` is not a test of its own:
:func:`symmetric_eigenvalues` and :func:`spd_inverse_sqrts` reject an
asymmetric input (the rank's exact ``a == a.T`` only picks its route).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .errors import (
    NonFiniteError,
    NotSPDError,
    NotSymmetricError,
    SingularMatrixError,
    refuse_change,
)

# Relative cutoff (times the largest singular value, or eigenvalue of an SPD
# matrix) below which a direction counts as numerically zero.
DEFAULT_RANK_TOL = 1e-9
# Relative asymmetry (times the Frobenius norm) tolerated before a matrix is
# rejected as non-symmetric.
DEFAULT_SYMMETRY_TOL = 1e-9
# A rank certificate of a matrix of order N allows this many times ``N eps``
# times its largest singular value for the error in the singular values or
# eigenvalues LAPACK computes, and for the rounding of its own arithmetic.
_CERTIFICATE_SAFETY = 64.0


def as_matrix(a, name: str = "matrix", ndim: int = 2) -> np.ndarray:
    """Coerce ``a`` to a float64 array of ``ndim`` axes (3 for a stack of
    matrices), rejecting non-finite entries with NonFiniteError."""
    m = np.asarray(a, dtype=float)
    if m.ndim != ndim:
        raise ValueError(f"{name} must be {ndim}-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteError(f"{name} contains non-finite entries")
    return m


def _require_rel_tol(rel_tol: float) -> None:
    """ValueError unless ``rel_tol`` is finite and >= 0: a NaN cutoff
    counts no singular value, and a negative one counts every one."""
    if not 0.0 <= rel_tol < math.inf:
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")


def _require_square(m: np.ndarray, name: str = "matrix") -> None:
    if m.shape[-2] != m.shape[-1]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")


def _binade_scaled(stack: np.ndarray):
    """``(scaled, power)``: each member of a stack times ``2^-power``, the
    power of two that brings its largest ``|entry|`` into [1/2, 1), which
    is exact; but with ``power`` 0 where that entry is within 2^±480, and
    with the stack itself, no copy, where every member's is."""
    rows = stack.reshape(len(stack), math.prod(stack.shape[1:]))
    fast = np.asfortranarray(rows)   # the members along the fast axis
    top = np.maximum(fast.max(1, initial=0.0), -fast.min(1, initial=0.0))
    power = np.frexp(top)[1]
    power[abs(power) < 480] = 0
    if power.any():
        stack = np.ldexp(stack, -power.reshape(-1, *[1] * (stack.ndim - 1)))
    return stack, power


def frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each member of a stack, at any scale: one dot
    product per member (numpy's ``norm``'s) of the member as
    :func:`_binade_scaled` scales it, so that its sum of squares is in
    range, scaled back; numpy's bits, with no copy, where no member is
    scaled."""
    scaled, power = _binade_scaled(stack)
    rows = scaled.reshape(len(stack), math.prod(stack.shape[1:]))[:, None]
    return np.ldexp(np.sqrt(rows @ rows.transpose(0, 2, 1)).ravel(), power)


def _asymmetries(m: np.ndarray):
    """Largest entry of ``|a - a.T|`` for each member ``a`` of a square
    stack, and whether it is within ``DEFAULT_SYMMETRY_TOL`` times the
    Frobenius norm."""
    asym = np.max(np.abs(m - m.transpose(0, 2, 1)), axis=(1, 2), initial=0.0)
    return asym, asym <= DEFAULT_SYMMETRY_TOL * frobenius_norms(m)


def inverse(a) -> np.ndarray:
    """Inverse of a square matrix; SingularMatrixError, instead of noise
    amplified, when its :func:`numerical_rank` is below its order."""
    return inverses(as_matrix(a)[None])[0]


def inverses(a) -> np.ndarray:
    """:func:`inverse` of each member of an ``(m, s, s)`` stack, after one
    :func:`numerical_ranks` of the stack, by ``inv`` of each member as
    :func:`_binade_scaled` scales it, scaled back; the first singular
    member raises SingularMatrixError with its position in ``index``."""
    m = as_matrix(a, "stack", 3)
    _require_square(m)
    singular = np.flatnonzero(numerical_ranks(m) < m.shape[-1])
    if singular.size:
        raise SingularMatrixError(
            f"matrix of shape {m.shape[1:]} is singular to working precision",
            index=int(singular[0]),
        )
    scaled, power = _binade_scaled(m)
    return np.ldexp(np.linalg.inv(scaled), -power[:, None, None])


def sign_log_determinant(a) -> tuple[float, float]:
    """Return ``(sign, log|det|)``; sign is 0.0 when the input is singular.

    Safe for determinants far beyond float range, e.g. large block matrices
    whose determinant overflows ``np.linalg.det``.
    """
    m = as_matrix(a)
    _require_square(m)
    signs, logs = sign_log_determinants(m[None])
    return float(signs[0]), float(logs[0])


def sign_log_determinants(stack: np.ndarray):
    """``(signs, log|det|s)`` of each member of a square stack, from one
    batched ``slogdet`` of the stack as :func:`_binade_scaled` scales it,
    with each member's ``N power ln 2`` added back: LU pivots of subnormal
    or huge entries lose bits or leave float range, those of the scaled
    member do not.  Members within 2^±480 get ``slogdet``'s bits."""
    m, power = _binade_scaled(stack)
    signs, logs = np.linalg.slogdet(m)
    return signs, logs + m.shape[-1] * power * math.log(2.0)


def symmetric_eigenvalues(a) -> np.ndarray:
    """All eigenvalues of a symmetric matrix, sorted in descending order.

    Raises NotSymmetricError instead of quietly symmetrizing, so that an
    asymmetric matrix reaching a spectral routine is caught as a bug.
    """
    m = as_matrix(a)
    _require_square(m)
    asym, symmetric = _asymmetries(m[None])
    if not symmetric[0]:
        raise NotSymmetricError(
            f"matrix is not symmetric: max |a - a.T| entry {asym[0]:.3e}"
        )
    return np.linalg.eigvalsh(m)[::-1].copy()


def numerical_rank(a, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above ``rel_tol`` times the largest one,
    from ``eigvalsh`` where :func:`_certified_ranks` certifies it."""
    return int(numerical_ranks(as_matrix(a)[None], rel_tol)[0])


def numerical_ranks(a, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """:func:`numerical_rank` of each member of an ``(m, r, c)`` stack: the
    exactly symmetric square members certified from one batched
    ``eigvalsh`` (:func:`_certified_ranks`), the others, and those it does
    not certify, from one batched SVD; each as :func:`_binade_scaled`
    scales it, so that no singular value overflows."""
    _require_rel_tol(rel_tol)
    m = as_matrix(a, "stack", 3)
    ranks = np.zeros(len(m), dtype=int)
    if 0 in m.shape[1:]:
        return ranks
    m = _binade_scaled(m)[0]
    left = np.ones(len(m), dtype=bool)
    if m.shape[1] == m.shape[2]:
        exact = (m == m.transpose(0, 2, 1)).all(axis=(1, 2))
        symmetric = np.flatnonzero(exact)
        if symmetric.size:
            certified, ranks[symmetric] = _certified_ranks(m[symmetric],
                                                           rel_tol)
            left[symmetric[certified]] = False
    if left.any():
        sv = np.linalg.svd(m[left], compute_uv=False)
        # a zero matrix has no singular value above 0 * rel_tol, hence rank 0
        ranks[left] = np.count_nonzero(
            sv > rel_tol * sv.max(axis=1, keepdims=True), axis=1)
    return ranks


def _certified_ranks(m: np.ndarray, rel_tol: float):
    """``(certified, counts)`` for a stack of exactly symmetric matrices:
    the count of ``|lam|`` above ``rel_tol max|lam|`` from one batched
    ``eigvalsh``, and whether it is certainly the count of singular values
    above ``rel_tol sigma_1`` that the SVD gives.  The singular values of a
    symmetric matrix are its ``|lam|``, and LAPACK computes either set to
    within ``p(N) eps sigma_1`` (*LAPACK Users' Guide*, section 4.7), so the
    two counts agree when every ``|lam|`` is more than
    ``_CERTIFICATE_SAFETY N eps max|lam|`` from the cutoff.  A zero member,
    and one whose eigenvalues leave float range, certify nothing.
    """
    lam = np.abs(np.linalg.eigvalsh(m))
    top = lam.max(axis=1, keepdims=True)
    margin = _CERTIFICATE_SAFETY * m.shape[-1] * np.finfo(float).eps * top
    with np.errstate(over="ignore", invalid="ignore"):
        gap = lam - rel_tol * top
        certified = (np.abs(gap) > margin).all(axis=1)
    return certified, np.count_nonzero(gap > 0.0, axis=1)


def spd_inverse_sqrts(w) -> np.ndarray:
    """Symmetric ``m`` with ``m @ m == inv(w)`` for each SPD member ``w`` of
    an ``(m, s, s)`` stack, from one batched eigendecomposition.

    A member is SPD when it is symmetric within ``DEFAULT_SYMMETRY_TOL``
    and its smallest eigenvalue is above ``DEFAULT_RANK_TOL`` times its
    largest, which is positive: the cutoff of :func:`numerical_rank`, so an
    SPD member is a nonsingular one, but where the ratio is within rounding
    of the cutoff.  There :func:`numerical_rank` leaves the count to the
    SVD, and ``eigh`` and the SVD can round to different sides.  The first
    member that is not SPD raises NotSPDError with its position in
    ``index``.
    """
    m = as_matrix(w, "stack", 3)
    _require_square(m)
    asym, symmetric = _asymmetries(m)
    lam, vec = np.linalg.eigh(m)
    spd = (symmetric & (lam[:, -1] > 0.0)
           & (lam[:, 0] > DEFAULT_RANK_TOL * lam[:, -1]))
    if not spd.all():
        k = int(np.argmin(spd))
        if not symmetric[k]:
            raise NotSPDError(f"matrix is not symmetric: max |a - a.T| entry "
                              f"{asym[k]:.3e}", index=k)
        raise NotSPDError(f"matrix is not positive definite: eigenvalue range "
                          f"[{lam[k, 0]:.3e}, {lam[k, -1]:.3e}]", index=k)
    root = (vec / np.sqrt(lam)[:, None, :]) @ vec.transpose(0, 2, 1)
    # eigh round-off can leave a ~1e-16 asymmetry; return exactly
    # symmetric factors
    return 0.5 * (root + root.transpose(0, 2, 1))


class Inertia(NamedTuple):
    """Eigenvalue sign counts (positive, negative, zero) of a symmetric
    matrix."""

    positive: int
    negative: int
    zero: int


def inertia_of(eigenvalues) -> Inertia:
    """Count eigenvalues above, below, and within ``DEFAULT_RANK_TOL *
    max|lam|`` of zero."""
    lam = np.asarray(eigenvalues, dtype=float).ravel()
    if lam.size == 0:
        return Inertia(0, 0, 0)
    cut = DEFAULT_RANK_TOL * float(np.max(np.abs(lam)))
    positive = int(np.count_nonzero(lam > cut))
    negative = int(np.count_nonzero(lam < -cut))
    return Inertia(positive, negative, lam.size - positive - negative)


class BlockMatrix:
    """A dense array of equally sized square blocks: ``data`` has shape
    (rows * block_size, cols * block_size).  Its attributes cannot be set
    or deleted."""

    __slots__ = ("data", "block_size")
    __setattr__ = __delattr__ = refuse_change

    def __init__(self, data: np.ndarray, block_size: int):
        m = as_matrix(data, "data")
        s = block_size
        if s < 1:
            raise ValueError(f"block_size must be >= 1, got {s}")
        if m.shape[0] % s or m.shape[1] % s:
            raise ValueError(
                f"shape {m.shape} does not divide into {s}x{s} blocks"
            )
        object.__setattr__(self, "data", m)
        object.__setattr__(self, "block_size", block_size)

    def __repr__(self) -> str:
        return f"BlockMatrix(data={self.data!r}, block_size={self.block_size!r})"

    def __reduce__(self):
        return type(self), (self.data, self.block_size)
