"""Dense linear-algebra kernels shared by the whole package.

Everything here works on plain float64 numpy arrays, with numpy as the only
backend.  Rank, symmetry and definiteness decisions are made with relative
thresholds so they behave the same across scales.  The rank cutoff below
can be overridden per call of the rank functions and the pseudo-inverse;
the symmetry and zero cutoffs are fixed.  A square matrix is singular
exactly when its :func:`numerical_rank` at the default cutoff falls short
of its order: :func:`inverse` and every invertibility check use that one
test.  :func:`inverse_cholesky`, the one Cholesky kernel, for a matrix
positive definite by construction, takes no rank test: a pivot within
rounding of zero raises instead.

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


def block_planes(data: np.ndarray, s: int) -> np.ndarray:
    """The (s, s, n, n) planes of a square array of s x s blocks: ``[a, b,
    i, j]`` is entry (a, b) of block (i, j), 0-based.  Contiguous, and a
    view of ``data``, no copy, when s = 1."""
    n = data.shape[0] // s
    return np.ascontiguousarray(data.reshape(n, s, n, s).transpose(1, 3, 0, 2))


def pair_contractions(planes: np.ndarray) -> np.ndarray:
    """:meth:`BlockMatrix.pair_contraction` of every block pair (i, j), as
    planes: ``((B_ii + B_jj) - B_ij) - B_ji``, the same float operations
    in the same order, so the same bits, with every loop n long."""
    d = np.diagonal(planes, axis1=2, axis2=3)
    out = d[..., :, None] + d[..., None, :]
    out -= planes
    out -= planes.swapaxes(2, 3)
    return out


def largest_pair_norm(planes: np.ndarray) -> float:
    """The largest :func:`frobenius_norms` of the blocks (i, j), i < j, of
    an array given as planes, 0.0 with no pair: that of the blocks whose
    sums of squares, after :func:`_binade_scaled`, are within 2^-24 of the
    largest, far above their s^2 eps rounding, so the same bits as that of
    every block; of every block when that largest sum is inf, NaN or below
    2^-1000, where squares that underflow could reorder the blocks."""
    s, _, n, _ = planes.shape
    scaled = _binade_scaled(planes.reshape(1, -1))[0].reshape(s * s, n, n)
    sums = np.triu(np.einsum("kij,kij->ij", scaled, scaled), 1)
    top = sums.max(initial=0.0)
    if 2.0 ** -1000 <= top < math.inf:
        i, j = np.nonzero(sums >= (1.0 - 2.0 ** -24) * top)
    else:
        i, j = np.triu_indices(n, 1)
    blocks = planes.transpose(2, 3, 0, 1)[i, j]
    return float(frobenius_norms(blocks).max(initial=0.0))


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


def inverse_cholesky(a) -> np.ndarray:
    """Y = C^-1, by :func:`_lower_inverse`, for the Cholesky factor C of
    the lower triangle of a symmetric positive definite ``a``.  ``Y.T @
    Y`` is then a^-1 as LAPACK's ``xPOTRI`` forms it, in about half the
    flops of an LU inverse, and ``Y @ b`` whitens b: ``(Y b)^T (Y b)`` is
    ``b^T a^-1 b``.  numpy computes such products as a ``syrk``, so they
    are exactly symmetric.  The upper triangle is not read, and no rank
    test is made: a pivot that is not positive, or that is within the
    factorization's rounding of zero, raises SingularMatrixError.
    """
    m = as_matrix(a)
    _require_square(m)
    try:
        factor = np.linalg.cholesky(m)
        # the factor's backward error moves a_jj by up to about N eps a_jj,
        # so a smaller pivot c_jj^2 could as well be zero
        positive = (np.diagonal(factor) ** 2
                    > len(m) * np.finfo(float).eps * np.diagonal(m)).all()
    except np.linalg.LinAlgError:
        positive = False
    if not positive:
        raise SingularMatrixError("matrix is not positive definite to "
                                  "working precision")
    return _lower_inverse(factor)


#: Order up to which :func:`_lower_inverse` takes numpy's LU inverse.
_TRIANGLE_LEAF = 64


def _lower_inverse(c: np.ndarray) -> np.ndarray:
    """Inverse of a nonsingular lower triangle, by splitting it in two:
    ``[[A, 0], [B, D]]^-1 = [[A^-1, 0], [-D^-1 B A^-1, D^-1]]``, so every
    product is a GEMM; up to order ``_TRIANGLE_LEAF``, the lower triangle
    of ``np.linalg.inv``'s inverse, whose row swaps leave rounding above
    the diagonal."""
    n = len(c)
    if n <= _TRIANGLE_LEAF:
        return np.tril(np.linalg.inv(c))
    k = n // 2
    y = np.zeros_like(c)
    top = y[:k, :k] = _lower_inverse(c[:k, :k])
    bottom = y[k:, k:] = _lower_inverse(c[k:, k:])
    np.negative(bottom @ (c[k:, :k] @ top), out=y[k:, :k])
    return y


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


def pseudo_inverse(a, rel_tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Moore-Penrose pseudo-inverse with the same rank cutoff as
    :func:`numerical_rank`: ``np.linalg.pinv``'s, from one SVD."""
    return np.linalg.pinv(as_matrix(a), rcond=rel_tol)


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

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.positive, self.negative, self.zero)


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
    """A dense array addressed as a grid of equally sized square blocks.

    ``data`` has shape (rows * block_size, cols * block_size).  Block indices
    are 1-based to match vertex numbering; ``block(i, j)`` returns a copy of
    the block at grid position (i, j).  Its attributes cannot be set or
    deleted.
    """

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

    @property
    def block_rows(self) -> int:
        return self.data.shape[0] // self.block_size

    @property
    def block_cols(self) -> int:
        return self.data.shape[1] // self.block_size

    def block(self, i: int, j: int) -> np.ndarray:
        """The ``block_size`` x ``block_size`` submatrix at 1-based grid
        position (i, j)."""
        if not (1 <= i <= self.block_rows and 1 <= j <= self.block_cols):
            raise IndexError(
                f"block ({i}, {j}) out of range for "
                f"{self.block_rows}x{self.block_cols} grid"
            )
        s = self.block_size
        return self.data[(i - 1) * s : i * s, (j - 1) * s : j * s].copy()

    def pair_contraction(self, i: int, j: int) -> np.ndarray:
        """``block(i,i) + block(j,j) - block(i,j) - block(j,i)``.

        For a generalized inverse of a block Laplacian this combination is
        the same for every member of the family, which is what makes it a
        usable distance surrogate.
        """
        return (
            self.block(i, i) + self.block(j, j)
            - self.block(i, j) - self.block(j, i)
        )
