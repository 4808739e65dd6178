import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwtrees.checks import (
    block_planes,
    inverse_cholesky,
    largest_pair_norm,
    pair_contractions,
    pseudo_inverse,
)
from mwtrees.closedforms import (
    rank_deficient_weighting,
    reweighted_scalar_laplacian,
)
from mwtrees.errors import NotSPDError, NotSymmetricError, SingularMatrixError
from mwtrees.graphs import MatrixWeightedGraph
from mwtrees.linalg import (
    DEFAULT_RANK_TOL,
    DEFAULT_SYMMETRY_TOL,
    BlockMatrix,
    Inertia,
    _certified_ranks,
    frobenius_norms,
    inertia_of,
    inverse,
    inverses,
    numerical_rank,
    numerical_ranks,
    sign_log_determinant,
    sign_log_determinants,
    spd_inverse_sqrts,
    symmetric_eigenvalues,
)

from conftest import conditioned_matrix, graded_spd

# Scalar path on 3 vertices: distance matrix and Laplacian worked out by hand.
PATH3_D = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 1.0], [2.0, 1.0, 0.0]])
PATH3_L = np.array([[1.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 1.0]])
# Eigenvalues of PATH3_D: roots of x^3 - 6x - 4 = (x + 2)(x^2 - 2x - 2).
PATH3_D_EIGS = np.array([1.0 + math.sqrt(3.0), 1.0 - math.sqrt(3.0), -2.0])


def test_inverse_frozen_swap_scale():
    w = np.array([[0.0, 2.0], [1.0, 0.0]])
    expected = np.array([[0.0, 1.0], [0.5, 0.0]])
    assert np.allclose(inverse(w), expected, atol=1e-14)


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        inverse(np.array([[1.0, 2.0], [2.0, 4.0]]))
    with pytest.raises(SingularMatrixError):
        inverse(np.zeros((3, 3)))


def test_inverse_rejects_numerically_singular():
    w = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularMatrixError):
        inverse(w)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.floats(-11.0, 0.0), st.integers(0, 10**6))
def test_inverse_singular_exactly_when_rank_deficient(s, log_ratio, seed):
    w = conditioned_matrix(s, 10.0**log_ratio, np.random.default_rng(seed))
    deficient = numerical_rank(w) < s
    try:
        inverse(w)
    except SingularMatrixError:
        assert deficient
    else:
        assert not deficient


def test_inverse_rejects_non_square_and_non_finite():
    with pytest.raises(ValueError):
        inverse(np.ones((2, 3)))
    with pytest.raises(ValueError):
        inverse(np.array([[1.0, np.nan], [0.0, 1.0]]))


def test_determinant_frozen():
    sign, log_abs = sign_log_determinant(np.array([[0.0, 2.0], [1.0, 0.0]]))
    assert sign == -1.0 and log_abs == pytest.approx(math.log(2.0))


def test_sign_log_determinant_beyond_float_range():
    # the plain determinant 1e400 overflows float64; the log form does not
    m = np.diag([1e200, 1e200])
    sign, log_abs = sign_log_determinant(m)
    assert sign == 1.0
    assert log_abs == pytest.approx(2 * math.log(1e200), rel=1e-12)


def test_sign_log_determinant_matches_determinant():
    m = np.array([[2.0, 1.0], [1.0, -3.0]])
    sign, log_abs = sign_log_determinant(m)
    assert sign * math.exp(log_abs) == pytest.approx(np.linalg.det(m),
                                                     rel=1e-12)


@pytest.mark.parametrize("k", [-1060, -600, 600, 1000])
def test_sign_log_determinants_scale_members_beyond_range(k):
    # 2^k M has log|det| = log|det M| + 3 k ln 2; slogdet of the subnormal
    # or huge member itself loses bits or leaves float range.  The
    # members within 2^+-480 keep slogdet's bits.
    rng = np.random.default_rng(6)
    scaled = rng.standard_normal((4, 3, 3))
    scaled[1:3] = np.ldexp(scaled[1:3], k)
    # 2^-k times the (rounded) scaled members is exact
    signs, logs = np.linalg.slogdet(
        np.ldexp(scaled, np.array([0, -k, -k, 0])[:, None, None]))
    got_signs, got_logs = sign_log_determinants(scaled)
    assert np.array_equal(got_signs, signs)
    assert got_logs[[0, 3]].tolist() == logs[[0, 3]].tolist()
    assert got_logs[1:3] == pytest.approx(logs[1:3] + 3 * k * math.log(2.0),
                                          rel=1e-14)
    assert sign_log_determinant(scaled[1]) == (got_signs[1], got_logs[1])


@pytest.mark.parametrize("order", [1, 63, 64, 65, 129, 300])
@pytest.mark.parametrize("ratio", [1.0, 1e-4, 1e-8])
def test_spd_inverse_matches_the_lu_inverse(order, ratio):
    # on either side of the order at which the triangle's halves stop
    # splitting, within N eps cond of the LU inverse, exactly symmetric;
    # the upper triangle is not read
    eps = np.finfo(float).eps
    a = graded_spd(order, ratio, np.random.default_rng(order))
    y = inverse_cholesky(a)
    h = y.T @ y
    lu = np.linalg.inv(a)
    cond = np.linalg.cond(a)
    assert np.linalg.norm(h - lu) <= order * eps * cond * np.linalg.norm(lu)
    assert np.array_equal(h, h.T)
    rubbish = np.triu(np.random.default_rng(0).standard_normal(a.shape), 1)
    y = inverse_cholesky(np.tril(a) + rubbish)
    assert np.array_equal(y.T @ y, h)


def test_spd_inverse_rejects_what_is_not_positive_definite():
    # indefinite, singular, and a pivot c_jj^2 = eps a_jj that is pure
    # rounding: the grounded Laplacian of a triangle with inverse weights
    # 1, 1 and -1/2, whose determinant is 0
    for a in (np.array([[0.0, 1.0], [1.0, 0.0]]), np.ones((2, 2)),
              np.array([[2.0, -1.0], [-1.0, 0.5]])):
        with pytest.raises(SingularMatrixError, match="positive definite"):
            inverse_cholesky(a)
    with pytest.raises(ValueError):
        inverse_cholesky(np.ones((2, 3)))


def test_symmetric_eigenvalues_path3():
    eigs = symmetric_eigenvalues(PATH3_D)
    assert np.allclose(eigs, PATH3_D_EIGS, atol=1e-9)
    assert np.all(np.diff(eigs) <= 0)


def test_symmetric_eigenvalues_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetric_eigenvalues_accepts_zero_matrix():
    assert np.array_equal(symmetric_eigenvalues(np.zeros((2, 2))), np.zeros(2))


def test_numerical_rank_frozen():
    assert numerical_rank(np.ones((3, 3))) == 1
    assert numerical_rank(np.eye(4)) == 4
    assert numerical_rank(np.zeros((2, 5))) == 0
    assert numerical_rank(PATH3_L) == 2


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_numerical_rank_permutation_invariant(seed):
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(4, 3)) @ rng.uniform(-1.0, 1.0, size=(3, 4))
    perm = rng.permutation(4)
    assert numerical_rank(m[perm][:, perm]) == numerical_rank(m)


# --- the symmetric rank certificate ----------------------------------------


def _svd_rank(a: np.ndarray, rel_tol: float = DEFAULT_RANK_TOL) -> int:
    """The count of ``np.linalg.svd``'s values above ``rel_tol sigma_1``."""
    sv = np.linalg.svd(a, compute_uv=False)
    return int(np.count_nonzero(sv > rel_tol * sv.max()))


def _symmetric(kind: str, n: int, cutoff: float, rng) -> np.ndarray:
    """An exactly symmetric ``n x n`` matrix with eigenvalues of one kind:
    positive; of both signs; non-negative with some exact zeros; or of both
    signs and graded log-evenly from 1 to a ratio ``cutoff (1 +- 10^u)``,
    u in [-10, 0], which may be within rounding of the cutoff or not."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    lam = np.exp(rng.uniform(-3.0, 3.0, n))
    if kind == "deficient":
        lam[rng.choice(n, int(rng.integers(1, n + 1)), replace=False)] = 0.0
    elif kind == "graded":
        off = rng.choice([-0.5, 1.0]) * 10.0 ** rng.uniform(-10.0, 0.0)
        lam = np.geomspace(1.0, cutoff * (1.0 + off), n)
    if kind in ("indefinite", "graded"):
        lam *= rng.choice([-1.0, 1.0], n)
    a = (q * lam) @ q.T
    return a + a.T


def _witness_laplacian(shape: str, size: int) -> np.ndarray:
    """The scalar Laplacian of a cycle, a size x size grid or K_size,
    reweighted by its rank-deficient weighting."""
    if shape == "cycle":
        n, edges = size, [(v, v % size + 1) for v in range(1, size + 1)]
    elif shape == "grid":
        n, at = size * size, np.arange(1, size * size + 1).reshape(size, size)
        edges = [*zip(at[:, :-1].ravel().tolist(), at[:, 1:].ravel().tolist()),
                 *zip(at[:-1].ravel().tolist(), at[1:].ravel().tolist())]
    else:
        n, edges = size, [(u, v) for u in range(1, size + 1)
                          for v in range(u + 1, size + 1)]
    g = MatrixWeightedGraph(n, 1, [(u, v, [[1.0]]) for u, v in edges])
    witness = rank_deficient_weighting(g)
    return reweighted_scalar_laplacian(g, witness.edge_index, witness.w)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["psd", "indefinite", "deficient", "graded"]),
    st.integers(1, 12),
    st.sampled_from([DEFAULT_RANK_TOL, 1e-8]),
    st.integers(0, 10**6),
)
def test_symmetric_ranks_are_the_svd_counts(kind, n, rel_tol, seed):
    # certified from eigvalsh or, within rounding of the cutoff, by the SVD:
    # the count is the SVD's either way
    a = _symmetric(kind, n, rel_tol, np.random.default_rng(seed))
    assert np.array_equal(a, a.T)
    assert numerical_rank(a, rel_tol) == _svd_rank(a, rel_tol)


@pytest.mark.parametrize("shape, size", [
    ("cycle", 3), ("cycle", 10), ("grid", 2), ("grid", 3), ("grid", 5),
    ("complete", 3), ("complete", 8)])
def test_witness_laplacians_are_ranked_by_eigvalsh_alone(
        monkeypatch, shape, size):
    # the witness Laplacian is positive semidefinite, with two eigenvalues
    # within rounding of zero, far below the cutoff: its rank is
    # certified, and it is the SVD's
    lap = _witness_laplacian(shape, size)
    want = _svd_rank(lap)
    assert want == len(lap) - 2
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        calls.append(a) or real(a, *args, **kwargs))
    assert numerical_rank(lap) == want
    assert numerical_ranks(lap[None]).tolist() == [want]
    assert calls == []


def test_a_symmetric_matrix_near_the_cutoff_takes_the_svd(monkeypatch):
    # eigvalsh puts this weight's eigenvalue ratio just above the 1e-9
    # cutoff and the SVD its singular value ratio just below it (the weight
    # of the closed-form suite's "spd by eigh but singular by the SVD"
    # test): the certificate refuses it, and the SVD counts
    w = np.array([[0.540706287931328, -0.49834024286982687],
                  [-0.49834024286982687, 0.4592937130686719]])
    lam = np.abs(np.linalg.eigvalsh(w))
    assert np.count_nonzero(lam > DEFAULT_RANK_TOL * lam.max()) == 2
    assert _svd_rank(w) == 1
    calls = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        calls.append(np.array(a)) or real(a, *args, **kwargs))
    assert numerical_rank(w) == 1
    assert len(calls) == 1 and np.array_equal(calls[0], w[None])
    assert numerical_ranks(np.stack([np.eye(2), w, np.eye(2)])).tolist() == [
        2, 1, 2]
    assert np.array_equal(calls[1], w[None])   # only w, of the three
    assert numerical_rank(np.zeros((3, 3))) == 0   # a zero member too
    assert len(calls) == 3


@pytest.mark.parametrize("order", [2, 5, 40])
@pytest.mark.parametrize("t", [2, 8, 32])
def test_an_eigenvalue_within_the_certificate_margin_takes_the_svd(order, t):
    # sigma_1 = 1 and one eigenvalue t N eps above the cutoff: inside the
    # margin of 64 N eps that covers LAPACK's error, so eigvalsh may not
    # decide the count, though here it and the SVD are exact and agree
    eps = np.finfo(float).eps
    a = np.diag([1.0] * (order - 1) + [DEFAULT_RANK_TOL + t * order * eps])
    certified = _certified_ranks(a[None], DEFAULT_RANK_TOL)[0]
    assert not certified[0]
    assert numerical_rank(a) == _svd_rank(a) == order


def test_pseudo_inverse_frozen_rank_one():
    m = np.ones((2, 2))
    assert np.allclose(pseudo_inverse(m), 0.25 * np.ones((2, 2)), atol=1e-14)


def test_pseudo_inverse_of_path3_laplacian():
    # hand value: entries of 18 * pinv are integers
    expected = np.array(
        [[10.0, -2.0, -8.0], [-2.0, 4.0, -2.0], [-8.0, -2.0, 10.0]]
    ) / 18.0
    assert np.allclose(pseudo_inverse(PATH3_L), expected, atol=1e-12)


#: Allowance, in units of eps times the norms of its factors, for the
#: rounding of a Penrose product: the worst of the seeds 0 to 10^6 needs 52.
PENROSE_SLACK = 1e3


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
@example(9746)   # singular values 2.5, 1.9, 3.7e-4: ||p m p - p|| = 2.6e-10
def test_pseudo_inverse_penrose_conditions(seed):
    # each residual is rounding of the size eps ||p||^a ||m||^b of the
    # product it bounds, a and b counting its factors p and m
    rng = np.random.default_rng(seed)
    m = rng.uniform(-1.0, 1.0, size=(4, 3)) @ rng.uniform(-1.0, 1.0, size=(3, 4))
    p = pseudo_inverse(m)
    unit = PENROSE_SLACK * np.finfo(float).eps
    norm_m, norm_p = np.linalg.norm(m), np.linalg.norm(p)
    assert np.linalg.norm(m @ p @ m - m) <= unit * norm_p * norm_m ** 2
    assert np.linalg.norm(p @ m @ p - p) <= unit * norm_p ** 2 * norm_m
    assert np.linalg.norm((m @ p) - (m @ p).T) <= unit * norm_p * norm_m
    assert np.linalg.norm((p @ m) - (p @ m).T) <= unit * norm_p * norm_m


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 3),
       st.sampled_from([1e-9, 1e-3]), st.integers(0, 10**6))
def test_pseudo_inverse_is_numpys_pinv_bit_for_bit(rows, cols, deficit,
                                                   rel_tol, seed):
    rng = np.random.default_rng(seed)
    rank = max(min(rows, cols) - deficit, 0)
    m = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
    assert np.array_equal(pseudo_inverse(m, rel_tol),
                          np.linalg.pinv(m, rcond=rel_tol))


def test_pseudo_inverse_of_invertible_is_inverse():
    m = np.array([[2.0, 1.0], [1.0, 3.0]])
    assert np.allclose(pseudo_inverse(m), inverse(m), atol=1e-12)


def test_spd_inverse_sqrt_frozen_diagonal():
    m = spd_inverse_sqrts(np.diag([4.0, 9.0])[None])[0]
    assert np.allclose(m, np.diag([0.5, 1.0 / 3.0]), atol=1e-14)


def test_spd_inverse_sqrt_squares_to_inverse():
    w = np.array([[2.0, 1.0], [1.0, 3.0]])
    m = spd_inverse_sqrts(w[None])[0]
    assert np.array_equal(m, m.T)
    assert np.allclose(m @ m, inverse(w), atol=1e-12)


def test_spd_inverse_sqrt_rejects_non_spd():
    for w, reason in ((np.array([[0.0, 1.0], [1.0, 0.0]]), "definite"),
                      (np.array([[1.0, 1.0], [0.0, 1.0]]), "symmetric"),
                      (np.diag([1.0, 0.0]), "definite"),   # singular
                      # SPD only above the rank cutoff: nonsingular too
                      (np.diag([1.0, 1e-10]), "definite")):
        with pytest.raises(NotSPDError, match=reason):
            spd_inverse_sqrts(w[None])


def test_is_spd_and_is_symmetric():
    # SPD-ness and symmetry are decided by the kernels that need them
    spd_inverse_sqrts(np.diag([1.0, 2.0])[None])
    with pytest.raises(NotSPDError):
        spd_inverse_sqrts(np.array([[[0.0, 1.0], [1.0, 0.0]]]))
    symmetric_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]]))
    symmetric_eigenvalues(np.zeros((2, 2)))
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_symmetry_test_survives_entries_whose_squares_overflow():
    # the Frobenius norm of [[1e200, 2e200], [0, 1e200]] is 2.4e200, but
    # its squares overflow; an infinite norm made it look symmetric
    lopsided = np.array([[1e200, 2e200], [0.0, 1e200]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotSymmetricError):
            symmetric_eigenvalues(lopsided)
        symmetric_eigenvalues(lopsided + lopsided.T)
        stack = np.array([np.diag([1.0, 2.0]), 1e200 * np.eye(2), lopsided])
        spd_inverse_sqrts(stack[:2])
        with pytest.raises(NotSPDError, match="not symmetric") as info:
            spd_inverse_sqrts(stack)
        assert info.value.index == 2


def test_rank_and_inverse_of_a_matrix_whose_singular_values_overflow():
    # the SVD of 1e308 m gives [inf, inf, 1e308], and no value is above
    # 1e-9 inf: unscaled, the nonsingular matrix had rank 0
    m = np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0], [1.0, 1.0, -1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert numerical_rank(1e308 * m) == 3
        assert numerical_ranks(np.array([m, 1e308 * m])).tolist() == [3, 3]
        got = inverse(1e308 * m)
    # its entries are subnormal, and keep about 50 bits
    assert np.allclose(got * 1e308, np.linalg.inv(m), rtol=0.0, atol=1e-12)


def test_symmetry_test_sees_a_subnormal_asymmetry():
    # the asymmetry 2.5 2^-1060 is subnormal and so is 1e-9 times the norm;
    # a 1e-300 floor under the norm swamped it and made the weight SPD
    tiny = np.ldexp(np.array([[1.0, 2.0], [-0.5, 1.0]]), -1060)
    with pytest.raises(NotSPDError, match="not symmetric"):
        spd_inverse_sqrts(tiny[None])
    with pytest.raises(NotSymmetricError):
        symmetric_eigenvalues(tiny)
    spd_inverse_sqrts(np.ldexp(np.eye(2), -1060)[None])


@pytest.mark.parametrize("k", [-1000, -600, -470, 470, 600, 1000])
def test_frobenius_norms_scale_exactly_and_match_numpy_in_range(k):
    # members beyond 2^+-480 are scaled, those within it are not
    rng = np.random.default_rng(5)
    stack = np.concatenate([rng.standard_normal((6, 3, 4)),
                            np.zeros((1, 3, 4))])
    norms = frobenius_norms(stack)
    assert np.array_equal(norms, [np.linalg.norm(a) for a in stack])
    assert np.array_equal(frobenius_norms(np.ldexp(stack, k)),
                          np.ldexp(norms, k))


def test_frobenius_norms_at_the_ends_of_float_range():
    ends = np.array([np.full((2, 2), 2.0 ** -1074),
                     np.full((2, 2), 2.0 ** 1021)])
    assert frobenius_norms(ends).tolist() == [2.0 ** -1073, 2.0 ** 1022]
    assert frobenius_norms(np.zeros((0, 2, 2))).shape == (0,)


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [numerical_rank, pseudo_inverse,
                                  lambda a, tol: numerical_ranks(a[None], tol)],
                         ids=["rank", "pseudo_inverse", "ranks"])
def test_rank_cutoffs_that_are_nan_infinite_or_negative_are_refused(call,
                                                                    rel_tol):
    # a NaN cutoff counted rank 0 for the identity
    with pytest.raises(ValueError, match="rel_tol must be finite and >= 0"):
        call(np.eye(3), rel_tol)


def test_inertia_of_frozen():
    assert inertia_of([3.0, 0.5, 0.0, -2.0]) == Inertia(2, 1, 1)
    assert inertia_of([1e-30, -1e-30, 2.0]) == Inertia(1, 0, 2)
    assert inertia_of([]) == Inertia(0, 0, 0)


def test_block_matrix_rejects_indivisible_shape():
    with pytest.raises(ValueError):
        BlockMatrix(np.zeros((3, 4)), 2)
    with pytest.raises(ValueError):
        BlockMatrix(np.zeros((4, 4)), 0)


def test_pair_contractions_hand_value():
    every = pair_contractions(block_planes(PATH3_D, 1))
    # D_11 + D_22 - D_12 - D_21 = 0 + 0 - 1 - 1
    assert every[0, 0, 0, 1] == -2.0
    # D_11 + D_33 - D_13 - D_31 = 0 + 0 - 2 - 2
    assert every[0, 0, 0, 2] == -4.0


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 12), st.sampled_from([1, 2, 8]), st.integers(0, 10**6))
def test_pair_contractions_match_pair_contraction(n, s, seed):
    # asymmetric blocks: B_ij and B_ji differ, and so do the two orders
    data = np.random.default_rng(seed).standard_normal((n * s, n * s))
    planes = block_planes(data, s)
    every = pair_contractions(planes)
    assert every.shape == (s, s, n, n)
    # into a work array's slot: the same bytes, in the slot given
    slot = np.full((2, s, s, n, n), np.nan)[1]
    assert pair_contractions(planes, out=slot) is slot
    assert slot.tobytes() == every.tobytes()
    # the bit reference: one pair's blocks at a time, added up in this order
    b = data.reshape(n, s, n, s)
    for i in range(n):
        for j in range(n):
            pair_contraction = ((b[i, :, i] + b[j, :, j]) - b[i, :, j]) - b[j, :, i]
            assert np.array_equal(every[:, :, i, j], pair_contraction)


@pytest.mark.parametrize("s", [1, 3])
def test_block_planes_lay_out_each_block_entry(s):
    n = 4
    data = np.arange((n * s) ** 2, dtype=float).reshape(n * s, n * s)
    planes = block_planes(data, s)
    assert planes.shape == (s, s, n, n) and planes.flags.c_contiguous
    blocks = data.reshape(n, s, n, s)
    for i in range(n):
        for j in range(n):
            assert np.array_equal(planes[:, :, i, j], blocks[i, :, j])
    # a view, no copy, when the blocks are scalars
    assert np.shares_memory(planes, data) == (s == 1)
    # or a copy into the slot given
    out = np.full((s, s, n, n), np.nan)
    assert block_planes(data, s, out=out) is out
    assert out.tobytes() == planes.tobytes()


def _every_pair_norm(planes: np.ndarray) -> float:
    """The largest Frobenius norm over the pairs i < j, from the norms of
    every pair's block, stacked in pair order."""
    blocks = planes.transpose(2, 3, 0, 1)[np.triu_indices(planes.shape[-1], 1)]
    return float(frobenius_norms(blocks).max(initial=0.0))


def _pair_planes(n: int, s: int, rng, ties: bool) -> np.ndarray:
    planes = rng.standard_normal((s, s, n, n))
    # blocks whose scales run over most of the float range, and a few at
    # the largest scale, to crowd the largest norm
    scales = rng.integers(-1060, 1000, (n, n))
    scales[rng.random((n, n)) < 0.2] = 990
    planes = np.ldexp(planes, scales)
    if ties and n > 2:   # blocks (1, 2) and (1, 3) are the same, and largest
        planes[:, :, 0, 1] = planes[:, :, 0, 2] = np.ldexp(
            rng.standard_normal((s, s)), 1000)
    return planes


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.sampled_from([1, 2, 8]), st.booleans(),
       st.integers(0, 10**6))
def test_largest_pair_norm_has_the_bits_of_every_pair_norm(n, s, ties, seed):
    planes = _pair_planes(n, s, np.random.default_rng(seed), ties)
    assert largest_pair_norm(planes) == _every_pair_norm(planes)
    # and at one scale, where the sums of squares decide
    even = np.random.default_rng(seed).standard_normal((s, s, n, n))
    assert largest_pair_norm(even) == _every_pair_norm(even)


def test_largest_pair_norm_breaks_near_ties_as_every_pair_norm_does():
    # every block above the diagonal holds the same entries in another
    # order: their norms agree to within rounding, which orders the sums
    # of squares and the norms differently
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, s = 6, 8
        entries = rng.standard_normal(s * s)
        planes = np.zeros((s, s, n, n))
        for i, j in zip(*np.triu_indices(n, 1)):
            planes[:, :, i, j] = rng.permutation(entries).reshape(s, s)
        assert largest_pair_norm(planes) == _every_pair_norm(planes), seed


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_largest_pair_norm_norms_every_pair_of_non_finite_planes(bad):
    planes = np.random.default_rng(5).standard_normal((2, 2, 5, 5))
    for i, j in [(0, 3), (3, 0), (2, 2)]:   # above, below, on the diagonal
        spoilt = planes.copy()
        spoilt[1, 0, i, j] = bad
        with np.errstate(over="ignore", invalid="ignore"):
            got, want = largest_pair_norm(spoilt), _every_pair_norm(spoilt)
        assert got == want or (math.isnan(got) and math.isnan(want))
        if i < j:
            assert not math.isfinite(got)


def test_largest_pair_norm_norms_every_pair_when_only_the_lower_pairs_count():
    # the pairs above the diagonal are 2^-600 of those below: after the
    # scaling their sums of squares underflow, and cannot order them
    planes = np.random.default_rng(6).standard_normal((2, 2, 6, 6))
    upper = np.triu(np.ones((6, 6)), 1).astype(bool)
    planes[:, :, upper] = np.ldexp(planes[:, :, upper], -600)
    assert largest_pair_norm(planes) == _every_pair_norm(planes) > 0.0
    assert largest_pair_norm(np.zeros((3, 3, 1, 1))) == 0.0


# --- stacked kernels --------------------------------------------------------
#
# The references below are the per-matrix computations, written out with
# numpy calls on one matrix at a time; the stacked kernels must give the
# same bytes.

MEMBER_KINDS = ("spd", "asymmetric", "near_singular", "singular",
                "near_cutoff", "huge", "tiny")


def _member(kind: str, s: int, rng) -> np.ndarray:
    if kind in ("huge", "tiny"):
        # beyond 2^+-480: the kernels scale it by a power of two first
        base = _member(str(rng.choice(["spd", "asymmetric", "singular"])), s,
                       rng)
        return np.ldexp(base, 600 if kind == "huge" else -600)
    if kind == "spd":
        q = np.linalg.qr(rng.standard_normal((s, s)))[0]
        w = (q * np.exp(rng.uniform(-3.0, 3.0, s))) @ q.T
        return 0.5 * (w + w.T)
    if kind == "asymmetric":
        return rng.uniform(-1.0, 1.0, (s, s))
    if kind == "near_singular":
        # singular value ratio around the rank cutoff of 1e-9
        return conditioned_matrix(s, 10.0 ** rng.uniform(-11.0, -7.0), rng)
    if kind == "near_cutoff":
        # exactly symmetric, eigenvalues of random signs, the smallest
        # |eigenvalue| within rounding of the cutoff: the rank certificate
        # leaves it to the SVD
        q = np.linalg.qr(rng.standard_normal((s, s)))[0]
        lam = np.geomspace(1.0, 1e-9 * (1.0 + rng.uniform(-1e-6, 1e-6)), s)
        w = (q * (lam * rng.choice([-1.0, 1.0], s))) @ q.T
        return w + w.T
    w = rng.uniform(-1.0, 1.0, (s, s))
    w[-1] = 0.0  # a zero row: exactly singular
    return w


def _rank_reference(w: np.ndarray) -> int:
    sv = np.linalg.svd(w, compute_uv=False)
    return int(np.count_nonzero(sv > DEFAULT_RANK_TOL * sv.max()))


def _spd_reference(w: np.ndarray) -> bool:
    asym = np.max(np.abs(w - w.T))
    top = np.max(np.abs(w))   # so that no square of a huge member overflows
    norm = top * np.linalg.norm(w / top) if top else 0.0
    if asym > DEFAULT_SYMMETRY_TOL * max(1e-300, float(norm)):
        return False
    lam = np.linalg.eigh(w)[0]
    return bool(lam[-1] > 0.0 and lam[0] > DEFAULT_RANK_TOL * lam[-1])


def _inverse_sqrt_reference(w: np.ndarray) -> np.ndarray:
    lam, vec = np.linalg.eigh(w)
    root = (vec / np.sqrt(lam)) @ vec.T
    return 0.5 * (root + root.T)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 8),
    st.lists(st.sampled_from(MEMBER_KINDS), min_size=1, max_size=6),
    st.integers(0, 10**6),
)
def test_stacked_kernels_match_per_matrix_calls_bit_for_bit(s, kinds, seed):
    rng = np.random.default_rng(seed)
    stack = np.array([_member(kind, s, rng) for kind in kinds])

    ranks = [_rank_reference(w) for w in stack]
    assert numerical_ranks(stack).tolist() == ranks
    assert [numerical_rank(w) for w in stack] == ranks
    singular = [k for k, r in enumerate(ranks) if r < s]
    if singular:
        with pytest.raises(SingularMatrixError) as info:
            inverses(stack)
        assert info.value.index == singular[0]
    else:
        expected = np.array([np.linalg.inv(w) for w in stack])
        assert inverses(stack).tobytes() == expected.tobytes()
        assert np.array([inverse(w) for w in stack]).tobytes() == \
            expected.tobytes()

    flags = [_spd_reference(w) for w in stack]
    if all(flags):
        expected = np.array([_inverse_sqrt_reference(w) for w in stack])
        assert spd_inverse_sqrts(stack).tobytes() == expected.tobytes()
        assert np.array([spd_inverse_sqrts(w[None])[0]
                         for w in stack]).tobytes() == expected.tobytes()
    else:
        with pytest.raises(NotSPDError) as info:
            spd_inverse_sqrts(stack)
        assert info.value.index == flags.index(False)


def test_stacked_kernels_accept_empty_stacks():
    empty = np.zeros((0, 3, 3))
    assert numerical_ranks(empty).shape == (0,)
    assert inverses(empty).shape == (0, 3, 3)
    assert spd_inverse_sqrts(empty).shape == (0, 3, 3)


def test_stacked_kernels_reject_bad_shapes():
    with pytest.raises(ValueError):
        numerical_ranks(np.eye(2))
    with pytest.raises(ValueError):
        inverses(np.ones((2, 2, 3)))
    with pytest.raises(ValueError):
        spd_inverse_sqrts(np.full((1, 2, 2), np.inf))
    with pytest.raises(ValueError):
        spd_inverse_sqrts(np.ones((1, 2, 3)))
