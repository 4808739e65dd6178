import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from mwtrees.checks import (
    IDENTITY_NAMES,
    cholesky_g_inverse_data,
    cycle_g_inverse_data,
    ginverse_distance_recovery,
    ginverse_invariance_check,
    inertia_check,
    interlacing_check,
    rank_characterization_probe,
    tree_g_inverse_data,
    verification_suite,
    verify_identities,
)
from mwtrees.closedforms import (
    FAIL,
    PASS,
    SKIPPED,
    LaplacianMode,
    distance_determinant_sign_log,
    distance_inverse,
    distance_matrix,
    invertibility_check,
    laplacian,
    rank_deficient_weighting,
    reweighted_scalar_laplacian,
)
from mwtrees.errors import (
    BadConfigError,
    IsATreeError,
    MWTreesError,
    NonFiniteError,
    NotATreeError,
    NotInvertibleError,
    NotSPDError,
)
from mwtrees.gallery import (
    cycle4_block2,
    cycle_graph,
    diamond4,
    path4_block2,
    path_graph,
    star_graph,
)
from mwtrees.generators import (
    GenConfig,
    WeightKind,
    random_connected_nontree,
    random_nonsingular,
    random_spd,
    random_tree,
)
from mwtrees.graphs import MatrixWeightedGraph, is_tree
from mwtrees.linalg import (
    Inertia,
    inverse,
    numerical_rank,
)
from mwtrees.operators import _subtree_runs, block_laplacian

from conftest import (
    conditioned_matrix,
    dense_identity_reports,
    distance_inverse_factored,
    ginverse_reference,
    graded_spd,
    grounded_inverse_oracle,
    probe_reweightings,
    spanning_tree_oracle,
    svd_interlacing_status,
)


def complete_graph(n: int) -> MatrixWeightedGraph:
    return MatrixWeightedGraph(
        n,
        1,
        [(u, v, [[1.0]]) for u in range(1, n + 1) for v in range(u + 1, n + 1)],
    )


# --- determinant -----------------------------------------------------------


def test_determinant_single_edge():
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[5.0]])])
    # D = [[0, 5], [5, 0]] by hand
    sign, log_abs = distance_determinant_sign_log(g)
    assert sign == -1.0
    assert log_abs == pytest.approx(math.log(25.0), rel=1e-12)


def test_determinant_scalar_path4():
    g = path_graph(4)
    d = distance_matrix(g).data
    sign, log_abs = distance_determinant_sign_log(g)
    assert sign == -1.0
    assert log_abs == pytest.approx(math.log(12.0), rel=1e-12)
    assert np.linalg.det(d) == pytest.approx(-12.0, rel=1e-9)


def test_determinant_path4_block2():
    sign, log_abs = distance_determinant_sign_log(path4_block2())
    assert sign == -1.0
    assert log_abs == pytest.approx(math.log(896.0), rel=1e-12)


def test_determinant_singular_weight_sum():
    # scalar weights +1 and -1 cancel, so the distance matrix is singular
    g = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    sign, log_abs = distance_determinant_sign_log(g)
    assert sign == 0.0 and log_abs == -math.inf
    assert np.linalg.det(distance_matrix(g).data) == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("k", [-1060, 1000])
def test_determinant_of_weights_beyond_range_is_exact(k):
    # every weight 2^k M, det M = 2, on a 5-star, s = 2: det D =
    # 2^6 (2^(2k + 1))^4 det(4 2^k M) = 2^(10 k + 15).  slogdet of the
    # subnormal weights lost a factor 2 on each and on R (k = -1060)
    w = np.ldexp(np.array([[1.0, 2.0], [-0.5, 1.0]]), k)
    sign, log_abs = distance_determinant_sign_log(star_graph(5, 2, [w] * 4))
    assert sign == 1.0
    assert log_abs == pytest.approx((10 * k + 15) * math.log(2.0), rel=1e-15)


def test_determinant_rejects_non_trees():
    with pytest.raises(NotATreeError):
        distance_determinant_sign_log(cycle_graph(4))


@pytest.mark.parametrize("s", [1, 2])
def test_overflowed_weight_sum_is_rejected_not_read(s):
    # every weight and D are finite, but R = 3 * 7e307 I overflows to inf
    big = 7e307 * np.eye(s)
    star = MatrixWeightedGraph(4, s, [(1, k, big) for k in (2, 3, 4)])
    assert np.isfinite(distance_matrix(star).data).all()
    assert np.isfinite(laplacian(star).data).all()
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match="non-finite"):
            distance_determinant_sign_log(star)
        with pytest.raises(ValueError, match="non-finite"):
            invertibility_check(star)
        # a singular edge is named before R is looked at
        zero_edge = MatrixWeightedGraph(
            4, s, [(1, 2, big), (1, 3, np.zeros((s, s))), (1, 4, big)]
        )
        result = invertibility_check(zero_edge)
    assert not result.invertible and "edge 1 (1, 3)" in result.reason


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_determinant_matches_factorization(seed):
    g = random_tree(GenConfig(n_range=(2, 8), s_range=(1, 3),
                              kind=WeightKind.NONSINGULAR, seed=seed))
    sign_cf, log_cf = distance_determinant_sign_log(g)
    sign_lu, log_lu = np.linalg.slogdet(distance_matrix(g).data)
    assert sign_cf == pytest.approx(sign_lu)
    assert log_cf == pytest.approx(log_lu, abs=1e-8 * max(1.0, abs(log_lu)))


# --- invertibility and inverse ---------------------------------------------


def test_invertibility_check_paths():
    assert invertibility_check(path4_block2()).invertible
    singular_edge = MatrixWeightedGraph(
        2, 2, [(1, 2, [[1.0, 0.0], [0.0, 0.0]])]
    )
    result = invertibility_check(singular_edge)
    assert not result.invertible and "edge 0" in result.reason
    cancelling = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    result = invertibility_check(cancelling)
    assert not result.invertible and "sum" in result.reason
    # the verdict is the analysis's, from the rank tests of L and R^-1
    from mwtrees.closedforms import _analysis

    for g in (path4_block2(), singular_edge, cancelling):
        assert invertibility_check(g) is _analysis(g).invertibility


def test_a_weight_whose_singular_values_overflow_is_invertible():
    # its SVD overflows, and an unscaled rank test called it singular
    w = 1e308 * np.array([[1.0, 1.0, 1.0], [1.0, -1.0, 1.0],
                          [1.0, 1.0, -1.0]])
    g = path_graph(2, 3, [w])
    assert invertibility_check(g).invertible
    lap = laplacian(g).data
    assert np.isfinite(lap).all()
    assert np.allclose(lap[:3, :3] * 1e308, np.linalg.inv(w / 1e308),
                       rtol=0.0, atol=1e-12)


def test_distance_inverse_single_edge_hand_value():
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[5.0]])])
    expected = np.array([[0.0, 0.2], [0.2, 0.0]])
    assert np.allclose(distance_inverse(g).data, expected, atol=1e-14)


def test_distance_inverse_is_a_two_sided_inverse():
    g = path4_block2()
    d = distance_matrix(g).data
    d_inv = distance_inverse(g).data
    eye = np.eye(8)
    assert np.max(np.abs(d @ d_inv - eye)) < 1e-12
    assert np.max(np.abs(d_inv @ d - eye)) < 1e-12


def test_distance_inverse_raises_with_reason():
    cancelling = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    with pytest.raises(NotInvertibleError) as info:
        distance_inverse(cancelling)
    assert "sum" in info.value.reason


def test_distance_inverse_factored_matches_plain_route():
    g = random_tree(GenConfig(n_range=(5, 5), s_range=(2, 2),
                              kind=WeightKind.SPD, seed=20))
    plain = distance_inverse(g).data
    factored = distance_inverse_factored(g).data
    assert np.linalg.norm(plain - factored) < 1e-12 * max(
        1.0, np.linalg.norm(plain)
    )


def test_distance_inverse_factored_needs_spd():
    with pytest.raises(NotSPDError):
        distance_inverse_factored(path4_block2())


# --- identity suite ---------------------------------------------------------


def test_identities_scalar_path3_all_pass():
    reports = verify_identities(path_graph(3))
    assert [r.name for r in reports] == list(IDENTITY_NAMES)
    assert all(r.status == PASS for r in reports)
    assert all(r.residual < 1e-12 for r in reports)


def test_identities_path4_block2_skips_incidence_check():
    reports = {r.name: r for r in verify_identities(path4_block2())}
    for name in ("ld", "dl", "ldl", "dinv_minus_l"):
        assert reports[name].status == PASS
    assert reports["qdq"].status == SKIPPED
    assert "positive definite" in reports["qdq"].detail


def test_identities_need_invertible_distance_matrix():
    cancelling = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    with pytest.raises(NotInvertibleError):
        verify_identities(cancelling)


def test_incidence_compression_hand_value():
    # path on 3 vertices: Q = [[1, 0], [-1, 1], [0, -1]],
    # Q^T D Q = [[-2, 0], [0, -2]]
    from mwtrees.closedforms import incidence_matrix

    g = path_graph(3)
    q = incidence_matrix(g).data
    d = distance_matrix(g).data
    assert np.allclose(q.T @ d @ q, -2.0 * np.eye(2), atol=1e-12)


def test_shifted_inverse_closed_form_single_edge():
    # (D^{-1} - L)^{-1} = D/3 + (J kron sum W)/3 checked by hand for one edge
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[5.0]])])
    d = distance_matrix(g).data
    lap = laplacian(g, LaplacianMode.INVERTED).data
    shifted = distance_inverse(g).data - lap
    closed = d / 3.0 + 5.0 * np.ones((2, 2)) / 3.0
    assert np.allclose(shifted @ closed, np.eye(2), atol=1e-12)
    assert np.allclose(np.linalg.inv(shifted), closed, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_identities_hold_on_random_nonsingular_trees(seed):
    g = random_tree(GenConfig(n_range=(2, 8), s_range=(1, 3),
                              kind=WeightKind.NONSINGULAR, seed=seed))
    reports = verify_identities(g)
    for r in reports:
        assert r.status in (PASS, SKIPPED)
        if r.status == PASS:
            assert r.residual <= r.tolerance


def _oracle_tree(n: int, s: int, spd: bool, ratio: float,
                 seed: int) -> MatrixWeightedGraph:
    """A random recursive tree with SPD weights, or nonsingular ones, of
    eigenvalue (singular value) ratio ``ratio``."""
    rng = np.random.default_rng(seed)
    draw = graded_spd if spd else conditioned_matrix
    return MatrixWeightedGraph(n, s, [(int(rng.integers(1, v)), v,
                                       draw(s, ratio, rng))
                                      for v in range(2, n + 1)])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 4), st.booleans(),
       st.sampled_from([1.0, 1e-1, 1e-2]), st.integers(0, 2**32 - 1))
def test_identities_agree_with_the_dense_oracle(n, s, spd, ratio, seed):
    # ld and dl are the dense residuals to the bit; the probe estimates of
    # ldl, dinv_minus_l and qdq give the dense statuses
    g = _oracle_tree(n, s, spd, ratio, seed)
    assume(invertibility_check(g).invertible)
    got, want = verify_identities(g, seed=seed), dense_identity_reports(g)
    assert [r.status for r in got] == [r.status for r in want]
    assert got[0].residual == want[0].residual
    assert got[1].residual == want[1].residual


def test_identity_probes_are_drawn_from_the_seed():
    def records(seed):
        g = _probe_tree("prufer", 12, 3, True, 7)   # a fresh analysis
        return {r.name: r for r in verification_suite(g, "identities",
                                                      seed=seed)}

    first, again, other = records(0), records(0), records(5)
    assert first == again
    for name in ("ld", "dl"):
        assert other[name] == first[name]
    assert other["ldl"].residual != first["ldl"].residual
    for name in ("ldl", "dinv_minus_l", "qdq"):
        assert "8 Gaussian probes, seed 5" in other[name].detail


#: The identity records that read each array of the analysis.
IDENTITY_READS = {
    "distance": set(IDENTITY_NAMES),
    "laplacian": {"ld", "dl", "ldl", "dinv_minus_l"},
    "weight_sum": {"dinv_minus_l"},
}


@pytest.mark.parametrize("shape", ["path", "star", "prufer"])
@pytest.mark.parametrize("name", sorted(IDENTITY_READS))
def test_identity_records_detect_a_one_block_error(shape, name):
    # 1e-6 times the norm of D or L (over s) on every entry of one block,
    # or of R on every entry of R: each record that reads the array FAILs,
    # under the probes as under the dense oracle, and the others PASS
    from mwtrees.closedforms import _analysis, _read_only

    for seed in range(8):
        n, s = 3 + 2 * seed, 1 + seed % 4
        g = _probe_tree(shape, n, s, True, 600 + seed)
        a = _analysis(g)
        assert all(r.status == PASS for r in verify_identities(g))
        data = getattr(a, name).copy()   # the rest stays as it was built
        if name == "weight_sum":
            data += 1e-6 * np.linalg.norm(data) / s
        else:
            i, j = np.random.default_rng(seed).choice(n, 2, replace=False)
            data[i * s:(i + 1) * s, j * s:(j + 1) * s] += (
                1e-6 * np.linalg.norm(data) / s)
        a.__dict__[name] = _read_only(data)
        for reports in (verify_identities(g), dense_identity_reports(g)):
            failed = {r.name for r in reports if r.status == FAIL}
            assert failed == IDENTITY_READS[name], (seed, reports)


def test_distance_inverse_keeps_the_bits_of_the_kronecker_form():
    from mwtrees.graphs import delta_vector, weight_sum

    for seed in range(6):
        g = _oracle_tree(2 + 3 * seed, 1 + seed % 4, seed % 2 == 0, 1e-2,
                         seed)
        delta = delta_vector(g).astype(float)
        kron = -0.5 * laplacian(g).data + 0.5 * np.kron(
            np.outer(delta, delta), inverse(weight_sum(g)))
        assert np.array_equal(distance_inverse(g).data, kron)


def test_weight_sum_is_rank_tested_and_inverted_once_per_graph(monkeypatch):
    # the suite's invertibility, its probes, distance_inverse and the
    # builders share the rank tests that invert the weights for L and R for
    # R^-1
    from mwtrees import linalg
    from mwtrees.graphs import weight_sum

    g = _probe_tree("prufer", 10, 3, True, 5)
    stacks = {"weights": g.weights, "R": weight_sum(g)[None]}
    ranked = dict.fromkeys(stacks, 0)
    real = linalg.numerical_ranks

    def counted(a, *args, **kwargs):
        for key, stack in stacks.items():
            ranked[key] += np.array_equal(a, stack)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(linalg, "numerical_ranks", counted)
    verification_suite(g, "identities")
    distance_inverse(g)
    invertibility_check(g)
    laplacian(g)
    assert ranked == {"weights": 1, "R": 1}


# --- g-inverse checks -------------------------------------------------------


def test_ginverse_invariance_scalar_path3():
    report = ginverse_invariance_check(path_graph(3))
    assert report.status == PASS
    # deterministic: same call gives the identical report
    assert ginverse_invariance_check(path_graph(3)) == report


def test_ginverse_invariance_works_on_connected_non_trees():
    report = ginverse_invariance_check(diamond4(), seed=7)
    assert report.status == PASS


def test_ginverse_invariance_rejects_bad_inputs():
    with pytest.raises(NotSPDError):
        ginverse_invariance_check(path4_block2())
    disconnected = MatrixWeightedGraph(4, 1, [(1, 2, [[1.0]]), (3, 4, [[1.0]])])
    from mwtrees.errors import NotConnectedError

    with pytest.raises(NotConnectedError):
        ginverse_invariance_check(disconnected)


def test_ginverse_recovery_scalar_path3():
    report = ginverse_distance_recovery(path_graph(3))
    assert report.status == PASS
    assert report.residual < 1e-9


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("s", [1, 3])
def test_ginverse_records_pass_on_the_smallest_trees(n, s):
    # one vertex: no edge, an empty layout, and G_r the s x s zero block
    reports = verification_suite(path_graph(n, s), "ginverse")
    assert [(r.name, r.status) for r in reports] == [
        ("ginverse_invariance", PASS), ("ginverse_recovery", PASS)]


def test_ginverse_recovery_needs_tree_and_spd():
    with pytest.raises(NotATreeError):
        ginverse_distance_recovery(diamond4())
    with pytest.raises(NotSPDError):
        ginverse_distance_recovery(path4_block2())


# --- inertia and interlacing -----------------------------------------------


def test_inertia_scalar_path3():
    assert inertia_check(path_graph(3)) == Inertia(1, 2, 0)


def test_inertia_block_tree():
    g = random_tree(GenConfig(n_range=(6, 6), s_range=(3, 3),
                              kind=WeightKind.SPD, seed=4))
    assert inertia_check(g) == Inertia(3, 15, 0)


def test_inertia_rejects_non_tree_and_non_spd():
    with pytest.raises(NotATreeError):
        inertia_check(diamond4())
    with pytest.raises(NotSPDError):
        inertia_check(path4_block2())


def test_interlacing_scalar_path3_has_equality_case():
    report = interlacing_check(path_graph(3))
    assert report.passed
    assert report.triples.shape == (2, 3)
    # smallest distance eigenvalue -2 equals -2 / (second Laplacian
    # eigenvalue 1) exactly
    lower, mid, upper = report.triples[1]
    assert abs(lower - mid) < 1e-9
    assert mid <= upper + report.slack


def test_interlacing_fails_a_spectrum_off_by_far_less_than_one_percent(
    monkeypatch
):
    # path 3's chain holds with equality, mu[2] = -2 / lam[1] = -2: raising
    # mu[2] by 1e-5 max|mu| breaks it by about 900 times the slack
    from mwtrees import closedforms

    real = closedforms.symmetric_eigenvalues

    def shifted(a):
        mu = real(a)
        mu[-1] += 1e-5 * np.abs(mu).max()
        return mu

    monkeypatch.setattr(closedforms, "symmetric_eigenvalues", shifted)
    report = interlacing_check(path_graph(3))
    assert not report.passed
    assert report.worst_violation > 100 * report.slack
    record, = verification_suite(path_graph(3), "spectrum")[1:]
    assert (record.name, record.status) == ("interlacing", FAIL)


def test_interlacing_single_edge():
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[1.0]])])
    report = interlacing_check(g)
    assert report.passed
    # D eigenvalues (1, -1), L eigenvalues (2, 0): the one triple is
    # (-1, -1, 1)
    assert np.allclose(report.triples, [[-1.0, -1.0, 1.0]], atol=1e-12)


def test_inertia_is_skipped_on_a_single_vertex():
    # D is the s x s zero block, outside the statement's n >= 2
    reports = {r.name: r for r in verification_suite(path_graph(1, 2),
                                                     "spectrum")}
    assert reports["inertia"].status == SKIPPED
    assert reports["inertia"].detail == "needs n >= 2"
    assert reports["interlacing"].status == PASS


def test_interlacing_single_vertex_is_trivial():
    report = interlacing_check(MatrixWeightedGraph(1, 2, []))
    assert report.passed and report.triples.shape == (0, 3)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_interlacing_on_random_spd_trees(seed):
    g = random_tree(GenConfig(n_range=(2, 8), s_range=(1, 3),
                              kind=WeightKind.SPD, seed=seed))
    report = interlacing_check(g)
    assert report.passed
    assert report.worst_violation <= report.slack


# --- rank characterization --------------------------------------------------


def test_rank_probe_tree_branch():
    probe = rank_characterization_probe(path4_block2(), trials=3, seed=1)
    assert probe.branch == "tree"
    assert probe.full_rank == 6
    assert probe.observed_ranks == (6, 6, 6, 6)
    assert probe.passed


def _decomposed_members(monkeypatch) -> set:
    """The bytes of every matrix, from here on, passed to ``np.linalg.svd``,
    ``cond``, ``det`` or ``inv`` on its own or as a member of a stack."""
    seen = set()

    def recorded(fn):
        def wrapper(a, *args, **kwargs):
            a = np.asarray(a)
            seen.update(x.tobytes() for x in a.reshape(-1, *a.shape[-2:]))
            return fn(a, *args, **kwargs)
        return wrapper

    for name in ("svd", "cond", "det", "inv"):
        monkeypatch.setattr(np.linalg, name, recorded(getattr(np.linalg, name)))
    return seen


def _check_reweightings(draws: np.ndarray, blocks: np.ndarray) -> None:
    """Every draw has condition number at most the probe's cap, and its
    block inverts it to within s eps cap."""
    from mwtrees.checks import _PROBE_CONDITION_CAP as cap

    s = draws.shape[-1]
    for w, b in zip(draws.reshape(-1, s, s), blocks.reshape(-1, s, s)):
        assert np.linalg.cond(w) <= cap * (1 + 1e-12)
        assert np.linalg.norm(b @ w - np.eye(s)) <= s * np.finfo(float).eps * cap


def _recorded_probe(monkeypatch, g: MatrixWeightedGraph, trials: int,
                    seed: int) -> tuple:
    """The rank probe of the tree g and the ``(weights, blocks)`` of each
    Laplacian it ranks, read from the stacks of its one call of the
    certificate's bounds."""
    from mwtrees import checks

    stacks = []
    real = checks._tree_bounds
    monkeypatch.setattr(checks, "_tree_bounds",
                        lambda graph, tree, weights, blocks:
                        stacks.append((weights, blocks))
                        or real(graph, tree, weights, blocks))
    probe = rank_characterization_probe(g, trials, seed)
    assert len(stacks) == 1
    return probe, list(zip(*stacks[0]))


@pytest.mark.parametrize("s", [2, 3, 8, 9])
def test_rank_probe_reweights_with_successive_random_nonsingular_draws(
    monkeypatch, s
):
    # L's own blocks, the inverse weights, first; then trial t's draws and
    # blocks, those of the reference construction, none of them decomposed
    # or inverted, every trial with an asymmetric draw
    g = random_tree(GenConfig(n_range=(7, 7), s_range=(s, s), seed=s))
    decomposed = _decomposed_members(monkeypatch)
    probe, used = _recorded_probe(monkeypatch, g, 4, 9)
    decomposed = set(decomposed)   # before the checks below decompose

    draws, blocks = probe_reweightings(g.m, s, 4, 9)
    assert len(used) == 5
    weights, first = used[0]
    assert weights.tobytes() == g.weights.tobytes()
    assert first.tobytes() == np.array(
        [inverse(e.weight) for e in g.edges]).tobytes()
    for (w, b), want_w, want_b in zip(used[1:], draws, blocks):
        assert w.tobytes() == want_w.tobytes()
        assert b.tobytes() == want_b.tobytes()
        assert any(not np.array_equal(x, x.T) for x in w)
    assert not decomposed & {x.tobytes() for x in [*draws.reshape(-1, s, s),
                                                   *blocks.reshape(-1, s, s)]}
    _check_reweightings(draws, blocks)
    assert probe.observed_ranks == tuple(
        numerical_rank(block_laplacian(g, b)) for _, b in used)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 5), st.integers(0, 12),
       st.integers(0, 2**32 - 1))
@example(9, 5, 12, 0)
@example(3, 0, 4, 1)   # no reweighting: L's rank alone
@example(2, 3, 0, 2)   # one vertex: every draw stack is empty
def test_rank_probe_reweightings_are_inverted_and_well_conditioned(
    s, trials, m, seed
):
    # on an m-edge path, each of the trials sets is the reference's, within
    # the condition cap and inverted by its blocks, and the same on every
    # run of one seed
    g = path_graph(m + 1, s)
    runs = []
    for _ in range(2):
        with pytest.MonkeyPatch.context() as mp:
            runs.append(_recorded_probe(mp, g, trials, seed)[1])
    draws, blocks = probe_reweightings(m, s, trials, seed)
    for used in runs:
        assert len(used) == trials + 1
        for got, want in zip(zip(*used[1:]), (draws, blocks)):
            assert np.reshape(got, want.shape).tobytes() == want.tobytes()
    _check_reweightings(draws, blocks)
    if (s, trials, m, seed) == (9, 5, 12, 0):   # the first @example
        # draws that span the cap, 1e4: the worst of these 60 is beyond a
        # tenth of it
        assert max(np.linalg.cond(w) for w in draws.reshape(-1, s, s)) > 1e3


def _qr_calls(monkeypatch) -> list:
    """The shape of every array passed to ``np.linalg.qr`` from here on."""
    calls = []
    real = np.linalg.qr
    monkeypatch.setattr(np.linalg, "qr", lambda a, *args, **kwargs:
                        calls.append(np.shape(a)) or real(a, *args, **kwargs))
    return calls


def _probed_stacks(g: MatrixWeightedGraph, trials: int, seed) -> tuple:
    """The ``(draws, blocks)`` stacks of the reweightings that the rank
    probe of the tree g ranks, after L's own."""
    with pytest.MonkeyPatch.context() as mp:
        used = _recorded_probe(mp, g, trials, seed)[1][1:]
    return tuple(np.array(stack) for stack in zip(*used))


def test_rank_probe_draws_once_per_seed_and_shape(monkeypatch):
    # a path and a star of 6 edges of order 3: the second probe, with the
    # same integer seed as a numpy integer, reads the first one's draws
    from mwtrees import checks

    checks._memo_reweightings.cache_clear()
    calls = _qr_calls(monkeypatch)
    first = _probed_stacks(path_graph(7, 3), 4, 9)
    assert calls == [(4, 6, 3, 3)] * 2
    second = _probed_stacks(star_graph(7, 3), np.int64(4), np.int64(9))
    assert len(calls) == 2
    want = probe_reweightings(6, 3, 4, 9)
    for stacks in (first, second):
        assert [x.tobytes() for x in stacks] == [x.tobytes() for x in want]


def test_rank_probe_memo_holds_read_only_stacks():
    from mwtrees import checks

    draws, blocks = checks._memo_reweightings(9, 2, 3, 2)
    assert (draws.shape, blocks.shape) == ((2, 3, 2, 2),) * 2
    for stack in (draws, blocks):
        assert not stack.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            stack[0, 0, 0, 0] = 0.0


@pytest.mark.parametrize("seed", [lambda: np.random.default_rng(5),
                                  lambda: None], ids=["generator", "none"])
def test_rank_probe_draws_afresh_for_a_generator_or_no_seed(monkeypatch,
                                                            seed):
    # a shared generator moves on, and None seeds from the OS: each probe
    # draws its own reweightings, two QR calls each
    g = path_graph(5, 2)
    shared = seed()
    calls = _qr_calls(monkeypatch)
    first, second = (_probed_stacks(g, 3, shared) for _ in range(2))
    assert len(calls) == 4
    for a, b in zip(first, second):
        assert a.tobytes() != b.tobytes()


def test_rank_probe_memo_keeps_a_bounded_number_of_shapes():
    from mwtrees import checks

    memo = checks._memo_reweightings
    bound = memo.cache_info().maxsize
    for n in range(2, bound + 5):
        rank_characterization_probe(path_graph(n, 2), trials=1, seed=9)
    assert memo.cache_info().currsize == bound


def test_rank_probe_rejects_a_negative_trial_count():
    # no reweighting at all would pass on L's rank alone
    with pytest.raises(ValueError, match="trials must be >= 0"):
        rank_characterization_probe(path4_block2(), trials=-2)
    with pytest.raises(ValueError, match="trials must be >= 0"):
        verification_suite(path4_block2(), "rank", trials=-1)


@pytest.mark.parametrize("call", [
    lambda: verification_suite(path4_block2(), seed=-1),
    lambda: verify_identities(path4_block2(), seed=-1),
    lambda: ginverse_invariance_check(path_graph(4, 2), seed=-1),
    lambda: ginverse_distance_recovery(path_graph(4, 2), seed=-1),
    lambda: rank_characterization_probe(path4_block2(), seed=-1),
    lambda: random_spd(2, seed=-1),
    lambda: random_nonsingular(2, seed=-1),
    # graphs that fail a check's hypotheses: the seed is refused first
    lambda: ginverse_invariance_check(path4_block2(), seed=-1),
    lambda: ginverse_distance_recovery(path4_block2(), seed=-1),
    lambda: verification_suite(path4_block2(), "ginverse", seed=-1),
    lambda: rank_characterization_probe(diamond4(), seed=-1),
], ids=["suite", "identities", "invariance", "recovery", "rank_probe",
        "random_spd", "random_nonsingular", "invariance_not_spd",
        "recovery_not_spd", "ginverse_suite_not_spd", "rank_probe_witness"])
def test_seeded_calls_reject_a_negative_seed(call):
    # a ValueError naming the seed, as for trials, not numpy's message; and
    # not a package error, which the suite turns into SKIPPED records
    with pytest.raises(ValueError, match="seed must be >= 0, got -1") as info:
        call()
    assert not isinstance(info.value, MWTreesError)


@pytest.mark.parametrize("call", [
    lambda: rank_characterization_probe(diamond4(), trials=1.5),
    lambda: rank_characterization_probe(path4_block2(), trials=1.5),
    lambda: verification_suite(path_graph(3), "spectrum", trials=2.5),
], ids=["rank_probe_witness", "rank_probe_tree", "suite"])
def test_trial_counts_that_are_not_integers_are_refused(call):
    # the witness branch draws nothing, and the suite's spectrum checks
    # never read the count: refused all the same
    with pytest.raises(TypeError, match="trials must be an integer"):
        call()


@pytest.mark.parametrize("call", [
    lambda: rank_characterization_probe(diamond4(), seed=1.5),
    lambda: rank_characterization_probe(path4_block2(), seed="x"),
    lambda: ginverse_invariance_check(path4_block2(), seed=1.5),
    lambda: verify_identities(path4_block2(), seed=1.5),
], ids=["rank_probe_witness", "rank_probe_tree", "invariance_not_spd",
        "identities"])
def test_seeded_calls_reject_a_seed_that_is_not_an_integer(call):
    # refused on every branch, the witness's too, which draws nothing
    with pytest.raises(TypeError, match="seed must be an integer"):
        call()


@pytest.mark.parametrize("rel_tol", [math.nan, math.inf, -1.0])
@pytest.mark.parametrize("call", [
    lambda tol: verify_identities(path_graph(3), tol),
    lambda tol: rank_characterization_probe(path_graph(3), rel_tol=tol),
    lambda tol: rank_characterization_probe(diamond4(), rel_tol=tol),
    lambda tol: verification_suite(path_graph(3), "identities", rel_tol=tol),
], ids=["identities", "rank_probe_tree", "rank_probe_witness", "suite"])
def test_checks_reject_a_rel_tol_that_is_nan_infinite_or_negative(call,
                                                                   rel_tol):
    # a NaN cutoff counted no rank and a negative one FAILed every identity
    with pytest.raises(ValueError, match="rel_tol must be finite and >= 0"):
        call(rel_tol)


_RUNNERS = ("verify_identities", "ginverse_invariance_check",
            "ginverse_distance_recovery", "_inertia_record",
            "_interlacing_record", "_rank_record")


@pytest.mark.parametrize("suite, kwargs, error", [
    ("everything", {}, "unknown suite"),
    ("spectrum", {"seed": -1}, "seed must be >= 0"),
    ("spectrum", {"trials": -1}, "trials must be >= 0"),
    ("all", {"trials": -1}, "trials must be >= 0"),
    ("identities", {"rel_tol": -1.0}, "rel_tol must be finite"),
    ("all", {"rel_tol": math.nan}, "rel_tol must be finite"),
    ("ginverse", {"rel_tol": math.inf}, "rel_tol must be finite"),
    ("all", {"seed": 1.5}, "seed must be an integer"),
])
def test_suite_checks_its_arguments_before_any_runner(monkeypatch, suite,
                                                      kwargs, error):
    from mwtrees import checks

    called = []
    for name in _RUNNERS:
        monkeypatch.setattr(checks, name,
                            lambda *args, name=name: called.append(name) or [])
    verification_suite(path_graph(3))
    assert called == list(_RUNNERS)   # the spies see every runner
    called.clear()
    with pytest.raises((ValueError, TypeError), match=error):
        verification_suite(path_graph(3), suite, **kwargs)
    assert called == []


def test_rank_probe_witness_branch_diamond():
    probe = rank_characterization_probe(diamond4())
    assert probe.branch == "witness"
    assert probe.witness.endpoints == (1, 3)
    assert probe.observed_ranks == (2,)
    assert probe.passed


def test_deficient_weighting_diamond_frozen():
    w = rank_deficient_weighting(diamond4())
    assert w.endpoints == (1, 3)
    assert w.edge_index == 1
    assert (w.trees_with_edge, w.trees_without_edge) == (4, 4)
    assert w.w == -1.0
    assert spanning_tree_oracle(diamond4(), w.edge_index) == (4, 4)


def test_deficient_weighting_cycle_frozen():
    g = cycle_graph(4)
    w = rank_deficient_weighting(g)
    # all degrees tie, so the first stored edge is marked; 3 of the 4
    # spanning trees contain it
    assert w.edge_index == 0
    assert (w.trees_with_edge, w.trees_without_edge) == (3, 1)
    assert w.w == pytest.approx(-1.0 / 3.0, rel=1e-12)
    assert spanning_tree_oracle(g, 0) == (3, 1)


def test_deficient_weighting_complete4_frozen():
    g = complete_graph(4)
    w = rank_deficient_weighting(g)
    assert w.edge_index == 0
    assert (w.trees_with_edge, w.trees_without_edge) == (8, 8)
    assert w.w == -1.0
    assert spanning_tree_oracle(g, 0) == (8, 8)


def test_deficient_weighting_rejects_trees():
    with pytest.raises(IsATreeError):
        rank_deficient_weighting(path_graph(4))


def test_reweighted_scalar_laplacian_diamond_pattern():
    # marking edge (1, 3) with weight w gives the familiar 4x4 pattern;
    # at w = -1 its rank drops to 2
    w = -1.0
    expected = np.array(
        [
            [w + 2.0, -1.0, -w, -1.0],
            [-1.0, 2.0, -1.0, 0.0],
            [-w, -1.0, 2.0 + w, -1.0],
            [-1.0, 0.0, -1.0, 2.0],
        ]
    )
    lap = reweighted_scalar_laplacian(diamond4(), 1, w)
    assert np.array_equal(lap, expected)
    from mwtrees.linalg import numerical_rank

    assert numerical_rank(lap) == 2


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 10**6))
def test_deficient_weighting_matches_spanning_tree_oracle(seed):
    g = random_connected_nontree(
        GenConfig(n_range=(3, 7), s_range=(1, 1),
                  kind=WeightKind.SCALAR_POSITIVE, seed=seed)
    )
    w = rank_deficient_weighting(g)
    assert spanning_tree_oracle(g, w.edge_index) == (
        w.trees_with_edge,
        w.trees_without_edge,
    )
    assert w.trees_with_edge > 0 and w.trees_without_edge > 0


# --- one decomposition of L -------------------------------------------------


def _topology(shape: str, size: int, rng) -> tuple[int, list[tuple[int, int]]]:
    """Vertex count and edges of a random recursive tree, a path, a
    size x size grid or K_size."""
    if shape == "tree":
        return size, [(int(rng.integers(1, v)), v) for v in range(2, size + 1)]
    if shape == "path":
        return size, [(v - 1, v) for v in range(2, size + 1)]
    if shape == "grid":
        at = np.arange(1, size * size + 1).reshape(size, size)
        pairs = [*zip(at[:, :-1].ravel(), at[:, 1:].ravel()),
                 *zip(at[:-1].ravel(), at[1:].ravel())]
        return size * size, [(int(u), int(v)) for u, v in pairs]
    return size, [(u, v) for u in range(1, size + 1)
                  for v in range(u + 1, size + 1)]


SPD_SHAPES = st.tuples(
    st.sampled_from(["tree", "path", "grid", "complete"]),
    st.integers(2, 10),
    st.integers(1, 8),
    st.sampled_from([1.0, 1e-2, 1e-4, 1e-6]),   # down to nearly singular
    st.integers(0, 2**32 - 1),
)


def _spd_graph(shape, size, s, ratio, seed) -> MatrixWeightedGraph:
    if shape == "grid":
        size = min(size, 4)
    elif shape == "complete":
        size = max(min(size, 7), 3)
    rng = np.random.default_rng(seed)
    n, edges = _topology(shape, size, rng)
    return MatrixWeightedGraph(
        n, s, [(u, v, graded_spd(s, ratio, rng)) for u, v in edges]
    )


@settings(max_examples=60, deadline=None)
@given(SPD_SHAPES)
def test_spectrum_rank_pinv_and_ginverses_of_spd_laplacians(case):
    # the eigenvalues interlacing reads are the singular values of L to
    # rounding, the probe's first rank is its SVD rank, and the grounded
    # inverses meet the defining equation L H L = L
    from mwtrees.checks import _seeded_root, g_inverse
    from mwtrees.closedforms import _analysis

    g = _spd_graph(*case)
    a = _analysis(g)
    lap = a.laplacian
    assert a.spd
    lam = np.linalg.svd(lap, compute_uv=False)
    assert np.allclose(a.laplacian_eigenvalues, lam, rtol=0.0,
                       atol=1e-12 * lam.max())
    if a.tree:   # certified or computed, the probe's first rank
        for rel_tol in (1e-9, 3e-7, 3e-5, 3e-3):   # off the weight ratios
            probe = rank_characterization_probe(g, trials=0, rel_tol=rel_tol)
            assert probe.observed_ranks == (numerical_rank(lap, rel_tol),)

    # to round-off times the condition number of L on the range of its
    # pseudo-inverse: on trees its (n - 1) s nonzero singular values, off
    # them those above pinv's 1e-9 cutoff
    if a.tree:
        kept = lam[:(g.n - 1) * g.s]
    else:
        kept = lam[lam > 1e-9 * lam.max()]
    rtol = max(1e-9, 1e-12 * kept.max() / kept.min())
    norm_l, norm_p = np.linalg.norm(lap), math.sqrt(np.sum(kept ** -2.0))
    for seed in (0, 1, 2):
        h = g_inverse(a, _seeded_root(g.n, seed))
        assert np.linalg.norm(lap @ h @ lap - lap) <= (
            rtol * norm_l * max(norm_p * norm_l, np.linalg.norm(h) * norm_l))


@settings(max_examples=25, deadline=None)
@given(SPD_SHAPES.map(lambda case: (*case[:3], 1e-6, case[4])))
def test_nearly_singular_weights_fail_only_the_ldl_identity(case):
    # correct inputs: every record but ldl, whose tolerance ignores the
    # conditioning of L, passes (the g-inverse and spectral checks included)
    reports = verification_suite(_spd_graph(*case), "all")
    assert {r.name for r in reports if r.status == FAIL} <= {"ldl"}


def _ill_conditioned_tree(cond: float, skew: float) -> MatrixWeightedGraph:
    """A tree whose first weight has condition number ``cond`` and the
    asymmetry ``skew`` times its norm (the SPD test admits up to 1e-9)."""
    rng = np.random.default_rng(3)
    q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    w = (q * np.geomspace(1.0, 1.0 / cond, 3)) @ q.T
    w = 0.5 * (w + w.T) + skew * np.linalg.norm(w) * np.triu(np.ones((3, 3)), 1)
    return MatrixWeightedGraph(4, 3, [(1, 2, w), (2, 3, 2.0 * np.eye(3)),
                                      (2, 4, np.diag([1.0, 2.0, 3.0]))])


@pytest.mark.parametrize("cond, skew", [(1e8, 0.0), (1e3, 4e-10),
                                        (1e7, 4e-10)])
def test_ill_conditioned_spd_weights_get_reports_not_errors(cond, skew):
    # inverting a weight scales its admitted asymmetry by its condition
    # number; no check may then reject L as asymmetric or skip the graph
    g = _ill_conditioned_tree(cond, skew)
    from mwtrees.closedforms import _analysis

    assert _analysis(g).spd
    for suite in ("ginverse", "spectrum", "rank"):
        reports = verification_suite(g, suite)
        assert reports and all(r.status != SKIPPED for r in reports)
    assert interlacing_check(g).passed


def test_graded_tree_ginverse_records_pass_where_pinv_cut_the_range():
    # weights of eigenvalue ratio 1e-6: pinv's 1e-9 cutoff drops nonzero
    # singular values of L, and g-inverses built on it failed both records
    # with residual / tolerance about 3e5 and 6e5; grounded inverses in
    # closed form cut nothing
    g = _probe_tree("path", 24, 2, True, 108, ratio=1e-6)
    assert numerical_rank(laplacian(g).data) < (g.n - 1) * g.s
    reports = {r.name: r for r in verification_suite(g, "ginverse")}
    assert reports["ginverse_invariance"].status == PASS
    assert reports["ginverse_recovery"].status == PASS


def _perturbed(g: MatrixWeightedGraph, name: str) -> MatrixWeightedGraph:
    """``g`` with 1e-6 times the Frobenius norm of its analysis's ``name``
    array added to every entry of block (1, n) of that array."""
    from mwtrees.closedforms import _analysis, _read_only

    a = _analysis(g)
    data = getattr(a, name).copy()
    s, n = g.s, g.n
    data[:s, (n - 1) * s:] += 1e-6 * np.linalg.norm(data)
    a.__dict__[name] = _read_only(data)
    return g


@pytest.mark.parametrize("shape", ["path", "star", "prufer"])
def test_ginverse_records_detect_a_one_block_error(monkeypatch, shape):
    # ten times the tolerance in one block of the second grounded inverse,
    # 1e-6 ||L^+||_F, or of D, 1e-6 ||D||_F: the record that reads it fails
    from mwtrees import checks

    real = checks.g_inverse
    for seed in range(8):
        n, s = 3 + 2 * seed, 1 + seed % 4

        def tree():
            return _probe_tree(shape, n, s, True, 400 + seed)

        reports = {r.name: r.status for r in verification_suite(tree(),
                                                                "ginverse")}
        assert reports == {"ginverse_invariance": PASS,
                           "ginverse_recovery": PASS}
        # two seeds that draw different roots
        first = next(k for k in range(100)
                     if checks._seeded_root(n, k)
                     != checks._seeded_root(n, k + 1))
        second = checks._seeded_root(n, first + 1)
        g = tree()
        assert ginverse_invariance_check(g, first).status == PASS
        shift = 1e-6 * np.linalg.norm(np.linalg.pinv(laplacian(g).data))

        def perturbed(self, root):
            h = real(self, root)
            if root != second:
                return h
            data = h.copy()
            data[:s, (n - 1) * s:] += shift
            return data

        with monkeypatch.context() as patch:
            patch.setattr(checks, "g_inverse", perturbed)
            assert ginverse_invariance_check(g, first).status == FAIL
        g = _perturbed(tree(), "distance")
        assert ginverse_distance_recovery(g, seed=2).status == FAIL


@pytest.mark.parametrize("ratio", [1.0, 1e-4, 1e-6])
def test_graded_spd_trees_pass_the_ginverse_records(ratio):
    for shape in ("path", "star", "recursive", "prufer"):
        for seed in range(20):
            g = _probe_tree(shape, 3 + seed, 1 + seed % 4, True, 500 + seed,
                            ratio=ratio)
            for r in verification_suite(g, "ginverse"):
                assert r.status == PASS, (shape, seed, r)


def test_tree_ginverse_checks_take_no_projectors(monkeypatch):
    # a tree's g-inverses are grounded inverses in closed form; a
    # non-tree's take one Cholesky factorization of the (n s) x (n s)
    # grounded L at each seed's root, and no LU inverse of the (n - 1) s
    # rows it keeps.  Neither takes pinv or a projector.
    calls = []
    for name in ("inv", "pinv", "cholesky"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda a, *args, _name=name, _real=real, **kw:
                            calls.append((_name, np.shape(a)))
                            or _real(a, *args, **kw))

    def large():   # the weight stacks are 3-D, the grounded L is 2-D
        return [call for call in calls if len(call[1]) == 2]

    g = _probe_tree("prufer", 12, 3, True, 4)
    reports = verification_suite(g, "ginverse")
    assert all(r.status == PASS for r in reports)
    assert large() == []
    g = diamond4()
    calls.clear()
    assert verification_suite(g, "ginverse", seed=5)[0].status == PASS
    size = g.n * g.s
    factor = ("cholesky", (size, size))
    assert [c for c in large() if c[0] != "inv"] == [factor] * 2  # seeds 5, 6
    assert ("inv", (size - g.s, size - g.s)) not in large()


def _non_tree(shape: str, size: int, s: int, ratio: float,
              seed: int) -> MatrixWeightedGraph:
    """A cycle on ``size`` vertices, a grid of side min(size, 4), K_n with
    n = min(size, 7), or a random recursive tree plus 1, 2 or 3 edges it
    lacks ("tree+k"), with :func:`graded_spd` weights."""
    rng = np.random.default_rng(seed)
    if shape == "cycle":
        n, edges = size, [(v - 1, v) for v in range(2, size + 1)] + [(1, size)]
    elif shape in ("grid", "complete"):
        n, edges = _topology(shape, min(size, 4 if shape == "grid" else 7),
                             rng)
    else:
        n, edges = _topology("tree", size, rng)
        missing = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
                   if (u, v) not in edges]
        picks = rng.choice(len(missing), min(int(shape[-1]), len(missing)),
                           replace=False)
        edges += [missing[i] for i in picks]
    return MatrixWeightedGraph(
        n, s, [(u, v, graded_spd(s, ratio, rng)) for u, v in edges]
    )


NON_TREE_SHAPES = st.tuples(
    st.sampled_from(["cycle", "grid", "complete", "tree+1", "tree+2",
                     "tree+3"]),
    st.integers(3, 8),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-2, 1e-4]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(NON_TREE_SHAPES)
def test_non_tree_g_inverse_samples_centre_to_the_pseudo_inverse(case):
    # each grounded inverse H is a g-inverse, L H L = L, and P H P = L^+ for
    # P = (I - J/n) kron I_s, both to the rounding of the Cholesky inverse
    # of the grounded L and of the products and sums: N eps ||L||^2 ||H||
    # and N eps (cond(L) ||L^+|| + ||H||).  G_r vanishes on the block row
    # and column of its root.
    from mwtrees.checks import _seeded_root, g_inverse
    from mwtrees.closedforms import _analysis

    g = _non_tree(*case)
    a = _analysis(g)
    assert a.spd and not a.tree
    size = g.n * g.s
    centring = np.kron(np.eye(g.n) - 1.0 / g.n, np.eye(g.s))
    lap = a.laplacian
    pinv = np.linalg.pinv(lap)
    sv = np.linalg.svd(lap, compute_uv=False)
    cond = sv[0] / sv[size - g.s - 1]
    eps = np.finfo(float).eps
    norm_l, norm_p = np.linalg.norm(lap), np.linalg.norm(pinv)
    for seed in range(3):
        root = _seeded_root(g.n, seed)
        h = g_inverse(a, root)
        grounded = h.reshape(g.n, g.s, g.n, g.s)
        assert not grounded[root - 1].any()
        assert not grounded[:, :, root - 1].any()
        norm_h = np.linalg.norm(h)
        assert np.linalg.norm(lap @ h @ lap - lap) <= (
            8 * size * eps * norm_l ** 2 * norm_h)
        centred = centring @ h @ centring
        assert np.linalg.norm(centred - pinv) <= (
            8 * size * eps * (cond * norm_p + norm_h))


CYCLE_SHAPES = st.tuples(
    st.sampled_from(["cycle", "tree+1", "tree+2", "tree+3"]),
    st.integers(5, 12),
    st.integers(1, 4),
    st.sampled_from([1.0, 1e-2, 1e-4, 1e-6, 1e-8]),
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=40, deadline=None)
@given(CYCLE_SHAPES)
def test_cycle_route_g_inverse_matches_the_cholesky_route(case):
    # G_r as the spanning tree's closed form G_T less Y^T Y, taken here
    # whatever the route rule picks: exactly symmetric, exactly zero on
    # the root's block row and column, L G_r L = L and P G_r P = L^+ to
    # the bounds of the Cholesky route above, and within N eps cond(L) of
    # that route's G_r at the same root.  Each bound takes ||G_T|| for
    # ||H||: G_r is G_T less a positive semidefinite term, so it carries
    # the rounding of G_T, whose norm reached 5.8e3 times its own at ratio
    # 1e-8 in these draws
    from mwtrees.checks import _seeded_root
    from mwtrees.closedforms import _analysis

    g = _non_tree(*case)
    a = _analysis(g)
    size = g.n * g.s
    centring = np.kron(np.eye(g.n) - 1.0 / g.n, np.eye(g.s))
    lap = a.laplacian
    pinv = np.linalg.pinv(lap)
    sv = np.linalg.svd(lap, compute_uv=False)
    cond = sv[0] / sv[size - g.s - 1]
    eps = np.finfo(float).eps
    norm_l, norm_p = np.linalg.norm(lap), np.linalg.norm(pinv)
    layout = _subtree_runs(g)
    raw = g.weights
    weights = 0.5 * (raw + raw.transpose(0, 2, 1))
    for root in {1, g.n, _seeded_root(g.n, case[-1])}:
        h = cycle_g_inverse_data(g, layout, root)
        assert np.array_equal(h, h.T)
        grounded = h.reshape(g.n, g.s, g.n, g.s)
        assert not grounded[root - 1].any()
        assert not grounded[:, :, root - 1].any()
        norm_t = np.linalg.norm(tree_g_inverse_data(
            layout, weights[layout.edges], root))
        assert np.linalg.norm(lap @ h @ lap - lap) <= (
            8 * size * eps * norm_l ** 2 * norm_t)
        centred = centring @ h @ centring
        assert np.linalg.norm(centred - pinv) <= (
            8 * size * eps * (cond * norm_p + norm_t))
        assert np.linalg.norm(h - cholesky_g_inverse_data(lap, g.s, root)) <= (
            size * eps * cond * norm_t)


def _route_spies(monkeypatch) -> dict[str, list[int]]:
    """The roots each g-inverse route is called at, and the spanning-tree
    layouts built, from here on."""
    from mwtrees import checks, closedforms

    calls = {"cycle": [], "cholesky": [], "layouts": []}
    cycle, cholesky = (checks.cycle_g_inverse_data,
                       checks.cholesky_g_inverse_data)
    layout = closedforms._subtree_runs
    monkeypatch.setattr(checks, "cycle_g_inverse_data",
                        lambda g, tree, root:
                        calls["cycle"].append(root) or cycle(g, tree, root))
    monkeypatch.setattr(checks, "cholesky_g_inverse_data",
                        lambda lap, s, root: calls["cholesky"].append(root)
                        or cholesky(lap, s, root))
    monkeypatch.setattr(closedforms, "_subtree_runs",
                        lambda g: calls["layouts"].append(g.n) or layout(g))
    return calls


@pytest.mark.parametrize("extra, route", [(3, "cycle"), (4, "cholesky")])
def test_g_inverse_route_follows_the_cycle_rank(monkeypatch, extra, route):
    # n + k s + 24 <= n s picks the route: a tree on 30 vertices with s = 2
    # plus 3 edges is on the cycle side (60 <= 60), plus 4 edges on the
    # Cholesky side (62 > 60), where no spanning tree is laid out
    from mwtrees.checks import _few_cycles, _seeded_root

    g = _non_tree(f"tree+{extra}", 30, 2, 1e-2, 7)
    assert _few_cycles(g.n, g.m, g.s) == (route == "cycle")
    calls = _route_spies(monkeypatch)
    assert ginverse_invariance_check(g).status == PASS
    roots = [_seeded_root(g.n, seed) for seed in (0, 1)]
    other = "cholesky" if route == "cycle" else "cycle"
    assert (calls[route], calls[other]) == (roots, [])
    assert calls["layouts"] == ([30] if route == "cycle" else [])


@pytest.mark.parametrize("n, m, s", [(144, 264, 1), (30, 435, 1), (4, 5, 1),
                                     (676, 1300, 1), (12, 12, 3)],
                         ids=["grid12", "K30", "diamond4", "grid26", "cli12"])
def test_dense_and_scalar_graphs_stay_on_the_cholesky_route(n, m, s):
    from mwtrees.checks import _few_cycles

    assert not _few_cycles(n, m, s)


@pytest.mark.parametrize("root", [1, 2, 35, 36, 70])
def test_grounded_inverses_keep_exact_zeros_through_the_split_triangle(root):
    # order n s = 140 splits the Cholesky factor's triangle twice before
    # numpy's LU inverse takes the halves.  The root's I_s block decouples
    # it, so its block row and column are exactly zero in G_r with no
    # gather or scatter; G_r is exactly symmetric and L G_r L = L to the
    # rounding of the inverse and the products.  (With one cycle the
    # graph's g-inverses take the cycle route; this is the Cholesky one.)
    from mwtrees.closedforms import _analysis

    g = random_connected_nontree(GenConfig(
        n_range=(70, 70), s_range=(2, 2), kind=WeightKind.SPD, seed=11))
    a = _analysis(g)
    lap = a.laplacian
    h = cholesky_g_inverse_data(lap, g.s, root)
    grounded = h.reshape(g.n, g.s, g.n, g.s)
    assert not grounded[root - 1].any()
    assert not grounded[:, :, root - 1].any()
    assert np.array_equal(h, h.T)
    sv = np.linalg.svd(lap, compute_uv=False)
    cond = sv[0] / sv[-g.s - 1]
    eps = np.finfo(float).eps
    assert np.linalg.norm(lap @ h @ lap - lap) <= (
        len(h) * eps * cond * np.linalg.norm(lap))


@pytest.mark.parametrize("ratio", [1.0, 1e-2, 1e-4, 1e-6, 1e-8])
def test_graded_non_trees_pass_the_invariance_record(ratio):
    # cycles, 3 x 3 and 4 x 4 grids, K_3, K_5, K_7 and trees plus 1-3
    # edges, s = 1, 2 and 4, weight eigenvalue ratio down to 1e-8: every
    # record passes, at 1e-8 on the graphs of the cycle route (the
    # 32-vertex cycles and trees plus edges with s = 2 and 4).  At 1e-8 the
    # grounded L has condition numbers near 1e10, and the Cholesky route
    # FAILs 21 of the 220 graphs it takes here, 8-vertex cycles, 4 x 4
    # grids and trees plus edges of 5 and 8 vertices with s = 2 and 4, by
    # up to 7.5 times the tolerance: even the exact inverses of its float
    # entries miss the 1e-7 tolerance on some of them, so verdicts there
    # follow the rounding
    from mwtrees.checks import _few_cycles

    # after _non_tree's caps: grid sides 3 and 4, and K_3, K_5 and K_7
    sizes = {"grid": (3, 4), "complete": (3, 5, 8)}
    for shape in ("cycle", "grid", "complete", "tree+1", "tree+2", "tree+3"):
        for size in sizes.get(shape, (3, 5, 8, 32)):
            for s in (1, 2, 4):
                for seed in range(4):
                    g = _non_tree(shape, size, s, ratio, seed)
                    if ratio < 1e-6 and not _few_cycles(g.n, g.m, g.s):
                        continue
                    report = ginverse_invariance_check(g)
                    assert report.status == PASS, (shape, size, s, seed,
                                                   report)


@pytest.mark.parametrize("make, route", [
    (diamond4, "cholesky"),
    (lambda: cycle_graph(7, 3, [graded_spd(3, 1e-2, np.random.default_rng(k))
                                for k in range(7)]), "cholesky"),
    (lambda: random_connected_nontree(GenConfig(
        n_range=(12, 12), s_range=(2, 2), kind=WeightKind.SPD, seed=8)),
     "cholesky"),
    (lambda: cycle_graph(40, 2, [graded_spd(2, 1e-2, np.random.default_rng(k))
                                 for k in range(40)]), "cycle"),
    (lambda: _non_tree("tree+3", 30, 2, 1e-2, 8), "cycle"),
], ids=["diamond4", "cycle7", "nontree12", "cycle40", "tree30+3"])
def test_non_tree_invariance_detects_a_one_block_error_in_one_sample(
    monkeypatch, make, route
):
    # ten times the tolerance, 1e-6 ||L^+||_F, added to block (1, n) of the
    # first seed's grounded inverse alone, on either route: the samples no
    # longer share an L^+, so the record that compares them fails
    from mwtrees import checks

    g = make()
    n, s = g.n, g.s
    assert checks._few_cycles(n, g.m, s) == (route == "cycle")
    assert ginverse_invariance_check(g).status == PASS
    shift = 1e-6 * np.linalg.norm(np.linalg.pinv(laplacian(g).data))
    name = ("cycle_g_inverse_data" if route == "cycle"
            else "cholesky_g_inverse_data")
    real = getattr(checks, name)
    made = []

    def perturbed(*args):   # the root comes last on both routes
        data = real(*args)
        if not made:
            data[:s, (n - 1) * s:] += shift
        made.append(args[-1])
        return data

    monkeypatch.setattr(checks, name, perturbed)
    report = ginverse_invariance_check(g)
    assert report.status == FAIL
    roots = tuple(made)
    assert roots == tuple(checks._seeded_root(n, seed)
                          for seed in (0, 1))
    assert f"grounded at roots {roots}, seeds (0, 1)" in report.detail


@pytest.mark.parametrize("shape", ["cycle", "path"])
@pytest.mark.parametrize("c", [1e-9, 1e-12, 1e-15])
def test_ginverse_records_pass_on_small_weights(shape, c):
    # weights c diag(1, 2) on a 5-cycle and a 5-path: grounded inverses
    # scale like 1 / c, their residuals with them, so the ||L^+||-scaled
    # tolerance holds at every c (null terms of scale 1 failed here)
    w = c * np.diag([1.0, 2.0])
    g = cycle_graph(5, 2, [w] * 5) if shape == "cycle" else path_graph(
        5, 2, [w] * 4)
    reports = verification_suite(g, "ginverse")
    ran = [r for r in reports if r.status != SKIPPED]
    assert len(ran) == (1 if shape == "cycle" else 2)
    for r in ran:
        assert r.status == PASS and r.residual < 1e-6 * r.tolerance, r


@pytest.mark.parametrize("make", [diamond4, lambda: path_graph(4, 2)],
                         ids=["diamond4", "path4"])
def test_invariance_takes_the_next_root_when_two_seeds_draw_the_same(
    monkeypatch, make
):
    # seeds 2 and 3 both draw root 4 of 4, so the second root is the next
    # vertex, 4 % 4 + 1 = 1; ten times the tolerance, 1e-6 ||L^+||_F, in
    # block (1, n) of that root's grounded inverse fails the record
    from mwtrees import checks

    assert checks._seeded_root(4, 2) == checks._seeded_root(4, 3)
    g = make()
    report = ginverse_invariance_check(g, seed=2)
    assert report.status == PASS
    assert "grounded at roots (4, 1), seeds (2, 3)" in report.detail
    n, s = g.n, g.s
    shift = 1e-6 * np.linalg.norm(np.linalg.pinv(laplacian(g).data))
    real = checks.g_inverse

    def perturbed(self, root):
        h = real(self, root)
        if root != 1:
            return h
        data = h.copy()
        data[:s, (n - 1) * s:] += shift
        return data

    monkeypatch.setattr(checks, "g_inverse", perturbed)
    assert ginverse_invariance_check(g, seed=2).status == FAIL


def test_an_exactly_singular_grounded_laplacian_raises_a_typed_error(
    monkeypatch
):
    # inverse weights 1, 1 and -1/2 on a triangle: every spanning-tree sum,
    # the determinant of every grounded L, is 0, and so is the capacitance
    # of the edge off the depth-first tree, W + its G_T contraction = 1 - 1;
    # the suite never gets here (the weights are not SPD), but either
    # route's factorization maps LinAlgError
    from mwtrees import checks, closedforms
    from mwtrees.errors import SingularMatrixError

    g = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[1.0]]),
                                   (1, 3, [[-2.0]])])
    for few in (False, True):
        monkeypatch.setattr(checks, "_few_cycles", lambda n, m, s: few)
        with pytest.raises(SingularMatrixError, match="grounded Laplacian"):
            checks.g_inverse(closedforms._analysis(g), 1)


def test_an_overflowing_grounded_inverse_skips_the_invariance_record(
    monkeypatch
):
    # weights 5e307 on a 30-cycle: the resistances, the entries of G_r,
    # reach 7.5 times the weight and overflow float range, on the cycle
    # route already in the spanning tree's path sums
    from mwtrees import checks

    g = cycle_graph(30, 1, [[[5e307]]] * 30)
    for few in (False, True):
        monkeypatch.setattr(checks, "_few_cycles", lambda n, m, s: few)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = verification_suite(g, "ginverse")[0]
        assert report.status == SKIPPED
        assert report.detail.startswith("the grounded inverse of L has "
                                        "non-finite entries")


def _scalar_graph(n: int, edges) -> MatrixWeightedGraph:
    return MatrixWeightedGraph(n, 1, [(u, v, [[1.0]]) for u, v in edges])


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["tree+k", "grid", "complete", "dense"]),
       st.integers(2, 12), st.integers(0, 10**6))
# the triangle 1, 2, 4 with the pendant edge (3, 4): the highest degree
# sum, that of edge (1, 4), is on the spanning tree
@example("tree+k", 2, 9)
def test_deficient_weighting_marks_an_edge_off_the_spanning_tree(shape, size,
                                                                 seed):
    # each edge off the spanning tree closes a cycle with it, so both
    # spanning-tree counts of the marked edge are positive
    from mwtrees.closedforms import _analysis

    rng = np.random.default_rng(seed)
    if shape == "tree+k":
        g = random_connected_nontree(GenConfig(
            n_range=(3, 3 + size), s_range=(1, 1),
            kind=WeightKind.SCALAR_POSITIVE, seed=seed))
    elif shape == "dense":
        # a random tree plus each other pair with probability 0.2, shuffled
        _, edges = _topology("tree", size, rng)
        edges += [(u, v) for u in range(1, size + 1)
                  for v in range(u + 1, size + 1)
                  if (u, v) not in edges and rng.uniform() < 0.2]
        g = _scalar_graph(size, [edges[i] for i in rng.permutation(len(edges))])
        assume(not is_tree(g))
    else:
        g = _scalar_graph(*_topology(shape, min(size, 6) if shape == "grid"
                                     else max(size, 3), rng))
    w = rank_deficient_weighting(g)
    assert w.edge_index in _analysis(g).layout.off
    assert w.trees_with_edge > 0 and w.trees_without_edge > 0
    n = g.n
    if shape == "complete":   # Cayley: n^(n - 2) spanning trees of K_n
        assert (w.trees_with_edge, w.trees_without_edge) == (
            2 * n ** (n - 3), (n - 2) * n ** (n - 3))
    elif n <= 9:
        assert spanning_tree_oracle(g, w.edge_index) == (
            w.trees_with_edge, w.trees_without_edge)


# --- certified tree ranks ----------------------------------------------------


def _probe_tree(shape: str, n: int, s: int, spd: bool, seed: int,
                ratio: float = 1e-2) -> MatrixWeightedGraph:
    """A path, a star, a random recursive tree (all relabelled at random)
    or a uniform Pruefer tree on n vertices, with random nonsingular
    weights or SPD ones of eigenvalue ratio ``ratio``."""
    rng = np.random.default_rng(seed)
    if shape == "prufer" and n > 1:
        topo = random_tree(GenConfig(n_range=(n, n), s_range=(1, 1),
                                     seed=seed))
        edges = [(e.u, e.v) for e in topo.edges]
    else:
        label = rng.permutation(n) + 1
        hub = {"star": lambda v: 1,   # a path, or no edge (prufer, n = 1)
               "recursive": lambda v: int(rng.integers(1, v)),
               }.get(shape, lambda v: v - 1)
        edges = [(label[hub(v) - 1], label[v - 1]) for v in range(2, n + 1)]
    weights = (graded_spd(s, ratio, rng) if spd
               else random_nonsingular(s, 1e4, rng) for _ in edges)
    return MatrixWeightedGraph(
        n, s, [(u, v, w) for (u, v), w in zip(edges, weights)]
    )


TREE_PROBES = st.tuples(
    st.sampled_from(["path", "star", "prufer"]),
    st.integers(1, 12),                       # n
    st.integers(1, 8),                        # s
    st.booleans(),                            # SPD weights
    st.floats(math.log10(1.5), 12.0),         # log10 condition_cap
    st.floats(-16.0, -1.0),                   # log10 rel_tol
    st.integers(0, 2**32 - 1),
)


@settings(max_examples=200, deadline=None)
@given(TREE_PROBES)
@example(("path", 1, 3, True, 4.0, -9.0, 0))
@example(("star", 2, 1, False, 0.2, -16.0, 1))
@example(("path", 2, 2, False, 0.25, -16.0, 2))   # SVD noise above rel_tol
@example(("prufer", 9, 8, False, 12.0, -12.0, 3))
@example(("path", 7, 2, True, 4.0, -1.0, 4))
@example(("path", 6, 5, True, 4.0, -16.0, 0))   # a full SVD counts 26, not 25
# s = 9, beyond the strategy's block sizes, at caps 1e9 and 1e10
@example(("prufer", 12, 9, True, 9.0, -9.0, 2))
@example(("prufer", 7, 9, False, 10.0, -9.0, 9))
def test_rank_probe_reports_the_svd_ranks(case):
    # whether a rank is certified or computed, it is the rank the SVD of the
    # assembled Laplacian gives, at every tolerance and conditioning: of L,
    # and with random_nonsingular draws of each cap as the weights and
    # their inverses as the blocks, or the other way round
    from mwtrees import checks

    shape, n, s, spd, log_cap, log_tol, seed = case
    g = _probe_tree(shape, n, s, spd, seed)
    rel_tol, cap = 10.0 ** log_tol, 10.0 ** log_cap
    rng = np.random.default_rng(seed)
    try:
        draws = [random_nonsingular(s, cap, rng) for _ in range(3 * g.m)]
    except BadConfigError:   # no s x s draw this well conditioned
        assume(False)
    sets = [(g.weights, np.linalg.inv(g.weights))]
    for weights in np.reshape(draws, (3, g.m, s, s)):
        sets += [(weights, np.linalg.inv(weights)),
                 (np.linalg.inv(weights), weights)]
    weights, blocks = (np.array(x) for x in zip(*sets))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        certified = checks._certifies(g, checks._tree_bounds(
            g, _subtree_runs(g), weights, blocks), rel_tol)
    for b in blocks[certified]:
        assert numerical_rank(block_laplacian(g, b), rel_tol) == (g.n - 1) * s


def _svd_probe_ranks(g: MatrixWeightedGraph, trials: int,
                     seed: int) -> tuple[int, ...]:
    """The SVD ranks of L and of the ``trials`` reweighted Laplacians of a
    tree that the reference construction draws from ``seed``, at the
    default cutoff."""
    _, blocks = probe_reweightings(g.m, g.s, trials, seed)
    laps = [laplacian(g).data, *(block_laplacian(g, b) for b in blocks)]
    return tuple(numerical_rank(lap) for lap in laps)


@pytest.mark.parametrize("spd, scale", [(True, 1e300), (False, 1e306)])
def test_rank_probe_survives_huge_weights(spd, scale):
    # 1e300-scale SPD weights overflow squared norms; at 1e306 the
    # certificate's ||G|| overflows and ||L|| underflows, so its bounds are
    # inf, 0 or NaN and the SVD decides
    rng = np.random.default_rng(11)
    g = MatrixWeightedGraph(200, 2, [
        (v, v + 1, scale * (graded_spd(2, 1e-2, rng) if spd
                            else random_nonsingular(2, 1e4, rng)))
        for v in range(1, 200)
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        probe = rank_characterization_probe(g, trials=2, seed=3)
    assert probe.passed
    assert probe.observed_ranks == _svd_probe_ranks(g, 2, 3)


def _dense_bounds(g: MatrixWeightedGraph, weights: np.ndarray,
                  blocks: np.ndarray) -> tuple[float, ...]:
    """The bounds of the rank certificate from the assembled Laplacian and
    the dense grounded inverse."""
    n, s = g.n, g.s
    lap = block_laplacian(g, blocks)
    inv = grounded_inverse_oracle(g, weights)
    residual = lap[s:, s:] @ inv - np.eye((n - 1) * s)

    def bound(x):
        mag = np.abs(x)
        return math.sqrt(mag.sum(axis=0).max() * mag.sum(axis=1).max())

    return (bound(lap), bound(lap[s:, s:]), bound(inv), bound(residual),
            bound(lap @ np.tile(np.eye(s), (n, 1))),
            float(np.linalg.norm(lap)))


DENSE_TREES = st.one_of(
    st.tuples(st.just("path"), st.integers(2, 200), st.integers(1, 3)),
    st.tuples(st.just("star"), st.integers(2, 40), st.just(8)),
    st.tuples(st.just("prufer"), st.integers(2, 40), st.integers(1, 8)),
)


@settings(max_examples=60, deadline=None)
@given(DENSE_TREES, st.booleans(), st.integers(0, 2**32 - 1))
@example(("path", 200, 3), False, 0)
@example(("star", 40, 8), True, 1)
@example(("prufer", 40, 8), False, 2)
def test_rank_certificate_bounds_match_the_dense_ones(case, spd, seed):
    # with blocks that do not invert the weights, K G - I is as large as
    # K and G, so every block of it is checked at full scale
    from mwtrees import checks

    shape, n, s = case
    g = _probe_tree(shape, n, s, spd, seed)
    weights = g.weights
    rng = np.random.default_rng(seed)
    others = [random_nonsingular(s, 1e4, rng) for _ in g.edges]
    for blocks in (np.array([inverse(w) for w in weights]),
                   np.array([inverse(w) for w in others])):
        ours = [x[0] for x in checks._tree_bounds(
            g, _subtree_runs(g), weights[None], blocks[None])]
        dense = _dense_bounds(g, weights, blocks)
        top, norm_k, norm_g, residual, null, frobenius = dense
        for i in (0, 1, 2, 5):   # ||L||, ||K||, ||G||, ||L||_F
            assert ours[i] == pytest.approx(dense[i], rel=1e-13, abs=0.0)
        size_eps = n * s * np.finfo(float).eps
        assert abs(ours[3] - residual) <= size_eps * norm_k * norm_g
        assert abs(ours[4] - null) <= size_eps * top * math.sqrt(n)
        for rel_tol in (1e-16, 1e-13, 1e-9, 1e-4, 0.5):
            assert (checks._certifies(g, ours, rel_tol)
                    == checks._certifies(g, dense, rel_tol))


@pytest.mark.parametrize("shape", ["path", "star", "recursive", "prufer"])
@pytest.mark.parametrize("s", [1, 3, 8])
@pytest.mark.parametrize("spd", [True, False])
def test_rank_certificate_bounds_of_a_stack_are_those_of_each_member(
    shape, s, spd
):
    # each member of a stack gets the bits of a stack of one: L's pair,
    # random nonsingular weights with their inverses, the same the other
    # way round, and blocks that do not invert the weights
    from mwtrees import checks

    for n in (1, 2, 13):
        g = _probe_tree(shape, n, s, spd, n)
        tree = _subtree_runs(g)
        rng = np.random.default_rng(n)
        draws = np.reshape([random_nonsingular(s, 1e4, rng)
                            for _ in range(2 * g.m)], (2, g.m, s, s))
        weights = np.array([g.weights, draws[0], np.linalg.inv(draws[0]),
                            draws[0]])
        blocks = np.array([np.linalg.inv(g.weights), np.linalg.inv(draws[0]),
                           draws[0], draws[1]])
        stacked = checks._tree_bounds(g, tree, weights, blocks)
        assert all(x.shape == (4,) for x in stacked)
        for i in range(4):
            alone = checks._tree_bounds(g, tree, weights[i:i + 1],
                                             blocks[i:i + 1])
            assert [x[i].tobytes() for x in stacked] == [
                x[0].tobytes() for x in alone]


@pytest.mark.parametrize("spd", [True, False])
@pytest.mark.parametrize("rel_tol, certified", [
    (1e-9, True),     # the bounds decide with room to spare
    (1e-17, False),   # below what LAPACK resolves: the SVD decides
    (0.5, False),     # above the smallest nonzero singular value
])
def test_rank_certificate_falls_back_to_the_svd_only_when_undecided(
    monkeypatch, spd, rel_tol, certified
):
    g = _probe_tree("prufer", 9, 3, spd, 5)
    size = g.n * g.s
    svds = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        svds.append(np.shape(a)[-2:] == (size, size))
                        or real(a, *args, **kwargs))
    probe = rank_characterization_probe(g, trials=4, rel_tol=rel_tol)
    # L and its four reweightings, SPD or not
    assert sum(svds) == (not certified) * (4 + 1)
    if certified:
        assert probe.passed


def test_graded_spd_trees_keep_the_svd_spectrum_and_ranks(monkeypatch):
    # weights of eigenvalue ratio down to 1e-8: the eigvalsh spectrum gives
    # the interlacing status a dense SVD of L gives, and the probe's first
    # rank is the SVD rank of L, also where the certificate cannot decide
    # it (from ratio 1e-6 on, most of these trees) and the SVD counts it
    from mwtrees import checks

    computed = {}
    _count_calls(monkeypatch, checks, "numerical_rank", computed)
    for ratio in (1.0, 1e-4, 1e-6, 1e-8):
        computed.clear()
        for shape in ("path", "star", "recursive", "prufer"):
            for seed in range(8):
                n = 3 + (13 * seed + 5) % 38   # 3 to 40
                s = 1 + (3 * seed + len(shape)) % 8
                g = _probe_tree(shape, n, s, True, 800 + seed, ratio=ratio)
                status = {r.name: r.status
                          for r in verification_suite(g, "spectrum")}
                assert status["interlacing"] == svd_interlacing_status(g), (
                    shape, seed, ratio)
                probe = rank_characterization_probe(g, trials=0)
                assert probe.observed_ranks == (
                    numerical_rank(laplacian(g).data),)
        assert bool(computed) == (ratio <= 1e-6)


# --- suite orchestration ----------------------------------------------------


def test_verification_suite_all_on_spd_tree():
    g = random_tree(GenConfig(n_range=(5, 5), s_range=(2, 2),
                              kind=WeightKind.SPD, seed=9))
    reports = verification_suite(g)
    names = [r.name for r in reports]
    assert names == [
        "ld", "dl", "ldl", "dinv_minus_l", "qdq",
        "ginverse_invariance", "ginverse_recovery",
        "inertia", "interlacing", "rank_characterization",
    ]
    assert all(r.status == PASS for r in reports)


def test_verification_suite_on_asymmetric_tree():
    reports = {r.name: r for r in verification_suite(path4_block2())}
    assert reports["ld"].status == PASS
    assert reports["qdq"].status == SKIPPED
    assert reports["ginverse_invariance"].status == SKIPPED
    assert reports["inertia"].status == SKIPPED
    assert reports["rank_characterization"].status == PASS


def test_verification_suite_on_non_tree():
    reports = {r.name: r for r in verification_suite(cycle4_block2())}
    for name in IDENTITY_NAMES:
        assert reports[name].status == SKIPPED
    assert reports["rank_characterization"].status == PASS
    assert "witness" in reports["rank_characterization"].detail


def test_verification_suite_single_suites_and_bad_name():
    g = path_graph(3)
    assert [r.name for r in verification_suite(g, "identities")] == list(
        IDENTITY_NAMES
    )
    assert [r.name for r in verification_suite(g, "spectrum")] == [
        "inertia", "interlacing",
    ]
    with pytest.raises(ValueError):
        verification_suite(g, "everything")


def test_verification_suite_reports_are_consistent():
    for r in verification_suite(diamond4()):
        if r.status == SKIPPED:
            assert r.residual is None and r.tolerance is None
            assert r.detail
        else:
            assert (r.residual <= r.tolerance) == (r.status == PASS)


SUITE_NAMES = [*IDENTITY_NAMES, "ginverse_invariance", "ginverse_recovery",
               "inertia", "interlacing", "rank_characterization"]


def _nearly_singular_spd(make, ratio: float) -> MatrixWeightedGraph:
    """A path on 3 or a cycle on 4 vertices, s = 2, identity weights but
    for diag(1, ratio) on edge 0."""
    n = 3 if make is path_graph else 4
    return make(n, 2, [np.diag([1.0, ratio])] + [np.eye(2)] * (n - 1))


@pytest.mark.parametrize("ratio", [1e-10, 1e-13])
@pytest.mark.parametrize("make", [path_graph, cycle_graph])
def test_suite_skips_spd_checks_below_the_rank_cutoff(make, ratio):
    # an SPD weight is a nonsingular one: diag(1, ratio) is neither, so the
    # g-inverse and spectrum checks are SKIPPED as not SPD, and no check
    # raises on the singular weight
    g = _nearly_singular_spd(make, ratio)
    reports = {r.name: r for r in verification_suite(g)}
    assert list(reports) == SUITE_NAMES
    spd_only = (["ginverse_invariance", "ginverse_recovery", "inertia",
                 "interlacing"] if make is path_graph
                else ["ginverse_invariance"])
    for name in spd_only:
        assert reports[name].status == SKIPPED
        assert reports[name].detail == "every edge weight must be SPD"
    if make is path_graph:   # L needs the inverse of every weight
        assert "singular" in reports["rank_characterization"].detail
        assert {r.status for r in reports.values()} == {SKIPPED}
    else:
        assert reports["rank_characterization"].status == PASS


@pytest.mark.parametrize("make", [path_graph, cycle_graph])
def test_a_weight_spd_by_eigh_but_singular_by_the_svd_is_not_spd(make):
    # eigh puts this weight's eigenvalue ratio just above the 1e-9 cutoff,
    # the SVD its singular value ratio just below it.  Singular by the one
    # rank test, it is not SPD either, and the suite treats it as it treats
    # diag(1, 1e-10); on the path, inertia FAILed with (2, 3, 1)
    from mwtrees.closedforms import _analysis

    w = np.array([[0.540706287931328, -0.49834024286982687],
                  [-0.49834024286982687, 0.4592937130686719]])
    n = 3 if make is path_graph else 4
    g = make(n, 2, [w] + [np.eye(2)] * (n - 1))
    assert not _analysis(g).spd

    def outcome(g):
        return [(r.name, r.status, r.detail) for r in verification_suite(g)]

    assert outcome(g) == outcome(_nearly_singular_spd(make, 1e-10))


def test_suite_skips_exactly_the_records_of_a_runner_that_raises(
    monkeypatch
):
    from mwtrees import checks
    from mwtrees.errors import NotConnectedError

    g = path_graph(4, s=2)
    before = verification_suite(g)

    def refuse(*args):
        raise NotConnectedError("refused")

    monkeypatch.setattr(checks, "ginverse_distance_recovery", refuse)
    after = verification_suite(g)
    assert [r.name for r in after] == SUITE_NAMES
    for old, new in zip(before, after):
        if new.name == "ginverse_recovery":
            assert (new.status, new.detail) == (SKIPPED, "refused")
        else:
            assert new == old
    monkeypatch.setattr(checks, "verify_identities", refuse)
    assert [r.status for r in verification_suite(g, "identities")] == (
        [SKIPPED] * len(IDENTITY_NAMES))

    def crash(*args):
        raise ValueError("a bug, not a hypothesis")

    monkeypatch.setattr(checks, "_interlacing_record", crash)
    with pytest.raises(ValueError, match="a bug"):
        verification_suite(g, "spectrum")


def test_suite_skips_the_spd_checks_when_squared_norms_overflow():
    g = MatrixWeightedGraph(2, 2, [(1, 2, [[1e200, 2e200], [0.0, 1e200]])])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = {r.name: r for r in verification_suite(g)}
    for name in ("qdq", "ginverse_invariance", "ginverse_recovery",
                 "inertia", "interlacing"):
        assert reports[name].status == SKIPPED
    assert reports["rank_characterization"].status == PASS


def _overflowing_path() -> MatrixWeightedGraph:
    """A path whose path sums and weight sum overflow float range, while
    every weight and every inverse weight is finite."""
    return path_graph(30, 2, [1e307 * np.diag([1.0, 2.0])] * 29)


def test_overflowed_path_sums_get_typed_outcomes():
    g = _overflowing_path()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = {r.name: r for r in verification_suite(g, "all")}
        for call in (distance_inverse, distance_determinant_sign_log,
                     invertibility_check):
            with pytest.raises(NonFiniteError, match="non-finite"):
                call(g)
    assert reports["rank_characterization"].status == PASS
    for name in set(reports) - {"rank_characterization"}:
        assert reports[name].status == SKIPPED
        assert "overflow" in reports[name].detail
    for suite in ("identities", "ginverse", "spectrum"):
        for r in verification_suite(_overflowing_path(), suite):
            assert r.status == SKIPPED


def test_inverse_weight_sums_beyond_float_range_raise_non_finite():
    # inverse weights 1e308 I are finite; their sum at the middle vertex
    # is not.  The Laplacian is refused with a typed error, and the
    # records that read it are SKIPPED, numpy silent: interlacing raised
    # LinAlgError from eigvalsh of the inf L, ginverse_recovery FAILed on
    # an inf sample, and the rank probe's SVD fallback warned
    g = path_graph(3, 2, [1e-308 * np.eye(2)] * 2)
    with pytest.raises(NonFiniteError, match="sums of the inverse"):
        laplacian(g)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reports = {r.name: r for r in verification_suite(g)}
    for name in (*IDENTITY_NAMES, "ginverse_invariance", "ginverse_recovery",
                 "interlacing", "rank_characterization"):
        assert reports[name].status == SKIPPED
        assert reports[name].detail.startswith("the Laplacian has non-finite")


def test_report_status_fail_is_reachable():
    reports = verify_identities(path4_block2(), rel_tol=1e-20)
    statuses = {r.name: r.status for r in reports}
    assert statuses["dinv_minus_l"] == FAIL


def _suite_decompositions(monkeypatch, g: MatrixWeightedGraph):
    """Run the whole suite on ``g``; return its reports, the builds of D
    and of L and the rank tests that invert the weights, the
    decompositions (an SVD with or without vectors, pinv, eigh, eigvalsh)
    of L itself or its symmetric part and those of D, and the number of
    eigh calls on anything.  The reference D and L come from a pickle copy
    of ``g``, whose analysis starts empty, so the suite still builds its
    own."""
    import pickle

    from mwtrees import closedforms

    copy = pickle.loads(pickle.dumps(g))
    lap = laplacian(copy).data
    dist = (distance_matrix(copy).data,) if g.m == g.n - 1 else ()
    targets = {"L": (lap, 0.5 * (lap + lap.T)), "D": dist}
    calls = {"D": 0, "L": 0, "inverted": 0}
    found = {key: {"svd": 0, "svd_values": 0, "pinv": 0, "eigh": 0,
                   "eigvalsh": 0} for key in targets}
    eigh_calls = 0

    def counted(key, fn, built=None):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls[key] += built is None or np.array_equal(out, built)
            return out
        return wrapper

    def decomposition(name, fn):
        def wrapper(a, *args, **kwargs):
            nonlocal eigh_calls
            eigh_calls += name == "eigh"
            a = np.asarray(a)
            key = ("svd_values" if name == "svd"
                   and not kwargs.get("compute_uv", True) else name)
            for target, arrays in targets.items():
                found[target][key] += a.shape[-2:] == lap.shape and any(
                    np.array_equal(x, y) for x in a.reshape(-1, *lap.shape)
                    for y in arrays)
            return fn(a, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(closedforms, "tree_distance_data",
                        counted("D", closedforms.tree_distance_data))
    monkeypatch.setattr(closedforms, "block_laplacian",
                        counted("L", closedforms.block_laplacian, lap))
    monkeypatch.setattr(closedforms, "inverse_weights",
                        counted("inverted", closedforms.inverse_weights))
    for name in ("svd", "pinv", "eigh", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name,
                            decomposition(name, getattr(np.linalg, name)))
    reports = verification_suite(g, "all")
    return reports, calls, found["L"], found["D"], eigh_calls


def test_suite_builds_one_analysis_per_graph(monkeypatch):
    # an SPD tree: L^+ in closed form and every probe rank certified, so
    # the decompositions of D and L are one eigvalsh each, for inertia and
    # interlacing, and no reweighting draw or its block is decomposed or
    # inverted
    g = random_tree(GenConfig(n_range=(6, 6), s_range=(2, 2), kind=WeightKind.SPD,
                              seed=3))
    decomposed = _decomposed_members(monkeypatch)
    reports, calls, of_l, of_d, eigh_calls = _suite_decompositions(
        monkeypatch, g)
    decomposed = set(decomposed)
    assert all(r.status == PASS for r in reports)
    assert calls == {"D": 1, "L": 1, "inverted": 1}
    assert of_l == {"svd": 0, "svd_values": 0, "pinv": 0, "eigh": 0,
                    "eigvalsh": 1}
    assert of_d == {"svd": 0, "svd_values": 0, "pinv": 0, "eigh": 0,
                    "eigvalsh": 1}
    assert eigh_calls == 1   # the weights' SPD test and roots
    reweightings = probe_reweightings(g.m, g.s, 5, 0)
    assert not decomposed & {x.tobytes() for stack in reweightings
                             for x in stack.reshape(-1, g.s, g.s)}


def test_spd_non_tree_suite_takes_no_svd_of_its_laplacian(monkeypatch):
    # off trees the g-inverse samples take no pinv and no other
    # decomposition of L.  A dense graph's come from one Cholesky
    # factorization of L grounded at each seed's root, (n s) x (n s) with
    # I_s in the root's block, and no LU inverse of the (n - 1) s rows it
    # keeps; a graph with few cycles factors only the k s x k s
    # capacitance at each root and inverts only that factor's triangle
    from mwtrees.checks import _few_cycles

    real_cholesky, real_inv = np.linalg.cholesky, np.linalg.inv
    for n, s in ((7, 2), (40, 3)):
        g = random_connected_nontree(GenConfig(
            n_range=(n, n), s_range=(s, s), kind=WeightKind.SPD, seed=3))
        few = _few_cycles(g.n, g.m, g.s)
        assert few == (n == 40)
        size = (g.m - g.n + 1) * s if few else n * s
        factored, inverted = [], []
        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "cholesky", lambda a: factored.append(
                np.shape(a)) or real_cholesky(a))
            patch.setattr(np.linalg, "inv", lambda a: inverted.append(
                np.shape(a)) or real_inv(a))
            reports, calls, of_l, of_d, eigh_calls = _suite_decompositions(
                patch, g)
        assert {r.name for r in reports if r.status == PASS} == {
            "ginverse_invariance", "rank_characterization"}
        assert calls == {"D": 0, "L": 1, "inverted": 1}
        assert of_l == {"svd": 0, "svd_values": 0, "pinv": 0, "eigh": 0,
                        "eigvalsh": 0}
        assert eigh_calls == 1
        assert factored == [(size, size)] * 2   # seeds 0 and 1
        # 2-D inverses are of the factors' triangles, none of the rows of
        # the grounded L nor, off the Cholesky route, of order n s
        assert {x for x in inverted if len(x) == 2} == {(size, size)}


@pytest.mark.parametrize("kind", [WeightKind.SPD, WeightKind.NONSINGULAR])
def test_suite_certifies_reweighted_ranks_without_an_svd(monkeypatch, kind):
    # the rank probe's Laplacians, L and its reweightings, are certified,
    # not decomposed, and interlacing reads eigvalsh: no (n s) x (n s) SVD
    g = random_tree(GenConfig(n_range=(12, 12), s_range=(3, 3), kind=kind,
                              seed=4))
    size = g.n * g.s
    full_size = []
    real = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kwargs:
                        full_size.append(np.shape(a)[-2:] == (size, size))
                        or real(a, *args, **kwargs))
    reports = {r.name: r for r in verification_suite(g, "all")}
    assert reports["rank_characterization"].status == PASS
    assert sum(full_size) == 0


def test_linear_algebra_calls_do_not_grow_with_the_edge_count(monkeypatch):
    # one stacked call per graph: an SPD tree with twice the edges makes the
    # same number of svd, eigvalsh, inv and eigh calls.  Its symmetric
    # weights' rank tests are certified from eigvalsh, so it may make no
    # svd call, but it makes some call
    def calls(m):
        g = random_tree(GenConfig(n_range=(m + 1, m + 1), s_range=(2, 2),
                                  kind=WeightKind.SPD, seed=m))
        counts = {"svd": 0, "eigvalsh": 0, "inv": 0, "eigh": 0}
        with monkeypatch.context() as mp:
            for name in counts:
                def counted(*args, _name=name, _fn=getattr(np.linalg, name),
                            **kwargs):
                    counts[_name] += 1
                    return _fn(*args, **kwargs)
                mp.setattr(np.linalg, name, counted)
            reports = verification_suite(g, "all")
            distance_inverse(g)
        assert all(r.status == PASS for r in reports)
        return counts

    small, large = calls(20), calls(40)
    assert small == large
    assert any(small.values())


def test_analysis_shares_read_only_arrays():
    from mwtrees.closedforms import _analysis

    g = path_graph(4, s=2)
    a = _analysis(g)
    for arr in (a.distance, a.laplacian, a.weight_sum, a.distance_eigenvalues):
        assert not arr.flags.writeable
    assert a.distance is a.distance


def _recorded_analyses(monkeypatch) -> list:
    """Weak references to every analysis built from here on."""
    import weakref

    from mwtrees import closedforms

    made = []

    class Recorded(closedforms._Analysis):
        def __init__(self, g):
            super().__init__(g)
            made.append(weakref.ref(self))

    monkeypatch.setattr(closedforms, "_Analysis", Recorded)
    return made


def _count_calls(monkeypatch, module, name, counts, passed=None) -> None:
    """Count the calls of ``module.name`` in ``counts``, and keep their
    positional arguments in ``passed[name]`` if ``passed`` is given."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] = counts.get(name, 0) + 1
        if passed is not None:
            passed.setdefault(name, []).append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


@pytest.mark.parametrize("make", [path4_block2, lambda: path_graph(4, s=2)])
def test_suite_frees_its_analysis_without_the_cycle_collector(monkeypatch, make):
    # the graph keeps its analysis; a reference cycle (through the analysis
    # or a traceback) would keep D, L and L^+ alive after the graph is gone,
    # until the collector runs: on a non-SPD tree that grew peak memory
    import gc

    made = _recorded_analyses(monkeypatch)
    g = make()
    gc.disable()
    try:
        verification_suite(g, "all")
        distance_determinant_sign_log(g)
        distance_inverse(g)
        assert len(made) == 1 and made[0]() is not None
        del g
        assert made[0]() is None
    finally:
        gc.enable()


def test_one_trees_op_validates_analyses_and_builds_once(monkeypatch):
    # the benchmark's trees op: every call after loads_graph reads the
    # violation list and the analysis that the graph keeps, and so do the
    # builders and invertibility_check after it
    from mwtrees import closedforms, graphs, linalg, operators
    from mwtrees.formats import dumps_graph, loads_graph

    text = dumps_graph(random_tree(GenConfig(
        n_range=(12, 12), s_range=(3, 3), kind=WeightKind.SPD, seed=4)))
    counts, passed = {}, {}
    for name in ("_violations", "_depth_first", "adjacency"):
        _count_calls(monkeypatch, graphs, name, counts)
    for name in ("tree_distance_data", "block_laplacian", "inverse_weights",
                 "_subtree_runs", "spd_inverse_sqrts"):
        _count_calls(monkeypatch, closedforms, name, counts, passed)
    _count_calls(monkeypatch, operators, "_subtree_runs", counts)
    _count_calls(monkeypatch, operators, "inverses", {}, passed)
    _count_calls(monkeypatch, linalg, "numerical_ranks", counts)
    made = _recorded_analyses(monkeypatch)
    g = loads_graph(text)
    reports = verification_suite(g, "all")
    distance_determinant_sign_log(g)
    distance_inverse(g)
    distance_matrix(g)
    laplacian(g)
    invertibility_check(g)
    assert all(r.status == PASS for r in reports)
    # validation runs the one search; one preorder layout, read off it,
    # serves D, L^+ and the rank certificate; L is built once, from weights
    # inverted once; the weights and R are each rank-tested once
    assert counts == {"_violations": 1, "_depth_first": 1, "adjacency": 1,
                      "tree_distance_data": 1, "block_laplacian": 1,
                      "inverse_weights": 1, "_subtree_runs": 1,
                      "spd_inverse_sqrts": 1, "numerical_ranks": 2}
    # every reader of the weights takes the stack the graph holds
    assert passed["inverses"][0][0] is g.weights
    assert passed["spd_inverse_sqrts"][0][0] is g.weights
    assert len(made) == 1


@pytest.mark.parametrize("make, route", [
    (lambda: _non_tree("tree+3", 30, 2, 1e-2, 8), "cycle"),
    (lambda: _non_tree("grid", 4, 2, 1e-2, 0), "cholesky"),
], ids=["tree30+3", "grid4"])
def test_one_nontree_op_searches_and_stacks_once(monkeypatch, make, route):
    # the benchmark's nontree op: the suite and the witness read the search
    # that validation ran, through one layout that serves the cycle route
    # and the witness's marked edge, and the weight stack the graph holds
    from mwtrees import checks, closedforms, graphs, operators

    g = make()
    assert checks._few_cycles(g.n, g.m, g.s) == (route == "cycle")
    counts, passed = {}, {}
    for name in ("_depth_first", "adjacency"):
        _count_calls(monkeypatch, graphs, name, counts)
    for module in (closedforms, operators):
        _count_calls(monkeypatch, module, "_subtree_runs", counts)
    _count_calls(monkeypatch, operators, "inverses", {}, passed)
    _count_calls(monkeypatch, closedforms, "spd_inverse_sqrts", {}, passed)
    reports = {r.name: r for r in verification_suite(g, "all")}
    witness = rank_deficient_weighting(g)
    assert reports["ginverse_invariance"].status == PASS
    assert reports["rank_characterization"].status == PASS
    assert witness is rank_characterization_probe(g).witness
    assert counts == {"_depth_first": 1, "adjacency": 1, "_subtree_runs": 1}
    stacks = [args[0] for args in passed["inverses"]]
    stacks += [args[0] for args in passed["spd_inverse_sqrts"]]
    assert len(stacks) == 2 and all(w is g.weights for w in stacks)


def test_deficient_weighting_reuses_the_suite_witness(monkeypatch):
    from mwtrees import closedforms

    g = random_connected_nontree(GenConfig(n_range=(9, 9), s_range=(2, 2),
                                           kind=WeightKind.SPD, seed=3))
    reports = {r.name: r for r in verification_suite(g, "all")}
    assert reports["rank_characterization"].status == PASS
    counts = {}
    for name in ("_marked_cofactor",):
        _count_calls(monkeypatch, closedforms, name, counts)
    witness = rank_deficient_weighting(g)
    assert counts == {}
    assert witness is rank_characterization_probe(g).witness
    assert f"on edge {witness.endpoints}" in reports[
        "rank_characterization"].detail


def _ginverse_records(g):
    return [r for r in verification_suite(g, "ginverse")
            if r.status != SKIPPED]


@pytest.mark.parametrize("k", [-1000, -600, 600, 1000])
@pytest.mark.parametrize("make", [path_graph, cycle_graph])
def test_ginverse_records_are_exactly_scale_equivariant(make, k):
    # weights 2^k diag(1, 2) scale every g-inverse and D by exactly 2^k,
    # and so the residuals and tolerances: norms that squared the entries
    # unscaled made both 0.0 (a vacuous PASS) at k = -600 and the
    # tolerance inf (a FAIL) at k = 600
    weight = np.diag([1.0, 2.0])
    count = 4 if make is path_graph else 5
    base = _ginverse_records(make(5, 2, [weight] * count))
    scaled = _ginverse_records(make(5, 2, [np.ldexp(weight, k)] * count))
    assert [r.name for r in scaled] == [r.name for r in base] != []
    for r, b in zip(scaled, base):
        assert r.status == b.status == PASS
        assert r.residual == math.ldexp(b.residual, k)
        assert r.tolerance == math.ldexp(b.tolerance, k)


def test_overflowed_ginverse_records_fail():
    # weights 2^1020 diag(1, 2): ||D||_F is beyond float range, and so is
    # the probe product of dinv_minus_l, whose residual is NaN; a
    # non-finite residual or tolerance must not read as a pass
    g = path_graph(5, 2, [np.ldexp(np.diag([1.0, 2.0]), 1020)] * 4)
    with np.errstate(over="ignore", invalid="ignore"):
        reports = {r.name: r for r in verification_suite(g, "all")}
    assert math.isnan(reports["dinv_minus_l"].residual)
    assert reports["dinv_minus_l"].status == FAIL
    assert reports["ginverse_recovery"].tolerance == math.inf
    assert reports["ginverse_recovery"].status == FAIL
    assert reports["ginverse_invariance"].status == FAIL
    for r in reports.values():
        if r.status == PASS:
            assert math.isfinite(r.residual) and math.isfinite(r.tolerance)


def _ginverse_route_graph(route: str, s: int) -> MatrixWeightedGraph:
    if route == "tree":   # for s = 1, a tree whose tolerance's bits differ
        return _probe_tree("prufer", 30, s, True, 0)   # when the block
    # columns are added up in index order, not pairwise as numpy does
    if route == "cycle":
        return _non_tree("tree+2", 30, s, 1e-2, 8)
    return _non_tree("complete", 7, s, 1e-2, 3)


def _assert_reference_bits(g: MatrixWeightedGraph) -> None:
    for seed in (0, 3, 11):
        reference = ginverse_reference(g, seed)
        records = [ginverse_invariance_check(g, seed)]
        if "ginverse_recovery" in reference:
            records.append(ginverse_distance_recovery(g, seed))
        assert {r.name: (r.residual, r.tolerance)
                for r in records} == reference, seed


@pytest.mark.parametrize("k", [0, -600, 600])
@pytest.mark.parametrize("route, s", [
    (route, s) for route in ("tree", "cycle", "cholesky")
    for s in (1, 2, 3, 4, 8)
    if (route, s) != ("cycle", 1)])   # n + k s + 24 > n s when s = 1
def test_ginverse_records_keep_the_reference_bits(route, s, k):
    # the records from block planes give the bits of the (n, n, s, s) and
    # (n, s, n, s) views on every route, also where the weights' scale
    # sends the norms through their power-of-two scaling
    from mwtrees.checks import _few_cycles

    base = _ginverse_route_graph(route, s)
    g = MatrixWeightedGraph(base.n, s, [(e.u, e.v, np.ldexp(e.weight, k))
                                        for e in base.edges])
    assert is_tree(g) == (route == "tree")
    if route != "tree":
        assert _few_cycles(g.n, g.m, s) == (route == "cycle")
    _assert_reference_bits(g)


def test_graded_tree_ginverse_records_keep_the_reference_bits():
    _assert_reference_bits(_probe_tree("recursive", 20, 4, True, 9,
                                       ratio=1e-6))


@pytest.mark.parametrize("make", [path4_block2, diamond4])
def test_pickled_and_copied_graphs_are_rebuilt(make):
    import copy
    import pickle

    g = make()
    before = verification_suite(g, "all")
    for clone in (pickle.loads(pickle.dumps(g)), copy.copy(g),
                  copy.deepcopy(g)):
        assert all(not e.weight.flags.writeable for e in clone.edges)
        assert "_analysis" not in vars(clone)
        assert "_violations" not in vars(clone)
        assert verification_suite(clone, "all") == before
