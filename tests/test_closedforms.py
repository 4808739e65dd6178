import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwtrees.closedforms import (
    FAIL,
    IDENTITY_NAMES,
    PASS,
    SKIPPED,
    distance_determinant,
    distance_determinant_sign_log,
    distance_inverse,
    distance_inverse_factored,
    ginverse_distance_recovery,
    ginverse_invariance_check,
    inertia_check,
    interlacing_check,
    invertibility_check,
    rank_characterization_probe,
    rank_deficient_weighting,
    reweighted_scalar_laplacian,
    verification_suite,
    verify_identities,
)
from mwtrees.errors import (
    BadConfigError,
    IsATreeError,
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
)
from mwtrees.generators import (
    GenConfig,
    WeightKind,
    random_connected_nontree,
    random_nonsingular,
    random_tree,
    spanning_tree_oracle,
)
from mwtrees.graphs import MatrixWeightedGraph
from mwtrees.linalg import Inertia, inverse, numerical_rank
from mwtrees.operators import LaplacianMode, distance_matrix, laplacian


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
    assert distance_determinant(g) == pytest.approx(-25.0, rel=1e-12)


def test_determinant_scalar_path4():
    g = path_graph(4)
    d = distance_matrix(g).data
    assert distance_determinant(g) == pytest.approx(-12.0, rel=1e-12)
    assert np.linalg.det(d) == pytest.approx(-12.0, rel=1e-9)


def test_determinant_path4_block2():
    g = path4_block2()
    assert distance_determinant(g) == pytest.approx(-896.0, rel=1e-12)
    sign, log_abs = distance_determinant_sign_log(g)
    assert sign == -1.0
    assert log_abs == pytest.approx(math.log(896.0), rel=1e-12)


def test_determinant_singular_weight_sum():
    # scalar weights +1 and -1 cancel, so the distance matrix is singular
    g = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    sign, log_abs = distance_determinant_sign_log(g)
    assert sign == 0.0 and log_abs == -math.inf
    assert distance_determinant(g) == 0.0
    assert np.linalg.det(distance_matrix(g).data) == pytest.approx(0.0, abs=1e-12)


def test_determinant_rejects_non_trees():
    with pytest.raises(NotATreeError):
        distance_determinant(cycle_graph(4))


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
    from mwtrees.operators import incidence_matrix

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


# --- g-inverse checks -------------------------------------------------------


def test_ginverse_invariance_scalar_path3():
    report = ginverse_invariance_check(path_graph(3))
    assert report.status == PASS
    # deterministic: same call gives the identical report
    assert ginverse_invariance_check(path_graph(3)) == report


def test_ginverse_invariance_works_on_connected_non_trees():
    report = ginverse_invariance_check(diamond4(), seeds=(7, 8, 9))
    assert report.status == PASS


def test_ginverse_invariance_rejects_bad_inputs():
    with pytest.raises(NotSPDError):
        ginverse_invariance_check(path4_block2())
    disconnected = MatrixWeightedGraph(4, 1, [(1, 2, [[1.0]]), (3, 4, [[1.0]])])
    from mwtrees.errors import NotConnectedError

    with pytest.raises(NotConnectedError):
        ginverse_invariance_check(disconnected)
    with pytest.raises(ValueError):
        ginverse_invariance_check(path_graph(3), seeds=(1,))


def test_ginverse_recovery_scalar_path3():
    report = ginverse_distance_recovery(path_graph(3))
    assert report.status == PASS
    assert report.residual < 1e-9


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


def test_interlacing_single_edge():
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[1.0]])])
    report = interlacing_check(g)
    assert report.passed
    # D eigenvalues (1, -1), L eigenvalues (2, 0): the one triple is
    # (-1, -1, 1)
    assert np.allclose(report.triples, [[-1.0, -1.0, 1.0]], atol=1e-12)


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


@pytest.mark.parametrize("s, cap", [(2, 1e4), (3, 20.0), (8, 1e4)])
def test_rank_probe_reweights_with_successive_random_nonsingular_draws(
    monkeypatch, s, cap
):
    from mwtrees import closedforms

    g = random_tree(GenConfig(n_range=(7, 7), s_range=(s, s), seed=s))
    used = []
    real = closedforms.block_laplacian
    monkeypatch.setattr(closedforms, "block_laplacian",
                        lambda graph, blocks: used.append(blocks)
                        or real(graph, blocks))
    probe = rank_characterization_probe(g, trials=4, seed=9,
                                        condition_cap=cap)

    rng = np.random.default_rng(9)
    old_ranks = [numerical_rank(laplacian(g).data)]
    for blocks in used:
        draws = [random_nonsingular(s, cap, rng) for _ in g.edges]
        expected = np.array([inverse(w) for w in draws])
        assert blocks.tobytes() == expected.tobytes()
        reweighted = MatrixWeightedGraph(
            g.n, s, [(e.u, e.v, w) for e, w in zip(g.edges, draws)]
        )
        old_ranks.append(numerical_rank(laplacian(reweighted).data))
    assert len(used) == 4
    assert probe.observed_ranks == tuple(old_ranks)


def test_rank_probe_condition_cap_below_one_gives_up():
    g = path4_block2()
    with pytest.raises(BadConfigError, match="well-conditioned 2x2"):
        rank_characterization_probe(g, trials=2, condition_cap=0.5)


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


def test_report_status_fail_is_reachable():
    reports = verify_identities(path4_block2(), rel_tol=1e-20)
    statuses = {r.name: r.status for r in reports}
    assert statuses["dinv_minus_l"] == FAIL


def test_suite_builds_one_analysis_per_graph(monkeypatch):
    from mwtrees import closedforms

    g = random_tree(GenConfig(n_range=(6, 6), s_range=(2, 2), kind=WeightKind.SPD,
                              seed=3))
    calls = {"D": 0, "L": 0, "pinv": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(closedforms, "tree_distance_data",
                        counted("D", closedforms.tree_distance_data))
    monkeypatch.setattr(closedforms, "laplacian_data",
                        counted("L", closedforms.laplacian_data))
    monkeypatch.setattr(closedforms, "pseudo_inverse",
                        counted("pinv", closedforms.pseudo_inverse))
    reports = verification_suite(g, "all")
    assert all(r.status == PASS for r in reports)
    assert calls == {"D": 1, "L": 1, "pinv": 1}


def test_linear_algebra_calls_do_not_grow_with_the_edge_count(monkeypatch):
    # one stacked call per graph: an SPD tree with twice the edges makes the
    # same number of svd, inv and eigh calls
    def calls(m):
        g = random_tree(GenConfig(n_range=(m + 1, m + 1), s_range=(2, 2),
                                  kind=WeightKind.SPD, seed=m))
        counts = {"svd": 0, "inv": 0, "eigh": 0}
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
    assert all(small.values())


def test_analysis_shares_read_only_arrays():
    from mwtrees.closedforms import _Analysis

    a = _Analysis(path_graph(4, s=2))
    for arr in (a.distance, a.laplacian, a.laplacian_pinv, a.weight_sum,
                a.distance_eigenvalues):
        assert not arr.flags.writeable
    assert a.distance is a.distance
