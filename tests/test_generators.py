from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwtrees.closedforms import _analysis, distance_matrix
from mwtrees.errors import BadConfigError
from mwtrees.gallery import diamond4, path_graph
from mwtrees.generators import (
    GenConfig,
    WeightKind,
    distance_oracle,
    random_connected_nontree,
    random_instances,
    random_nonsingular,
    random_spd,
    random_tree,
)
from mwtrees.graphs import is_connected, is_tree, validate, weight_sum
from mwtrees.linalg import spd_inverse_sqrts

from conftest import spanning_tree_oracle


def test_gen_config_validation():
    with pytest.raises(BadConfigError):
        GenConfig(n_range=(1, 5))
    with pytest.raises(BadConfigError):
        GenConfig(n_range=(5, 2))
    with pytest.raises(BadConfigError):
        GenConfig(s_range=(0, 2))
    with pytest.raises(BadConfigError):
        GenConfig(condition_cap=0.5)
    # an infinite cap would reach rng.uniform(-inf, inf) in random_spd
    with pytest.raises(BadConfigError, match="must be finite"):
        GenConfig(condition_cap=np.inf)
    with pytest.raises(BadConfigError):
        GenConfig(kind="spd")


@pytest.mark.parametrize("cap", [0.5, -1.0, 1.0, np.inf, np.nan])
def test_random_spd_refuses_a_cap_that_is_not_finite_and_above_one(cap):
    # numpy's "high - low < 0" and math's "math domain error" named no cap
    with pytest.raises(BadConfigError, match="condition cap must be finite"):
        random_spd(3, cap)


@pytest.mark.parametrize("draw", [random_spd, random_nonsingular])
@pytest.mark.parametrize("s", [2.5, -1, 0, np.float64(2.0)])
def test_generators_refuse_a_block_size_that_is_not_a_positive_integer(draw,
                                                                       s):
    # numpy's TypeError, ValueError or LinAlgError named no size, and
    # random_spd(0) returned a 0 x 0 matrix
    with pytest.raises(BadConfigError, match="block size must be an integer"):
        draw(s)


def test_generators_take_a_numpy_integer_block_size():
    assert random_spd(np.int64(2)).tobytes() == random_spd(2).tobytes()
    assert random_nonsingular(np.int32(2)).tobytes() == \
        random_nonsingular(2).tobytes()


def test_random_instances_refuses_a_negative_count():
    # a negative count returned an empty batch
    with pytest.raises(BadConfigError, match="count must be an integer >= 0"):
        random_instances(-1, GenConfig())
    assert random_instances(0, GenConfig()) == []


def test_seeds_end_at_the_int64_maximum():
    # the last seed draws; a batch that would pass it is refused
    top = np.iinfo(np.int64).max
    config = GenConfig(n_range=(3, 5), seed=top)
    assert [g.n for g in random_instances(1, config)] == [random_tree(config).n]
    with pytest.raises(BadConfigError, match="seed must be an integer"):
        random_instances(2, config)


def test_random_tree_is_deterministic():
    cfg = GenConfig(seed=123)
    g1, g2 = random_tree(cfg), random_tree(cfg)
    assert g1.n == g2.n and g1.s == g2.s
    for e1, e2 in zip(g1.edges, g2.edges):
        assert (e1.u, e1.v) == (e2.u, e2.v)
        assert np.array_equal(e1.weight, e2.weight)
    g3 = random_tree(GenConfig(seed=124))
    different = (g1.n != g3.n) or (g1.s != g3.s) or any(
        (a.u, a.v) != (b.u, b.v) or not np.array_equal(a.weight, b.weight)
        for a, b in zip(g1.edges, g3.edges)
    )
    assert different


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_random_tree_is_a_valid_tree_in_range(seed):
    cfg = GenConfig(n_range=(2, 10), s_range=(1, 4), seed=seed)
    g = random_tree(cfg)
    assert 2 <= g.n <= 10 and 1 <= g.s <= 4
    assert validate(g) == []
    assert is_tree(g)


def test_random_tree_spd_weights_are_spd():
    g = random_tree(GenConfig(n_range=(6, 6), s_range=(3, 3),
                              kind=WeightKind.SPD, seed=77))
    assert _analysis(g).spd


def test_random_tree_scalar_kinds():
    g = random_tree(GenConfig(n_range=(5, 5), s_range=(2, 2),
                              kind=WeightKind.SCALAR_POSITIVE, seed=5))
    for e in g.edges:
        assert e.weight[0, 1] == 0.0
        assert e.weight[0, 0] == e.weight[1, 1] > 0.0
    g = random_tree(GenConfig(n_range=(5, 5), s_range=(2, 2),
                              kind=WeightKind.SCALAR_ANY_NONZERO, seed=6))
    signs = {np.sign(e.weight[0, 0]) for e in g.edges}
    for e in g.edges:
        assert e.weight[0, 0] != 0.0
    assert signs <= {-1.0, 1.0}


def test_random_tree_nonsingular_weight_sum_is_invertible():
    for seed in range(25):
        g = random_tree(GenConfig(n_range=(2, 6), s_range=(2, 3),
                                  kind=WeightKind.NONSINGULAR, seed=seed))
        total = weight_sum(g)
        sv = np.linalg.svd(total, compute_uv=False)
        assert sv[-1] > sv[0] / 1e4


def test_random_tree_topology_is_uniform():
    # 16 labeled trees on 4 vertices; 10_000 draws should put each within
    # five standard deviations of 625
    counts = Counter()
    for i in range(10_000):
        g = random_tree(GenConfig(n_range=(4, 4), s_range=(1, 1),
                                  kind=WeightKind.SCALAR_POSITIVE,
                                  seed=900_000 + i))
        counts[tuple((e.u, e.v) for e in g.edges)] += 1
    assert len(counts) == 16
    sigma = (10_000 * (1 / 16) * (15 / 16)) ** 0.5
    for topo, count in counts.items():
        assert abs(count - 625) < 5 * sigma, (topo, count)


def test_random_spd_properties():
    w = random_spd(3, condition_cap=100.0, seed=1)
    spd_inverse_sqrts(w[None])   # NotSPDError unless w is SPD
    eigs = np.linalg.eigvalsh(w)
    assert eigs[-1] / eigs[0] <= 100.0 * (1 + 1e-9)
    assert np.array_equal(w, random_spd(3, condition_cap=100.0, seed=1))


def test_random_nonsingular_properties():
    w = random_nonsingular(3, condition_cap=1e4, seed=2)
    assert abs(np.linalg.det(w)) >= 0.05
    assert np.linalg.cond(w) <= 1e4
    assert np.array_equal(w, random_nonsingular(3, condition_cap=1e4, seed=2))


@settings(max_examples=100, deadline=None)
@given(st.floats(1.5, 30.0), st.integers(0, 10**6))
@example(1.5, 0)    # no draw of the 5 passes
@example(1.5, 18)   # the fourth passes
@example(3.0, 39)   # the fifth, the last allowed, passes
def test_random_nonsingular_gives_up_where_its_draws_do(cap, seed):
    # with a limit of 5 draws, the first uniform(-1, 1) candidate of |det|
    # >= 0.05 and cond <= cap among them, the generator left just after it;
    # BadConfigError when none of the 5 is
    from mwtrees import generators

    rng = np.random.default_rng(seed)
    expected = None
    for _ in range(5):
        w = rng.uniform(-1.0, 1.0, size=(2, 2))
        if abs(np.linalg.det(w)) >= 0.05 and np.linalg.cond(w) <= cap:
            expected = w
            break
    got_rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(generators, "_MAX_REDRAWS", 5)
        if expected is None:
            with pytest.raises(BadConfigError, match="well-conditioned 2x2"):
                random_nonsingular(2, cap, got_rng)
        else:
            assert random_nonsingular(2, cap, got_rng).tobytes() == (
                expected.tobytes())
    assert got_rng.uniform() == rng.uniform()


def test_random_nonsingular_gives_up_after_max_redraws():
    # no matrix has a condition number below 1: the draw gives up after
    # exactly _MAX_REDRAWS candidates of 3 x 3 uniforms
    from mwtrees import generators

    rng = np.random.default_rng(0)
    with pytest.raises(BadConfigError, match="well-conditioned 3x3"):
        random_nonsingular(3, 0.5, rng)
    expected = np.random.default_rng(0)
    expected.uniform(-1.0, 1.0, size=(generators._MAX_REDRAWS, 3, 3))
    assert rng.uniform() == expected.uniform()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6))
def test_random_connected_nontree_has_a_cycle(seed):
    cfg = GenConfig(n_range=(3, 9), s_range=(1, 3), seed=seed)
    g = random_connected_nontree(cfg)
    assert validate(g) == []
    assert is_connected(g)
    assert not is_tree(g)
    assert g.n <= g.m <= g.n + 2


def test_random_connected_nontree_needs_three_vertices():
    with pytest.raises(BadConfigError):
        random_connected_nontree(GenConfig(n_range=(2, 5)))


def test_random_instances_vary_and_reproduce():
    cfg = GenConfig(n_range=(3, 6), s_range=(1, 2), seed=50)
    batch = random_instances(4, cfg)
    again = random_instances(4, cfg)
    assert len(batch) == 4
    for g1, g2 in zip(batch, again):
        assert g1.n == g2.n and g1.m == g2.m
        assert all(
            np.array_equal(e1.weight, e2.weight)
            for e1, e2 in zip(g1.edges, g2.edges)
        )
    assert all(is_tree(g) for g in batch)
    nontrees = random_instances(3, cfg, tree=False)
    assert all(not is_tree(g) for g in nontrees)


def test_spanning_tree_oracle_known_counts():
    assert spanning_tree_oracle(diamond4(), 1) == (4, 4)
    # a bridge of a tree is in its only spanning tree
    assert spanning_tree_oracle(path_graph(3), 0) == (1, 0)


def test_spanning_tree_oracle_caps_size():
    with pytest.raises(ValueError, match="capped at 9 vertices"):
        spanning_tree_oracle(path_graph(10), 0)
    with pytest.raises(ValueError):
        spanning_tree_oracle(diamond4(), 9)


def test_distance_oracle_agrees_bitwise():
    for seed in (0, 1, 2, 3):
        g = random_tree(GenConfig(n_range=(2, 9), s_range=(1, 3),
                                  kind=WeightKind.NONSINGULAR, seed=seed))
        assert np.array_equal(distance_matrix(g).data,
                              distance_oracle(g).data)
