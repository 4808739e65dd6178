import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwtrees.checks import tree_g_inverse_data
from mwtrees.closedforms import (
    LaplacianMode,
    _analysis,
    distance_matrix,
    incidence_matrix,
    invertibility_check,
    laplacian,
)
from mwtrees.errors import NotATreeError, NotSPDError, SingularWeightError
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
    distance_oracle,
    random_connected_nontree,
    random_spd,
    random_tree,
)
from mwtrees.graphs import MatrixWeightedGraph
from mwtrees.operators import _subtree_runs, block_laplacian

from conftest import conditioned_matrix, graded_spd, grounded_inverse_oracle

# Golden matrices for the order-4 path with 2x2 weights diag(2, 1),
# [[0, 2], [1, 0]], diag(1, 2).  Worked out by hand from the path sums and
# the weight inverses; every entry is exact in floating point.
PATH4_BLOCK2_D = np.array(
    [
        [0.0, 0.0, 2.0, 0.0, 2.0, 2.0, 3.0, 2.0],
        [0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 1.0, 3.0],
        [2.0, 0.0, 0.0, 0.0, 0.0, 2.0, 1.0, 2.0],
        [0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 1.0, 2.0],
        [2.0, 2.0, 0.0, 2.0, 0.0, 0.0, 1.0, 0.0],
        [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 2.0],
        [3.0, 2.0, 1.0, 2.0, 1.0, 0.0, 0.0, 0.0],
        [1.0, 3.0, 1.0, 2.0, 0.0, 2.0, 0.0, 0.0],
    ]
)
PATH4_BLOCK2_L = np.array(
    [
        [0.5, 0.0, -0.5, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0, 0.0],
        [-0.5, 0.0, 0.5, 1.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 0.5, 1.0, -0.5, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 1.0, 1.0, -1.0, 0.0],
        [0.0, 0.0, -0.5, 0.0, 0.5, 0.5, 0.0, -0.5],
        [0.0, 0.0, 0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 0.0, -0.5, 0.0, 0.5],
    ]
)
# Golden Laplacian for the order-4 cycle whose weights alternate between the
# identity and the (self-inverse) swap matrix.
CYCLE4_BLOCK2_L = np.array(
    [
        [1.0, 1.0, -1.0, 0.0, 0.0, 0.0, 0.0, -1.0],
        [1.0, 1.0, 0.0, -1.0, 0.0, 0.0, -1.0, 0.0],
        [-1.0, 0.0, 1.0, 1.0, 0.0, -1.0, 0.0, 0.0],
        [0.0, -1.0, 1.0, 1.0, -1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0, 1.0, 1.0, -1.0, 0.0],
        [0.0, 0.0, -1.0, 0.0, 1.0, 1.0, 0.0, -1.0],
        [0.0, -1.0, 0.0, 0.0, -1.0, 0.0, 1.0, 1.0],
        [-1.0, 0.0, 0.0, 0.0, 0.0, -1.0, 1.0, 1.0],
    ]
)


def test_distance_matrix_golden():
    assert np.array_equal(distance_matrix(path4_block2()).data, PATH4_BLOCK2_D)


def test_distance_matrix_block_symmetric_but_not_symmetric():
    d = distance_matrix(path4_block2()).data
    blocks = d.reshape(4, 2, 4, 2)
    for i in range(4):
        for j in range(4):
            assert np.array_equal(blocks[i, :, j], blocks[j, :, i])
    assert not np.array_equal(d, d.T)


def test_distance_matrix_symmetric_for_symmetric_weights():
    d = distance_matrix(path_graph(5, s=2)).data
    assert np.array_equal(d, d.T)


def test_distance_matrix_single_edge():
    w = np.array([[2.0, 1.0], [1.0, 3.0]])
    d = distance_matrix(MatrixWeightedGraph(2, 2, [(1, 2, w)]))
    blocks = d.data.reshape(2, 2, 2, 2)
    assert np.array_equal(blocks[0, :, 1], w)
    assert np.array_equal(blocks[0, :, 0], np.zeros((2, 2)))


def test_distance_matrix_single_vertex():
    d = distance_matrix(MatrixWeightedGraph(1, 3, []))
    assert d.data.shape == (3, 3)
    assert np.array_equal(d.data, np.zeros((3, 3)))


def test_distance_matrix_rejects_non_trees():
    with pytest.raises(NotATreeError):
        distance_matrix(cycle_graph(4))
    with pytest.raises(NotATreeError):
        distance_matrix(MatrixWeightedGraph(4, 1, [(1, 2, [[1.0]]),
                                                   (3, 4, [[1.0]])]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_distance_matrix_matches_oracle_bit_for_bit(seed):
    g = random_tree(GenConfig(n_range=(2, 9), s_range=(1, 3),
                              kind=WeightKind.NONSINGULAR, seed=seed))
    assert np.array_equal(distance_matrix(g).data, distance_oracle(g).data)


def test_laplacian_golden():
    assert np.array_equal(
        laplacian(path4_block2(), LaplacianMode.INVERTED).data, PATH4_BLOCK2_L
    )
    assert np.array_equal(
        laplacian(cycle4_block2(), LaplacianMode.INVERTED).data, CYCLE4_BLOCK2_L
    )


def test_laplacian_raw_vs_inverted():
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[2.0]])])
    raw = laplacian(g, LaplacianMode.RAW).data
    inv = laplacian(g, LaplacianMode.INVERTED).data
    assert np.array_equal(raw, np.array([[2.0, -2.0], [-2.0, 2.0]]))
    assert np.array_equal(inv, np.array([[0.5, -0.5], [-0.5, 0.5]]))


def test_laplacian_takes_its_mode_as_a_member_or_its_value():
    g = path_graph(3, 1, [[[2.0]], [[4.0]]])
    raw = laplacian(g, "raw").data
    assert np.array_equal(raw, laplacian(g, LaplacianMode.RAW).data)
    assert np.array_equal(raw[1], [-2.0, 6.0, -4.0])
    assert np.array_equal(laplacian(g, "inverted").data, laplacian(g).data)
    with pytest.raises(ValueError, match="'bogus' is not a valid LaplacianMode"):
        laplacian(g, "bogus")


def test_laplacian_raw_accepts_singular_weights():
    g = MatrixWeightedGraph(2, 2, [(1, 2, np.zeros((2, 2)))])
    assert np.array_equal(laplacian(g, LaplacianMode.RAW).data, np.zeros((4, 4)))
    with pytest.raises(SingularWeightError) as info:
        laplacian(g, LaplacianMode.INVERTED)
    assert info.value.edge_index == 0
    assert info.value.endpoints == (1, 2)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 8), st.integers(1, 4), st.integers(0, 10**6))
def test_laplacian_and_invertibility_check_agree_on_singular_edges(n, s, seed):
    rng = np.random.default_rng(seed)
    topo = _adversarial_topology("pruefer", n, rng)
    g = MatrixWeightedGraph(n, s, [
        (u, v, conditioned_matrix(s, 10.0 ** rng.uniform(-11.0, 0.0), rng))
        for u, v in topo
    ])
    try:
        laplacian(g, LaplacianMode.INVERTED)
        laplacian_edge = None
    except SingularWeightError as exc:
        laplacian_edge = exc.edge_index
    named = re.match(r"edge (\d+) ", invertibility_check(g).reason)
    assert laplacian_edge == (int(named.group(1)) if named else None)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(1, 8), st.data())
def test_laplacian_and_invertibility_check_name_the_first_singular_edge(
    n, s, data
):
    singular = sorted(data.draw(
        st.sets(st.integers(0, n - 2), min_size=2, max_size=n - 1)
    ))
    rng = np.random.default_rng(data.draw(st.integers(0, 10**6)))
    topo = _adversarial_topology("pruefer", n, rng)
    edges = []
    for k, (u, v) in enumerate(topo):
        w = random_spd(s, 100.0, rng)
        if k in singular:
            w[rng.integers(s)] = 0.0  # one zero row
        edges.append((u, v, w))
    g = MatrixWeightedGraph(n, s, edges)
    with pytest.raises(SingularWeightError) as info:
        laplacian(g, LaplacianMode.INVERTED)
    first = singular[0]
    assert info.value.edge_index == first
    assert info.value.endpoints == topo[first]
    assert invertibility_check(g).reason == \
        f"edge {first} {topo[first]} weight is singular"


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_laplacian_block_rows_and_columns_sum_to_zero(seed):
    g = random_tree(GenConfig(n_range=(2, 8), s_range=(1, 3),
                              kind=WeightKind.NONSINGULAR, seed=seed))
    s = g.s
    blocks = laplacian(g, LaplacianMode.INVERTED).data.reshape(g.n, s, g.n, s)
    row_sum = sum(blocks[0, :, j] for j in range(g.n))
    col_sum = sum(blocks[j, :, 0] for j in range(g.n))
    assert np.allclose(row_sum, np.zeros((s, s)), atol=1e-12)
    assert np.allclose(col_sum, np.zeros((s, s)), atol=1e-12)


def test_incidence_golden_path3():
    q = incidence_matrix(path_graph(3)).data
    expected = np.array([[1.0, 0.0], [-1.0, 1.0], [0.0, -1.0]])
    assert np.array_equal(q, expected)


def test_incidence_column_blocks_sum_to_zero():
    blocks = incidence_matrix(star_graph(4, s=2)).data.reshape(4, 2, 3, 2)
    stacked = sum(blocks[i, :, 0] for i in range(4))
    assert np.allclose(stacked, np.zeros((2, 2)), atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_incidence_factors_the_laplacian(seed):
    g = random_tree(GenConfig(n_range=(2, 8), s_range=(1, 3),
                              kind=WeightKind.SPD, seed=seed))
    q = incidence_matrix(g).data
    lap = laplacian(g, LaplacianMode.INVERTED).data
    assert np.linalg.norm(q @ q.T - lap) < 1e-9 * max(1.0, np.linalg.norm(lap))


def test_incidence_factors_laplacian_on_non_trees_too():
    g = random_connected_nontree(
        GenConfig(n_range=(4, 7), s_range=(2, 2), kind=WeightKind.SPD, seed=11)
    )
    q = incidence_matrix(g).data
    lap = laplacian(g, LaplacianMode.INVERTED).data
    assert np.linalg.norm(q @ q.T - lap) < 1e-9 * np.linalg.norm(lap)


def test_incidence_rejects_non_spd_weights():
    with pytest.raises(NotSPDError) as info:
        incidence_matrix(path4_block2())
    assert info.value.edge_index == 1


def test_weights_are_spd():
    graphs = [path_graph(4, s=2), path4_block2(), cycle4_block2(), diamond4()]
    assert [_analysis(g).spd for g in graphs] == [True, False, False, True]


@pytest.mark.parametrize("make", [path4_block2, lambda: path_graph(4, s=2)])
def test_builders_return_read_only_views_of_the_analysis(make):
    g = make()
    built = [distance_matrix(g), laplacian(g),
             laplacian(g, LaplacianMode.RAW)]
    if _analysis(g).spd:
        built.append(incidence_matrix(g))
    for block in built:
        assert not block.data.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            block.data[0, 0] = 1.0
        block.data.copy()[0, 0] = 1.0   # a copy is writable
    assert distance_matrix(g).data is built[0].data
    assert laplacian(g).data is built[1].data


def test_operators_reject_malformed_graphs():
    bad = MatrixWeightedGraph(2, 2, [(1, 2, np.eye(3))])
    for op in (distance_matrix, laplacian, incidence_matrix):
        with pytest.raises(ValueError, match="BadWeightShape"):
            op(bad)


def test_distance_matrix_ignores_later_writes_to_caller_weights():
    w = np.array([[2.0, 0.0], [0.0, 1.0]])
    g = MatrixWeightedGraph(3, 2, [(1, 2, w), (2, 3, np.eye(2))])
    before = distance_matrix(g).data
    w[0, 0] = 5.0
    assert np.array_equal(distance_matrix(g).data, before)


def _adversarial_topology(shape: str, n: int, rng) -> list[tuple[int, int]]:
    if shape == "path":
        return [(i, i + 1) for i in range(1, n)]
    if shape == "star":
        return [(1, i) for i in range(2, n + 1)]
    if shape == "recursive":
        return [(int(rng.integers(1, v)), v) for v in range(2, n + 1)]
    if shape == "caterpillar":
        spine = max(1, n // 3)
        legs = [(1 + int(rng.integers(spine)), v) for v in range(spine + 1, n + 1)]
        return [(i, i + 1) for i in range(1, spine)] + legs
    # Pruefer: a uniformly random labelled tree
    return [
        (e.u, e.v)
        for e in random_tree(
            GenConfig(n_range=(n, n), s_range=(1, 1), seed=int(rng.integers(2**31)))
        ).edges
    ]


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["path", "star", "caterpillar", "pruefer"]),
    st.integers(2, 60),
    st.sampled_from([1, 2, 8]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_distance_matrix_bit_identical_on_adversarial_shapes(
    shape, n, s, spd, seed
):
    rng = np.random.default_rng(seed)
    topo = _adversarial_topology(shape, n, rng)
    # relabel the vertices and shuffle the storage order, so neither vertex 1
    # nor ascending edge indices follow the shape
    label = rng.permutation(n) + 1
    edges = [
        (
            int(label[u - 1]),
            int(label[v - 1]),
            random_spd(s, seed=rng) if spd else rng.standard_normal((s, s)),
        )
        for u, v in topo
    ]
    g = MatrixWeightedGraph(n, s, [edges[k] for k in rng.permutation(len(edges))])
    assert np.array_equal(distance_matrix(g).data, distance_oracle(g).data)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["path", "star", "caterpillar", "pruefer"]),
    st.integers(1, 40),
    st.sampled_from([1, 2, 8]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_grounded_tree_inverse_is_the_path_sum_form(shape, n, s, spd, seed):
    # block (i, j) is (D_i1 + D_j1 - D_ij) / 2, and it inverts the Laplacian
    # of the inverted weights grounded at vertex 1
    rng = np.random.default_rng(seed)
    topo = _adversarial_topology(shape, n, rng) if n > 1 else []
    label = rng.permutation(n) + 1
    g = MatrixWeightedGraph(n, s, [
        (int(label[u - 1]), int(label[v - 1]),
         random_spd(s, seed=rng) if spd else rng.standard_normal((s, s)))
        for u, v in topo
    ])
    weights = g.weights
    other = [2.0 * w for w in weights]
    inv = grounded_inverse_oracle(g, weights)
    doubled = grounded_inverse_oracle(g, np.array(other))
    d = distance_oracle(g).data.reshape(n, s, n, s)[1:, :, 1:, :]
    to_root = distance_oracle(g).data.reshape(n, s, n, s)[1:, :, 0, :]
    expected = 0.5 * (to_root[:, :, None, :] + to_root[None, :, :, :]
                      .transpose(0, 2, 1, 3) - d)
    expected = expected.reshape((n - 1) * s, (n - 1) * s)
    scale = sum(np.abs(w).sum() for w in weights)
    assert inv.shape == expected.shape
    assert np.allclose(inv, expected, rtol=0.0, atol=1e-13 * n * scale)
    assert np.allclose(doubled, 2.0 * inv, rtol=0.0, atol=1e-13 * n * scale)
    if spd and n > 1:
        k = block_laplacian(g, np.linalg.inv(weights))[s:, s:]
        size = (n - 1) * s
        assert np.linalg.norm(k @ inv - np.eye(size)) <= (
            1e-13 * size * np.linalg.norm(k) * np.linalg.norm(inv))


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["path", "star", "caterpillar", "pruefer"]),
    st.integers(1, 30),
    st.sampled_from([1, 2, 8]),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_tree_grounded_inverse_at_any_root(shape, n, s, spd, seed):
    # G_r has block (i, j) = (D_ir + D_rj - D_ij) / 2, zero in block row and
    # column r; it inverts L grounded at r, and centring it gives L^+, also
    # for weights that are not symmetric
    rng = np.random.default_rng(seed)
    topo = _adversarial_topology(shape, n, rng) if n > 1 else []
    label = rng.permutation(n) + 1
    g = MatrixWeightedGraph(n, s, [
        (int(label[u - 1]), int(label[v - 1]),
         random_spd(s, seed=rng) if spd else rng.standard_normal((s, s)))
        for u, v in topo
    ])
    r = int(rng.integers(1, n + 1))
    layout = _subtree_runs(g)
    got = tree_g_inverse_data(layout, g.weights, r)
    d = distance_oracle(g).data.reshape(n, s, n, s)
    expected = 0.5 * (d[:, :, r - 1, :][:, :, None, :] + d[r - 1][None] - d)
    scale = sum(np.abs(e.weight).sum() for e in g.edges)
    assert np.allclose(got, expected.reshape(n * s, n * s), rtol=0.0,
                       atol=1e-13 * n * scale)
    centre = np.kron(np.eye(n) - 1.0 / n, np.eye(s))
    lap = laplacian(g).data
    sv = np.linalg.svd(lap, compute_uv=False)
    cond = sv[0] / sv[(n - 1) * s - 1] if n > 1 else 1.0
    pinv = np.linalg.pinv(lap)
    # pinv's error: N eps cond(L) ||L^+||
    assert np.linalg.norm(centre @ got @ centre - pinv) <= (
        1e-13 * n * scale + 64 * n * s * np.finfo(float).eps * cond
        * np.linalg.norm(pinv))
    if spd and n > 1:
        keep = np.ones(n * s, dtype=bool)
        keep[(r - 1) * s:r * s] = False
        k, inv = lap[np.ix_(keep, keep)], got[np.ix_(keep, keep)]
        size = (n - 1) * s
        assert np.linalg.norm(k @ inv - np.eye(size)) <= (
            1e-13 * size * np.linalg.norm(k) * np.linalg.norm(inv))


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(["path", "star", "caterpillar", "pruefer"]),
    st.integers(1, 30),
    st.sampled_from([1, 2, 4, 8]),
    st.integers(0, 10**6),
)
@example("path", 25, 1, 0)   # a GEMM whose bits follow the layout of s = 1
def test_tree_grounded_inverse_has_the_bits_of_the_broadcast_product(
    shape, n, s, seed
):
    # the stack of t_k^T kron W_k has the values and the memory order of
    # the broadcast product, so the GEMM and G_r keep its bits; asymmetric
    # weights with zero and negative entries
    rng = np.random.default_rng(seed)
    topo = _adversarial_topology(shape, n, rng) if n > 1 else []
    weights = rng.standard_normal((len(topo), s, s))
    weights[rng.random(weights.shape) < 0.2] = 0.0
    g = MatrixWeightedGraph(n, s, [(u, v, w) for (u, v), w in
                                   zip(topo, weights)])
    layout = _subtree_runs(g)
    r = int(rng.integers(1, n + 1))
    below = layout.below[layout.at]
    sides = np.abs(below - below[r - 1])
    terms = sides.T[:, None, :, None] * weights[:, :, None, :]
    expected = sides @ terms.reshape(len(topo), s * n * s)
    got = tree_g_inverse_data(layout, g.weights, r)
    assert got.tobytes() == expected.reshape(n * s, n * s).tobytes()


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["path", "star", "recursive", "pruefer"]),
    st.integers(1, 40),
    st.integers(1, 8),
    # SPD weights down to nearly singular; None: not symmetric
    st.sampled_from([1.0, 1e-2, 1e-4, 1e-6, None]),
    st.integers(0, 10**6),
)
def test_tree_pseudo_inverse_meets_the_penrose_conditions(
    shape, n, s, ratio, seed
):
    # G_r at a random root is a reflexive g-inverse, L G_r L = L and G_r L
    # G_r = G_r, to round-off times the condition number of L on its range
    rng = np.random.default_rng(seed)
    topo = _adversarial_topology(shape, n, rng) if n > 1 else []
    label = rng.permutation(n) + 1
    g = MatrixWeightedGraph(n, s, [
        (int(label[u - 1]), int(label[v - 1]),
         graded_spd(s, ratio, rng) if ratio else conditioned_matrix(s, 1e-2, rng))
        for u, v in topo
    ])
    lap = laplacian(g).data
    p = tree_g_inverse_data(_subtree_runs(g), g.weights,
                            int(rng.integers(1, n + 1)))
    sv = np.linalg.svd(lap, compute_uv=False)[:(n - 1) * s]
    rtol = max(1e-9, 1e-12 * sv.max(initial=1.0) / sv.min(initial=1.0))
    norm_l, norm_p = np.linalg.norm(lap), np.linalg.norm(p)
    assert np.linalg.norm(lap @ p @ lap - lap) <= rtol * norm_l
    assert np.linalg.norm(p @ lap @ p - p) <= rtol * norm_p


def _exact_inverse(rows: list[list[Fraction]]) -> list[list[Fraction]]:
    """Gauss-Jordan inverse over the rationals of a nonsingular matrix."""
    size = len(rows)
    work = [[*row, *(Fraction(int(i == j)) for j in range(size))]
            for i, row in enumerate(rows)]
    for c in range(size):
        pivot = next(r for r in range(c, size) if work[r][c])
        work[c], work[pivot] = work[pivot], work[c]
        work[c] = [x / work[c][c] for x in work[c]]
        for r in range(size):
            if r != c and work[r][c]:
                f = work[r][c]
                work[r] = [x - f * y for x, y in zip(work[r], work[c])]
    return [row[size:] for row in work]


def _integer_tree(seed: int) -> MatrixWeightedGraph:
    """A random recursive tree, n <= 5, s <= 3, with nonsingular integer
    weights: SPD ones ``a a^T + I`` for even seeds, any for odd ones."""
    rng = np.random.default_rng(seed)
    n, s = int(rng.integers(1, 6)), int(rng.integers(1, 4))
    weights = []
    while len(weights) < n - 1:
        a = rng.integers(-3, 4, size=(s, s))
        w = a @ a.T + np.eye(s, dtype=int) if seed % 2 == 0 else a
        if abs(np.linalg.det(w)) > 0.5:   # an integer, so nonzero
            weights.append(w.astype(float))
    return MatrixWeightedGraph(n, s, [
        (int(rng.integers(1, v)), v, w) for v, w in zip(range(2, n + 1), weights)
    ])


@pytest.mark.parametrize("make", [path4_block2,
                                  *(lambda k=k: _integer_tree(k)
                                    for k in range(10))])
def test_tree_pseudo_inverse_matches_exact_rational_arithmetic(make):
    # G_r, the inverse of L grounded at r padded with zeros, in fractions at
    # every root r: integer path sums of the integer weights, which the
    # closed form adds exactly
    g = make()
    n, s = g.n, g.s
    lap = [[Fraction(0)] * (n * s) for _ in range(n * s)]
    for e in g.edges:
        block = _exact_inverse([[Fraction(int(x)) for x in row]
                                for row in e.weight])
        for a in range(s):
            for b in range(s):
                for i, j, sign in ((e.u, e.u, 1), (e.v, e.v, 1),
                                   (e.u, e.v, -1), (e.v, e.u, -1)):
                    lap[(i - 1) * s + a][(j - 1) * s + b] += sign * block[a][b]
    assert np.allclose(laplacian(g).data,
                       np.array([[float(x) for x in r] for r in lap]),
                       rtol=0.0, atol=1e-14)
    layout = _subtree_runs(g)
    for r in range(1, n + 1):
        keep = [x for x in range(n * s) if x // s != r - 1]
        exact = [[Fraction(0)] * (n * s) for _ in range(n * s)]
        inv = _exact_inverse([[lap[x][y] for y in keep] for x in keep])
        for row, x in zip(inv, keep):
            for value, y in zip(row, keep):
                exact[x][y] = value
        assert all(x.denominator == 1 for row in exact for x in row)
        got = tree_g_inverse_data(layout, g.weights, r)
        assert np.array_equal(got, np.array(exact, dtype=float))
