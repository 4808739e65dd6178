import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwtrees.errors import NotConnectedError, SameVertexError
from mwtrees.gallery import path4_block2, path_graph, star_graph
from mwtrees.generators import GenConfig, WeightKind, distance_oracle, random_tree
from mwtrees.graphs import (
    BAD_WEIGHT_SHAPE,
    DUPLICATE_EDGE,
    NON_FINITE_WEIGHT,
    NOT_CONNECTED,
    SELF_LOOP,
    VERTEX_OUT_OF_RANGE,
    MatrixWeightedGraph,
    check_structure,
    degrees,
    delta_vector,
    is_connected,
    is_tree,
    tree_path,
    validate,
    weight_sum,
)


def test_constructor_orients_edges():
    g = MatrixWeightedGraph(3, 1, [(3, 1, [[2.0]]), (2, 3, [[1.0]])])
    assert (g.edges[0].u, g.edges[0].v) == (1, 3)
    assert (g.edges[1].u, g.edges[1].v) == (2, 3)
    assert g.edges[0].weight.dtype == np.float64


@pytest.mark.parametrize("n, s, u, v", [(2.9, 1, 1, 2), (2, 1.0, 1, 2),
                                        (2, 1, 1, 2.7), (2, 1, 1.0, 2)])
def test_constructor_refuses_counts_and_endpoints_that_are_not_integers(
    n, s, u, v
):
    # int() would truncate 2.9 to 2 and 2.7 to 2, and validate would pass
    with pytest.raises(TypeError):
        MatrixWeightedGraph(n, s, [(u, v, [[1.0]])])


def test_constructor_takes_numpy_integers():
    two, one = np.int64(2), np.int32(1)
    g = MatrixWeightedGraph(two, one, [(two, one, [[1.0]])])
    assert (g.n, g.s, g.edges[0].u, g.edges[0].v) == (2, 1, 1, 2)
    assert type(g.n) is int and type(g.edges[0].v) is int
    assert validate(g) == []


def test_validate_clean_instance():
    assert validate(path4_block2()) == []


def test_validate_disconnected_pair_of_edges():
    g = MatrixWeightedGraph(4, 1, [(1, 2, [[1.0]]), (3, 4, [[1.0]])])
    codes = [v.code for v in validate(g)]
    assert codes == [NOT_CONNECTED]


def test_validate_flags_each_problem():
    g = MatrixWeightedGraph(
        3,
        2,
        [
            (1, 5, np.eye(2)),           # endpoint out of range
            (2, 2, np.eye(2)),           # self-loop
            (1, 2, np.eye(3)),           # wrong weight shape
            (1, 2, np.eye(2)),
            (2, 1, np.eye(2)),           # duplicate of the previous edge
            (2, 3, [[1.0, np.inf], [0.0, 1.0]]),  # non-finite weight
        ],
    )
    assert [str(v) for v in validate(g)] == [
        f"{VERTEX_OUT_OF_RANGE}: edge 0 endpoints (1, 5) not in 1..3",
        f"{SELF_LOOP}: edge 1 is a self-loop at vertex 2",
        f"{BAD_WEIGHT_SHAPE}: edge 2 weight has shape (3, 3), "
        "expected (2, 2)",
        f"{DUPLICATE_EDGE}: edge 3 duplicates edge 2 on (1, 2)",
        f"{DUPLICATE_EDGE}: edge 4 duplicates edge 2 on (1, 2)",
        f"{NON_FINITE_WEIGHT}: edge 5 weight has non-finite entries",
    ]
    assert [v.edge_index for v in validate(g)] == [0, 1, 2, 3, 4, 5]


def test_an_endpoint_beyond_int64_is_reported_in_full():
    g = MatrixWeightedGraph(2, 1, [(1, 2**70, [[1.0]])])
    assert [str(v) for v in validate(g)] == [
        f"{VERTEX_OUT_OF_RANGE}: edge 0 endpoints (1, {2**70}) not in 1..2",
        f"{NOT_CONNECTED}: graph on 2 vertices is not connected",
    ]


def test_validate_bad_order_and_block_size():
    g = MatrixWeightedGraph(0, 0, [])
    codes = {v.code for v in validate(g)}
    assert "BadOrder" in codes and "BadBlockSize" in codes


def test_check_structure_raises_with_all_problems():
    g = MatrixWeightedGraph(2, 1, [(1, 2, [[1.0]]), (1, 2, [[1.0]])])
    with pytest.raises(ValueError, match="DuplicateEdge"):
        check_structure(g)
    # connectivity alone does not trip the structural check
    check_structure(MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]])]))


def test_is_connected_and_is_tree():
    path = path_graph(4)
    assert is_connected(path)
    assert is_tree(path)
    cycle = MatrixWeightedGraph(
        3, 1, [(1, 2, [[1.0]]), (2, 3, [[1.0]]), (1, 3, [[1.0]])]
    )
    assert not is_tree(cycle)
    lonely = MatrixWeightedGraph(2, 1, [])
    with pytest.raises(NotConnectedError):
        is_tree(lonely)


def test_single_vertex_is_a_tree():
    g = MatrixWeightedGraph(1, 2, [])
    assert is_tree(g)


def test_tree_path_on_path_and_star():
    path = path_graph(4)
    assert tree_path(path, 1, 4) == [0, 1, 2]
    assert tree_path(path, 4, 1) == [2, 1, 0]
    assert tree_path(path, 2, 3) == [1]
    star = star_graph(5)
    assert tree_path(star, 2, 3) == [0, 1]
    with pytest.raises(SameVertexError):
        tree_path(path, 2, 2)
    with pytest.raises(ValueError):
        tree_path(path, 1, 9)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_tree_path_direction_only_reverses(seed):
    g = random_tree(GenConfig(n_range=(3, 8), s_range=(1, 1),
                              kind=WeightKind.SCALAR_POSITIVE, seed=seed))
    rng = np.random.default_rng(seed)
    u, v = rng.choice(np.arange(1, g.n + 1), size=2, replace=False)
    forward = tree_path(g, int(u), int(v))
    assert forward == tree_path(g, int(v), int(u))[::-1]
    assert len(set(forward)) == len(forward)


def test_validate_decides_connectivity_over_the_valid_edges_only():
    one = [[1.0]]
    # vertex 3 is reached only by an out-of-range edge and a self-loop
    cut = MatrixWeightedGraph(3, 1, [(1, 2, one), (3, 7, one), (3, 3, one)])
    assert [v.code for v in validate(cut)] == [
        VERTEX_OUT_OF_RANGE, SELF_LOOP, NOT_CONNECTED]
    assert not is_connected(cut)
    # the same invalid edges do not stop a valid edge from joining vertex 3
    joined = MatrixWeightedGraph(
        3, 1, [(1, 2, one), (0, 3, one), (2, 2, one), (2, 3, one)])
    assert [v.code for v in validate(joined)] == [VERTEX_OUT_OF_RANGE, SELF_LOOP]
    assert is_connected(joined)


def test_validate_returns_a_copy_of_the_list_it_keeps():
    g = MatrixWeightedGraph(4, 1, [(1, 2, [[1.0]]), (3, 4, [[1.0]])])
    first = validate(g)
    first.clear()
    assert [v.code for v in validate(g)] == [NOT_CONNECTED]
    assert validate(g) is not validate(g)


def test_long_path_in_shuffled_edge_order_needs_no_recursion():
    # a recursive search would pass the interpreter's recursion limit here
    n = 5000
    rng = np.random.default_rng(0)
    edges = [(i, i + 1, [[1.0]]) for i in range(1, n)]
    g = MatrixWeightedGraph(n, 1, [edges[i] for i in rng.permutation(n - 1)])
    assert is_connected(g)
    path = tree_path(g, 1, n)
    assert [(g.edges[k].u, g.edges[k].v) for k in path] == [
        (i, i + 1) for i in range(1, n)]
    assert tree_path(g, n, 1) == path[::-1]


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_tree_path_walks_from_u_to_v(seed):
    g = random_tree(GenConfig(n_range=(2, 40), s_range=(1, 1),
                              kind=WeightKind.SCALAR_POSITIVE, seed=seed))
    rng = np.random.default_rng(seed)
    u, v = (int(x) for x in rng.choice(np.arange(1, g.n + 1), size=2,
                                       replace=False))
    path = tree_path(g, u, v)
    x = u
    for k in path:   # each edge starts where the previous one ended
        e = g.edges[k]
        assert x in (e.u, e.v)
        x = e.u + e.v - x
    assert x == v
    assert len(set(path)) == len(path)


def test_tree_path_and_the_oracle_walk_the_one_kept_search(monkeypatch):
    # n(n - 1)/2 paths for the oracle and n(n - 1) more, one search
    from mwtrees import graphs

    g = random_tree(GenConfig(n_range=(12, 12), s_range=(2, 2),
                              kind=WeightKind.SPD, seed=5))
    counts = {}
    for name in ("_depth_first", "adjacency"):
        def counted(graph, name=name, real=getattr(graphs, name)):
            counts[name] = counts.get(name, 0) + 1
            return real(graph)

        monkeypatch.setattr(graphs, name, counted)
    distance_oracle(g)
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            if u != v:
                tree_path(g, u, v)
    assert counts == {"_depth_first": 1, "adjacency": 1}


@pytest.mark.parametrize("helper", [degrees, delta_vector, weight_sum])
def test_graph_helpers_refuse_malformed_graphs(helper):
    # a 1 x 1 weight on an s = 2 graph broadcast into weight_sum, and the
    # endpoint 0 was counted on vertex n by degrees
    for g in (MatrixWeightedGraph(2, 2, [(1, 2, [[3.0]])]),
              MatrixWeightedGraph(3, 1, [(0, 2, [[1.0]]), (2, 3, [[1.0]])])):
        with pytest.raises(ValueError, match="invalid graph"):
            helper(g)


def test_degrees_and_delta_vector():
    assert np.array_equal(degrees(star_graph(5)), [4, 1, 1, 1, 1])
    assert np.array_equal(delta_vector(path_graph(4)), [1, 0, 0, 1])
    assert np.array_equal(delta_vector(star_graph(5)), [-2, 1, 1, 1, 1])


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6))
def test_delta_vector_sums_to_two_on_trees(seed):
    g = random_tree(GenConfig(n_range=(2, 10), s_range=(1, 2),
                              kind=WeightKind.SCALAR_POSITIVE, seed=seed))
    assert int(delta_vector(g).sum()) == 2


def test_weight_sum_frozen():
    expected = np.array([[3.0, 2.0], [1.0, 3.0]])
    assert np.array_equal(weight_sum(path4_block2()), expected)
    assert np.array_equal(weight_sum(MatrixWeightedGraph(1, 2, [])),
                          np.zeros((2, 2)))


def test_graph_does_not_alias_caller_weights():
    w = np.array([[2.0, 0.0], [0.0, 1.0]])
    g = MatrixWeightedGraph(2, 2, [(1, 2, w)])
    w[0, 0] = 5.0
    assert g.edges[0].weight[0, 0] == 2.0


def test_graph_weights_are_read_only():
    g = path4_block2()
    with pytest.raises(ValueError):
        g.edges[0].weight[0, 0] = 5.0
    for a in (g.ends, g.weights, *(e.weight for e in g.edges)):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        g.weights[1, 0, 0] = 5.0
    with pytest.raises(ValueError):
        g.ends[0, 0] = 3


def test_graph_holds_its_edges_as_two_arrays():
    g = MatrixWeightedGraph(3, 2, [(3, 1, np.eye(2)), (2, 1, 2.0 * np.eye(2))])
    assert g.ends.dtype == int and g.ends.tolist() == [[1, 3], [1, 2]]
    assert g.weights.shape == (2, 2, 2) and g.weights.dtype == np.float64
    for k, e in enumerate(g.edges):
        assert np.shares_memory(e.weight, g.weights)
        assert np.array_equal(e.weight, g.weights[k])
    empty = MatrixWeightedGraph(1, 3, [])
    assert empty.ends.shape == (0, 2) and empty.weights.shape == (0, 3, 3)


@pytest.mark.parametrize("rebuild", [
    lambda g: pickle.loads(pickle.dumps(g)), copy.copy, copy.deepcopy])
def test_pickling_and_copying_rebuild_fresh_arrays(rebuild):
    g = path4_block2()
    validate(g)
    back = rebuild(g)
    assert "_violations" not in back.__dict__
    for old, new in ((g.ends, back.ends), (g.weights, back.weights)):
        assert np.array_equal(old, new) and not np.shares_memory(old, new)
        assert not new.flags.writeable
    for e in back.edges:
        assert np.shares_memory(e.weight, back.weights)


def test_weights_of_different_shapes_still_construct():
    g = MatrixWeightedGraph(3, 2, [(1, 2, np.eye(2)), (2, 3, np.eye(3))])
    assert g.weights is None
    assert [e.weight.shape for e in g.edges] == [(2, 2), (3, 3)]
    assert all(not e.weight.flags.writeable for e in g.edges)
    assert [v.code for v in validate(g)] == [BAD_WEIGHT_SHAPE]
    # weights all of one shape, but not s x s, are refused the same way
    assert MatrixWeightedGraph(2, 2, [(1, 2, np.eye(3))]).weights is None


def test_graphs_and_edges_compare_and_hash_by_identity():
    # the generated __eq__ compared the weight arrays with ==, which raised
    # on s > 1, and the generated __hash__ hashed them
    g = path4_block2()
    assert g == g and not g != g
    assert g != copy.copy(g)
    assert (path4_block2() == path4_block2()) is False
    assert (g.edges[0] == path4_block2().edges[0]) is False
    other = path_graph(3)
    table = {g: "path4", other: "path3", g.edges[0]: "edge"}
    assert table[g] == "path4" and table[other] == "path3"
    assert table[g.edges[0]] == "edge"
    assert len({g, copy.deepcopy(g), g}) == 2
