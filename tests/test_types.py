"""The package's value records (NamedTuples) and its immutable identity
types (graphs, edges, block matrices): their text, their immutability, and
their round trips through pickle and copy."""

import copy
import math
import pickle

import numpy as np
import pytest

from mwtrees.closedforms import (
    DeficientWeighting,
    InterlacingReport,
    InvertibilityResult,
    RankProbe,
    VerificationReport,
    inertia_check,
    interlacing_check,
    invertibility_check,
    rank_characterization_probe,
    rank_deficient_weighting,
    verification_suite,
)
from mwtrees.errors import BadConfigError
from mwtrees.gallery import diamond4, path4_block2, path_graph
from mwtrees.generators import GenConfig, WeightKind
from mwtrees.graphs import Edge, MatrixWeightedGraph, Violation, validate
from mwtrees.linalg import BlockMatrix, Inertia


RECORDS = ["DeficientWeighting", "GenConfig", "Inertia", "InterlacingReport",
           "InvertibilityResult", "RankProbe", "VerificationReport",
           "Violation"]
IDENTITIES = ["block matrix", "edge", "graph"]


def _records() -> dict:
    """One record of each type, from the calls that return them."""
    disconnected = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]])])
    return {
        "VerificationReport": verification_suite(path4_block2())[0],
        "InvertibilityResult": invertibility_check(path4_block2()),
        "InterlacingReport": interlacing_check(path_graph(3, 2)),
        "DeficientWeighting": rank_deficient_weighting(diamond4()),
        "RankProbe": rank_characterization_probe(diamond4()),
        "Inertia": inertia_check(path_graph(3, 2)),
        "Violation": validate(disconnected)[0],
        "GenConfig": GenConfig(n_range=(3, 5), kind=WeightKind.NONSINGULAR,
                               seed=7),
    }


def _identities() -> dict:
    """A graph, an edge of it and a block matrix."""
    g = path4_block2()
    return {"graph": g, "edge": g.edges[1],
            "block matrix": BlockMatrix(np.arange(8.0).reshape(2, 4), 2)}


def _same(a, b) -> bool:
    """Equal type and equal contents, arrays compared entry by entry."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, MatrixWeightedGraph):
        return (a.n, a.s) == (b.n, b.s) and _same(a.edges, b.edges)
    if isinstance(a, Edge):
        return (a.u, a.v) == (b.u, b.v) and _same(a.weight, b.weight)
    if isinstance(a, BlockMatrix):
        return a.block_size == b.block_size and _same(a.data, b.data)
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_reprs_keep_their_text():
    g = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]])])
    assert repr(validate(g)[0]) == (
        "Violation(code='NotConnected', message='graph on 3 vertices is not "
        "connected', edge_index=None)")
    assert repr(verification_suite(path_graph(2), "identities")[0]) == (
        "VerificationReport(name='ld', status='PASS', residual=0.0, "
        "tolerance=2e-08, n=2, s=1, detail='Laplacian times distance matrix "
        "against its rank-one-plus-shift form')")
    assert repr(Inertia(2, 1, 1)) == "Inertia(positive=2, negative=1, zero=1)"
    assert repr(path_graph(2)) == (
        "MatrixWeightedGraph(n=2, s=1, edges=(Edge(u=1, v=2, "
        "weight=array([[1.]])),))")
    assert repr(BlockMatrix([[1.0, 2.0]], 1)) == (
        "BlockMatrix(data=array([[1., 2.]]), block_size=1)")
    assert repr(GenConfig()) == (
        "GenConfig(n_range=(2, 10), s_range=(1, 4), kind=<WeightKind.SPD: "
        "'spd'>, condition_cap=10000.0, seed=0)")


def test_records_keep_their_fields_and_methods():
    assert sorted(_records()) == RECORDS
    assert sorted(_identities()) == IDENTITIES
    assert VerificationReport._fields == (
        "name", "status", "residual", "tolerance", "n", "s", "detail")
    report = VerificationReport("x", "PASS", 0.5, 1.0, 2, 1)
    assert report.detail == "" and report.passed
    assert report == VerificationReport(name="x", status="PASS", residual=0.5,
                                        tolerance=1.0, n=2, s=1, detail="")
    assert not report._replace(status="FAIL").passed
    assert InvertibilityResult(True).reason == ""
    assert Violation("Code", "text").edge_index is None
    assert str(Violation("Code", "text", 3)) == "Code: text"
    assert GenConfig() == GenConfig((2, 10), (1, 4), WeightKind.SPD, 1e4, 0)
    assert RankProbe._fields == (
        "branch", "full_rank", "observed_ranks", "witness", "passed")
    assert DeficientWeighting._fields == (
        "edge_index", "endpoints", "w", "trees_with_edge",
        "trees_without_edge")
    assert InterlacingReport._fields == (
        "mu", "lam", "triples", "slack", "worst_violation", "passed", "n",
        "s")
    # records are tuples now: they iterate, and equal plain tuples
    assert tuple(Inertia(2, 1, 1)) == (2, 1, 1) == Inertia(2, 1, 1)


@pytest.mark.parametrize("name", RECORDS)
def test_records_cannot_change(name):
    record = _records()[name]
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("name, field", [
    ("graph", "n"), ("graph", "edges"), ("graph", "weights"),
    ("edge", "u"), ("edge", "weight"),
    ("block matrix", "data"), ("block matrix", "block_size"),
])
def test_identity_types_cannot_change(name, field):
    obj = _identities()[name]
    with pytest.raises(AttributeError):
        setattr(obj, field, getattr(obj, field))
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("rebuild", [
    lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"])
@pytest.mark.parametrize("name", RECORDS + IDENTITIES)
def test_pickle_and_copy_round_trip(rebuild, name):
    obj = {**_records(), **_identities()}[name]
    back = rebuild(obj)
    assert _same(back, obj)


@pytest.mark.parametrize("kwargs", [
    {"n_range": (1, 5)}, {"n_range": (5, 2)}, {"n_range": (0, 0)},
    {"s_range": (0, 2)}, {"s_range": (3, 2)},
    {"condition_cap": 1.0}, {"condition_cap": 0.5},
    {"condition_cap": math.inf}, {"condition_cap": math.nan},
    {"kind": "spd"}, {"seed": -1},
    {"seed": 1.5}, {"n_range": (2.5, 4)}, {"s_range": (1, 2.0)},
    # beyond int64, where numpy's draws fail with "high is out of bounds"
    {"n_range": (2, 10**30)}, {"s_range": (1, 2**63)}, {"seed": 2**63},
])
def test_gen_config_refuses_every_bad_field(kwargs):
    with pytest.raises(BadConfigError):
        GenConfig(**kwargs)
    # a copy with one field replaced is checked as a construction is
    with pytest.raises(BadConfigError):
        GenConfig()._replace(**kwargs)
