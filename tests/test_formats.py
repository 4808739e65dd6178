import io
import json
import subprocess
import sys

import numpy as np
import pytest

import mwtrees
from mwtrees.closedforms import VerificationReport
from mwtrees.errors import GraphFileError
from mwtrees.formats import (
    GRAPH_SCHEMA,
    REPORT_SCHEMA,
    check_record,
    dump_graph,
    dumps_graph,
    graph_from_dict,
    graph_to_dict,
    input_digest,
    load_graph,
    loads_graph,
    make_report,
)
from mwtrees.gallery import path4_block2
from mwtrees.graphs import MatrixWeightedGraph

from conftest import python_env


def graphs_equal(a, b) -> bool:
    return (
        a.n == b.n
        and a.s == b.s
        and len(a.edges) == len(b.edges)
        and all(
            (e1.u, e1.v) == (e2.u, e2.v) and np.array_equal(e1.weight, e2.weight)
            for e1, e2 in zip(a.edges, b.edges)
        )
    )


def test_graph_round_trip():
    g = path4_block2()
    assert graphs_equal(loads_graph(dumps_graph(g)), g)


def test_graph_round_trip_preserves_floats_exactly():
    w = np.array([[1.0 / 3.0, 0.1], [-2.0 / 7.0, 1e-17]])
    g = MatrixWeightedGraph(2, 2, [(1, 2, w)])
    back = loads_graph(dumps_graph(g))
    assert np.array_equal(back.edges[0].weight, w)


def test_graph_file_round_trip(tmp_path):
    path = str(tmp_path / "g.json")
    g = path4_block2()
    dump_graph(g, path)
    assert graphs_equal(load_graph(path), g)
    with open(path, "r", encoding="utf-8") as handle:
        assert graphs_equal(load_graph(handle), g)


def test_graph_dict_shape():
    obj = graph_to_dict(path4_block2())
    assert obj["schema"] == GRAPH_SCHEMA
    assert obj["n"] == 4 and obj["s"] == 2
    assert obj["edges"][1]["weight"] == [[0.0, 2.0], [1.0, 0.0]]
    # schema field is optional on input
    del obj["schema"]
    assert graphs_equal(graph_from_dict(obj), path4_block2())


def test_unknown_fields_are_rejected():
    obj = graph_to_dict(path4_block2())
    obj["comment"] = "nope"
    with pytest.raises(GraphFileError, match="unknown top-level"):
        graph_from_dict(obj)
    obj = graph_to_dict(path4_block2())
    obj["edges"][0]["label"] = "e1"
    with pytest.raises(GraphFileError, match="unknown fields"):
        graph_from_dict(obj)


def test_missing_and_mistyped_fields_are_rejected():
    with pytest.raises(GraphFileError, match="missing required"):
        graph_from_dict({"n": 2, "s": 1})
    with pytest.raises(GraphFileError, match="must be an integer"):
        graph_from_dict({"n": 2.0, "s": 1, "edges": []})
    with pytest.raises(GraphFileError, match="must be an integer"):
        graph_from_dict({"n": True, "s": 1, "edges": []})
    with pytest.raises(GraphFileError, match="must be a list"):
        graph_from_dict({"n": 2, "s": 1, "edges": {}})
    with pytest.raises(GraphFileError, match="edge 0"):
        graph_from_dict({"n": 2, "s": 1, "edges": [{"u": 1, "v": 2}]})


def test_a_missing_edge_field_is_named_whatever_the_hash_seed():
    # the fields are checked in the order u, v, weight, not in the order
    # of a set, which changes with the interpreter's string hashing
    code = ("from mwtrees.formats import graph_from_dict\n"
            "try:\n"
            "    graph_from_dict({'n': 2, 's': 1, 'edges': [{'u': 1}]})\n"
            "except Exception as exc:\n"
            "    print(exc)\n")
    for seed in range(1, 7):
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env={
                                 **python_env(), "PYTHONHASHSEED": str(seed)})
        assert out.stdout == "edge 0: missing field 'v'\n", seed


def test_bad_schema_and_bad_json():
    with pytest.raises(GraphFileError, match="schema"):
        graph_from_dict({"schema": "other/v9", "n": 2, "s": 1, "edges": []})
    with pytest.raises(GraphFileError, match="JSON"):
        loads_graph("{not json")
    with pytest.raises(GraphFileError, match="object"):
        loads_graph("[1, 2]")


def test_ragged_weight_is_rejected():
    obj = {
        "n": 2,
        "s": 2,
        "edges": [{"u": 1, "v": 2, "weight": [[1.0, 0.0], [1.0]]}],
    }
    with pytest.raises(GraphFileError, match="rectangular"):
        graph_from_dict(obj)


@pytest.mark.parametrize("weight, shown", [
    ([["2.5"]], '"2.5"'),
    ([[True]], "true"),
    ([[1.0, True], [0.0, 1.0]], "true"),
    ([[1.0, 0.0], [None, 1.0]], "null"),
])
def test_weight_entries_that_are_not_numbers_are_rejected(weight, shown):
    # numpy would read "2.5" as 2.5 and true as 1.0
    obj = {"n": 3, "s": len(weight), "edges": [
        {"u": 1, "v": 2, "weight": np.eye(len(weight)).tolist()},
        {"u": 2, "v": 3, "weight": weight},
    ]}
    with pytest.raises(GraphFileError,
                       match=f"edge 1: weight entry {shown} is not a number"):
        loads_graph(json.dumps(obj))


def test_validation_failures_surface_problem_list():
    obj = {
        "n": 4,
        "s": 1,
        "edges": [
            {"u": 1, "v": 2, "weight": [[1.0]]},
            {"u": 3, "v": 4, "weight": [[1.0]]},
        ],
    }
    with pytest.raises(GraphFileError) as info:
        graph_from_dict(obj)
    assert any("NotConnected" in p for p in info.value.problems)


def test_input_digest_frozen():
    assert input_digest(b"abc") == (
        "sha256:ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_check_record_pass_field():
    passing = VerificationReport("x", "PASS", 0.0, 1.0, 2, 1)
    failing = VerificationReport("x", "FAIL", 2.0, 1.0, 2, 1)
    skipped = VerificationReport("x", "SKIPPED", None, None, 2, 1, "why")
    assert check_record(passing)["pass"] is True
    assert check_record(failing)["pass"] is False
    assert check_record(skipped)["pass"] is None
    assert check_record(skipped)["detail"] == "why"


def test_make_report_shape():
    rec = check_record(VerificationReport("x", "PASS", 0.0, 1.0, 2, 1))
    report = make_report(
        "verify",
        input_digest(b"{}"),
        [rec],
        extras={"n": 2},
        matrices={"D": np.eye(2)},
    )
    assert report["schema"] == REPORT_SCHEMA
    assert report["version"] == mwtrees.__version__
    assert report["command"] == "verify"
    assert report["n"] == 2
    assert report["matrices"]["D"] == [[1.0, 0.0], [0.0, 1.0]]
    # the whole thing is JSON-serializable
    parsed = json.loads(json.dumps(report))
    assert parsed["checks"][0]["pass"] is True


def test_load_graph_from_stream():
    g = path4_block2()
    assert graphs_equal(load_graph(io.StringIO(dumps_graph(g))), g)
