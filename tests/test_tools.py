import importlib.util
import json
import os

import pytest

_TOOLS = os.path.abspath(os.path.join(os.path.dirname(__file__), "..",
                                      "tools"))


def _tool(name: str):
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(_TOOLS, name + ".py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _compare_outputs():
    return _tool("compare_outputs")


def test_compare_outputs_names_the_graphs_behind_each_moved_label(capsys):
    # twelve witness lines and one record move: each label lists its
    # graphs sorted, ten at most, then how many more
    names = [f"g{i:02d}" for i in range(12)][::-1]
    before = "".join(f"{g} witness aa\n" for g in names) + \
        "tree suite/rank PASS aa\ntree det aa\n"
    after = "".join(f"{g} witness bb\n" for g in names) + \
        "tree suite/rank FAIL bb\ntree det aa\n"
    assert not _compare_outputs().report("REF", before, after)
    assert capsys.readouterr().out.splitlines() == [
        "14 lines at REF, 14 here; 13 moved",
        "  suite/rank: 1",
        "    tree",
        "  witness: 12",
        "    " + " ".join(sorted(names)[:10]) + " … 2 more",
        "1 status changes",
        "  tree suite/rank: PASS -> FAIL",
    ]


def test_faults_reports_each_tree_shape_of_the_benchmark():
    faults = _tool("faults")
    shapes = {name: (g.n, g.s, faults.mw.is_tree(g))
              for name, g in faults.graphs(1).items()}
    assert shapes == {"deep": (72, 2, True), "wide": (40, 8, True),
                      "mixed": (64, 4, True), "general": (40, 8, True)}
    result = faults.measure(1, 1)
    assert set(result["classes"]) == set(shapes)
    for name, c in result["classes"].items():
        assert (c["n"], c["s"]) == shapes[name][:2]
        assert c["median_s"] > 0 and c["median_minor_faults"] >= 0
    assert result["rounds"] == 1 and result["numpy"]


def test_bench_runs_one_pair_of_head_against_the_checkout():
    # bench/run.py reads scipy's version
    pytest.importorskip("scipy")
    bench = _tool("bench")
    result = bench.ab("HEAD", "trees", pairs=1, seconds=1)
    assert (result["workload"], result["seed"], result["pairs"]) == \
        ("trees", 1, 1)
    assert len(result["ref"]) == 40
    assert result["correct"] == {"ref": [True], "change": [True]}
    specs = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in specs["end_to_end"]]
    for spec in specs["end_to_end"]:
        metric = result["metrics"][spec["name"]]
        assert set(metric) == {
            "unit", "better", "ref", "change", "ratios", "favour_change",
            "ref_median", "change_median", "ref_iqr", "ref_iqr_share",
            "bound"}
        assert (metric["unit"], metric["better"], metric["bound"]) == \
            (spec["unit"], spec["better"], spec["bound"])
        assert len(metric["ref"]) == len(metric["change"]) == 1
        assert metric["ratios"] == [metric["change"][0] / metric["ref"][0]]
        assert metric["favour_change"] in (0, 1)
        assert metric["ref_iqr"] == 0.0
    json.dumps(result, allow_nan=False)
