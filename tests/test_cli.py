import hashlib
import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from mwtrees.cli import KINDS, main
from mwtrees.formats import dumps_graph, input_digest, load_graph
from mwtrees.gallery import path4_block2, path_graph, star_graph
from mwtrees.generators import WeightKind
from mwtrees.graphs import MatrixWeightedGraph, is_tree
from mwtrees.closedforms import distance_matrix, laplacian

from conftest import fixture_path, run_python

PATH4 = fixture_path("path4_block2.json")
CYCLE4 = fixture_path("cycle4_block2.json")
DIAMOND = fixture_path("diamond4.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


def test_build_distance_matrix(capsys):
    code, report, _ = run_json(capsys, "build", PATH4, "--which", "D")
    assert code == 0
    assert report["schema"] == "mwtrees/report/v1"
    assert report["which"] == "D"
    assert report["shape"] == [8, 8]
    d = np.asarray(report["matrices"]["D"])
    assert d[0, 2] == 2.0 and d[6, 0] == 3.0
    with open(PATH4, "rb") as handle:
        assert report["input_digest"] == input_digest(handle.read())


def test_build_laplacian_modes_differ(capsys):
    code, inverted, _ = run_json(capsys, "build", PATH4, "--which", "L")
    assert code == 0 and inverted["mode"] == "inverted"
    code, raw, _ = run_json(capsys, "build", PATH4, "--which", "L",
                            "--mode", "raw")
    assert code == 0 and raw["mode"] == "raw"
    assert inverted["matrices"]["L"] != raw["matrices"]["L"]
    assert np.asarray(raw["matrices"]["L"])[0, 0] == 2.0


def test_build_incidence_needs_spd(capsys):
    code, out, err = run_cli(capsys, "build", PATH4, "--which", "Q")
    assert code == 3
    assert "NotSPD" in err


def test_build_works_on_all_fixtures(capsys):
    for path in (PATH4, CYCLE4, DIAMOND):
        code, report, _ = run_json(capsys, "build", path, "--which", "L")
        assert code == 0


def test_build_distance_rejects_non_tree(capsys):
    code, out, err = run_cli(capsys, "build", CYCLE4, "--which", "D")
    assert code == 3
    assert "NotATree" in err


def test_invert_fixture(capsys):
    code, report, _ = run_json(capsys, "invert", PATH4)
    assert code == 0
    check = report["checks"][0]
    assert check["name"] == "inverse_residual"
    assert check["status"] == "PASS"
    assert check["residual"] < 1e-10
    assert "matrices" not in report


def test_invert_emit_matrices(capsys):
    code, report, _ = run_json(capsys, "invert", PATH4, "--emit-matrices")
    assert code == 0
    d = np.asarray(report["matrices"]["D"])
    d_inv = np.asarray(report["matrices"]["D_inverse"])
    assert np.max(np.abs(d @ d_inv - np.eye(8))) < 1e-10


def test_invert_impossible_tolerance_fails(capsys):
    code, report, _ = run_json(capsys, "invert", PATH4, "--tolerance", "1e-20")
    assert code == 1
    assert report["checks"][0]["status"] == "FAIL"


def test_invert_singular_distance_matrix(capsys, tmp_path):
    g = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    path = tmp_path / "singular.json"
    path.write_text(dumps_graph(g))
    code, out, err = run_cli(capsys, "invert", str(path))
    assert code == 4
    assert "not invertible" in err


def test_near_singular_weight_rejected_by_build_and_invert(capsys, tmp_path):
    # sigma_min / sigma_max of the weight is 1e-10, below the 1e-9 rank
    # cutoff, yet both LU pivots are 1e-5
    g = MatrixWeightedGraph(2, 2, [(1, 2, [[1e-5, 1.0], [0.0, 1e-5]])])
    path = tmp_path / "near_singular.json"
    path.write_text(dumps_graph(g))
    code, out, err = run_cli(capsys, "build", str(path), "--which", "L")
    assert code == 3 and out == ""
    assert "SingularWeightError" in err and "edge 0" in err
    code, out, err = run_cli(capsys, "invert", str(path))
    assert code == 4 and out == ""
    assert "not invertible" in err


@pytest.mark.parametrize("n", [3, 4])   # a path, a cycle
def test_weight_below_the_rank_cutoff_is_reported_and_not_spd(capsys,
                                                              tmp_path, n):
    # diag(1, 1e-10) is symmetric with positive eigenvalues, but their
    # ratio is below the 1e-9 rank cutoff: it is singular, so not SPD
    edges = [(v, v + 1, np.eye(2)) for v in range(1, n)]
    edges[0] = (1, 2, np.diag([1.0, 1e-10]))
    if n == 4:
        edges.append((1, 4, np.eye(2)))
    path = tmp_path / "nearly_singular.json"
    path.write_text(dumps_graph(MatrixWeightedGraph(n, 2, edges)))
    code, report, _ = run_json(capsys, "verify", str(path))
    assert code == 0
    assert len(report["checks"]) == 10
    code, out, err = run_cli(capsys, "build", str(path), "--which", "Q")
    assert code == 3 and out == ""
    assert "NotSPDError" in err and "edge 0" in err


def test_subnormal_asymmetric_weight_is_not_spd(capsys, tmp_path):
    # the asymmetry of 2^-1060 [[1, 2], [-0.5, 1]] is subnormal; a 1e-300
    # floor under the norm it is compared with made the weight SPD
    tiny = np.ldexp(np.array([[1.0, 2.0], [-0.5, 1.0]]), -1060)
    path = tmp_path / "subnormal_asymmetric.json"
    path.write_text(dumps_graph(path_graph(3, 2, [tiny, np.eye(2)])))
    code, out, err = run_cli(capsys, "build", str(path), "--which", "Q")
    assert code == 3 and out == ""
    assert "NotSPDError" in err and "not symmetric" in err


def test_import_loads_no_scipy():
    done = run_python(
        "-c", "import json, sys, mwtrees; print(json.dumps(list(sys.modules)))"
    )
    assert done.returncode == 0, done.stderr
    modules = set(json.loads(done.stdout))
    assert "mwtrees.linalg" in modules
    assert not {m for m in modules if m.split(".")[0] == "scipy"}


def test_package_exports_no_future_feature():
    import __future__
    import types

    import mwtrees

    assert "annotations" not in mwtrees.__all__
    assert not [name for name in mwtrees.__all__
                if isinstance(getattr(mwtrees, name), __future__._Feature)]
    # nor its submodules, which `from mwtrees import *` would bind
    assert not [name for name in mwtrees.__all__
                if isinstance(getattr(mwtrees, name), types.ModuleType)]
    assert "graphs" not in mwtrees.__all__ and "tree_path" in mwtrees.__all__


def test_cli_process_imports_no_scipy():
    done = run_python("-X", "importtime", "-m", "mwtrees", "det", PATH4)
    assert done.returncode == 0, done.stderr
    imported = [
        line.rsplit("|", 1)[1].strip()
        for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    assert "mwtrees.cli" in imported
    assert not [m for m in imported if m.split(".")[0] == "scipy"]


def test_deficient_on_a_non_tree_loads_no_numpy_random():
    # the witness branch draws nothing, so it builds no generator
    done = run_python("-c", (
        "import json, sys, numpy\n"
        "alone = 'numpy.random' in sys.modules\n"
        "from mwtrees import cli\n"
        "code = cli.main(['deficient', sys.argv[1]])\n"
        "print(json.dumps([alone, code, 'numpy.random' in sys.modules]))\n"
    ), DIAMOND)
    assert done.returncode == 0, done.stderr
    alone, code, loaded = json.loads(done.stdout.splitlines()[-1])
    if alone:
        pytest.skip("import numpy loads numpy.random on this numpy")
    assert code == 0 and not loaded


def test_det_fixture(capsys):
    code, report, _ = run_json(capsys, "det", PATH4)
    assert code == 0
    assert report["sign"] == -1.0
    assert report["determinant"] == pytest.approx(-896.0, rel=1e-9)
    names = {c["name"]: c["status"] for c in report["checks"]}
    assert names == {"determinant_sign": "PASS", "determinant_logmag": "PASS"}


def test_det_singular_case(capsys, tmp_path):
    g = MatrixWeightedGraph(3, 1, [(1, 2, [[1.0]]), (2, 3, [[-1.0]])])
    path = tmp_path / "singular.json"
    path.write_text(dumps_graph(g))
    code, report, _ = run_json(capsys, "det", str(path))
    assert code == 0
    assert report["determinant"] == 0.0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses["determinant_sign"] == "PASS"
    assert statuses["determinant_logmag"] == "SKIPPED"


@pytest.mark.parametrize("shape", ["path-1e-310", "star-2^-1060"])
def test_det_of_subnormal_weights_compares_the_magnitude(
    capsys, tmp_path, shape
):
    # a 5-path with weights 1e-310 I, log|det D| = 10 ln(2e-310), and a
    # 5-star with weights 2^-1060 [[1, 2], [-0.5, 1]], log|det D| =
    # -10585 ln 2: D's LU pivots underflowed, until the factorization took
    # D scaled by a power of two.  Both records pass against the exact
    # value, numpy stays silent and stdout is strict JSON
    if shape.startswith("path"):
        g = path_graph(5, 2, [1e-310 * np.eye(2)] * 4)
        exact = 10 * math.log(2e-310)
    else:
        w = np.ldexp(np.array([[1.0, 2.0], [-0.5, 1.0]]), -1060)
        g = star_graph(5, 2, [w] * 4)
        exact = -10585 * math.log(2.0)
    path = tmp_path / "tiny.json"
    path.write_text(dumps_graph(g))

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "det", str(path))
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=refuse)
    assert report["sign"] == 1.0
    assert report["log_abs_determinant"] == pytest.approx(exact, rel=1e-14)
    checks = {c["name"]: c["status"] for c in report["checks"]}
    assert checks == {"determinant_sign": "PASS",
                      "determinant_logmag": "PASS"}


@pytest.mark.parametrize("scale", [1e300, 1e-310])
def test_det_beyond_float_range_is_null(capsys, tmp_path, scale):
    # det D is about 1e3003 or 1e-3097: no double holds it, so the report
    # gives null, quietly, and the sign and log|det D| carry the value
    g = path_graph(5, 2, [scale * np.eye(2)] * 4)
    path = tmp_path / "beyond.json"
    path.write_text(dumps_graph(g))

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "det", str(path))
    assert code == 0 and err == ""
    report = json.loads(out, parse_constant=refuse)
    assert report["determinant"] is None and report["sign"] == 1.0
    assert abs(report["log_abs_determinant"]) > np.log(np.finfo(float).max)


def test_overflowed_path_sums_exit_with_typed_errors(capsys, tmp_path):
    # the path sums and R overflow: verify SKIPs what needs D or R; det,
    # invert and build D refuse with a package error, not an internal one
    g = MatrixWeightedGraph(30, 2, [(v, v + 1, 1e307 * np.diag([1.0, 2.0]))
                                    for v in range(1, 30)])
    path = tmp_path / "overflow.json"
    path.write_text(dumps_graph(g))
    code, report, _ = run_json(capsys, "verify", str(path))
    assert code == 0
    statuses = {c["name"]: c["status"] for c in report["checks"]}
    assert statuses.pop("rank_characterization") == "PASS"
    assert set(statuses.values()) == {"SKIPPED"}
    for argv in (["det"], ["invert"], ["build", "--which", "D"]):
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 3 and out == ""
        assert "NonFiniteError" in err and "Traceback" not in err


def test_inverse_weights_beyond_float_range_exit_with_typed_errors(
    capsys, tmp_path
):
    # subnormal weights 1e-310 I, which validate accepts, whose inverses
    # overflow: verify exited 5 on a LinAlgError from eigvalsh of an inf
    # L.  It SKIPs every record with the NonFiniteError's reason, and
    # build L and invert refuse with it
    path = tmp_path / "subnormal.json"
    path.write_text(dumps_graph(path_graph(5, 2, [1e-310 * np.eye(2)] * 4)))
    code, report, _ = run_json(capsys, "verify", str(path))
    assert code == 0
    for check in report["checks"]:
        assert check["status"] == "SKIPPED"
        assert check["detail"].startswith("an inverse edge weight has "
                                          "non-finite entries")
    for argv in (["build", "--which", "L"], ["invert"]):
        code, out, err = run_cli(capsys, *argv, str(path))
        assert code == 3 and out == ""
        assert "NonFiniteError" in err and "Traceback" not in err


@pytest.mark.parametrize("k, exit_code", [(600, 0), (-600, 1)])
def test_verify_far_from_unit_scale_prints_strict_json(capsys, tmp_path, k,
                                                       exit_code):
    # weights 2^k diag(1, 2): the g-inverse norms once squared the entries
    # unscaled and printed a tolerance Infinity, with numpy's overflow
    # warning.  At 2^-600 ldl's absolute tolerance still FAILs
    g = path_graph(5, 2, [np.ldexp(np.diag([1.0, 2.0]), k)] * 4)
    path = tmp_path / "scaled.json"
    path.write_text(dumps_graph(g))

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", str(path))
    assert code == exit_code and err == ""
    report = json.loads(out, parse_constant=refuse)
    failed = {c["name"] for c in report["checks"] if c["status"] == "FAIL"}
    assert failed == (set() if k > 0 else {"ldl"})


def test_verify_at_the_top_of_float_range_reports_null_and_warns_not(
        capsys, tmp_path):
    # weights 2^1020 diag(1, 2): five records overflow.  Their non-finite
    # residuals and tolerances are JSON null, and numpy warns about none
    g = path_graph(5, 2, [np.ldexp(np.diag([1.0, 2.0]), 1020)] * 4)
    path = tmp_path / "huge.json"
    path.write_text(dumps_graph(g))

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify", str(path))
        text_code, text, text_err = run_cli(capsys, "verify", str(path),
                                            "--format", "text")
    assert (code, err) == (1, "") and (text_code, text_err) == (1, "")
    report = json.loads(out, parse_constant=refuse)
    by_name = {c["name"]: c for c in report["checks"]}
    failed = {name for name, c in by_name.items() if c["status"] == "FAIL"}
    assert failed == {"dinv_minus_l", "ginverse_invariance",
                      "ginverse_recovery", "inertia", "interlacing"}
    assert by_name["dinv_minus_l"]["residual"] is None
    for name in ("ginverse_invariance", "ginverse_recovery", "interlacing"):
        assert by_name[name]["tolerance"] is None
    # the text format prints the values as they are
    assert "residual nan" in text and "tolerance inf" in text


REPORT_HEAD = ["schema", "version", "command", "input_digest", "checks"]


BUILD_KEYS = ["which", "mode", "n", "s", "shape", "matrices"]


@pytest.mark.parametrize("argv, extras, matrices", [
    (["build", PATH4, "--which", "D"], BUILD_KEYS, ["D"]),
    (["build", PATH4, "--which", "L", "--mode", "raw"], BUILD_KEYS, ["L"]),
    (["build", DIAMOND, "--which", "Q"], BUILD_KEYS, ["Q"]),
    (["invert", PATH4], ["n", "s"], None),
    (["invert", PATH4, "--emit-matrices"], ["n", "s", "matrices"],
     ["D", "D_inverse"]),
    (["det", PATH4], ["n", "s", "sign", "log_abs_determinant", "determinant"],
     None),
    (["verify", PATH4], ["suite", "seed", "n", "s"], None),
    (["verify", PATH4, "--emit-matrices"],
     ["suite", "seed", "n", "s", "matrices"], ["D", "L"]),
    (["deficient", DIAMOND],
     ["n", "s", "edge_index", "endpoints", "w", "trees_with_edge",
      "trees_without_edge", "achieved_rank", "full_rank"], None),
])
def test_report_key_order(capsys, argv, extras, matrices):
    # the order of the keys is part of the bytes a report prints
    code, report, _ = run_json(capsys, *argv)
    assert code == 0
    assert list(report) == REPORT_HEAD + extras
    assert list(report.get("matrices", [])) == (matrices or [])


def test_verify_all_fixtures_exit_zero(capsys):
    for path in (PATH4, CYCLE4, DIAMOND):
        code, report, _ = run_json(capsys, "verify", path)
        assert code == 0, path
        assert all(c["status"] != "FAIL" for c in report["checks"])


def test_verify_path4_skips_incidence_identity(capsys):
    code, report, _ = run_json(capsys, "verify", PATH4)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["qdq"]["status"] == "SKIPPED"
    assert by_name["ld"]["status"] == "PASS"
    assert by_name["rank_characterization"]["status"] == "PASS"


def test_verify_cycle_skips_identities_but_finds_witness(capsys):
    code, report, _ = run_json(capsys, "verify", CYCLE4)
    by_name = {c["name"]: c for c in report["checks"]}
    assert by_name["ld"]["status"] == "SKIPPED"
    assert by_name["rank_characterization"]["status"] == "PASS"
    assert "witness" in by_name["rank_characterization"]["detail"]


def test_verify_failing_tolerance_exits_one(capsys):
    code, report, _ = run_json(capsys, "verify", PATH4, "--suite", "identities",
                               "--tolerance", "1e-20")
    assert code == 1
    statuses = [c["status"] for c in report["checks"]]
    assert "FAIL" in statuses


def test_verify_emit_matrices(capsys):
    code, report, _ = run_json(capsys, "verify", PATH4, "--emit-matrices")
    assert code == 0
    assert set(report["matrices"]) == {"D", "L"}
    code, report, _ = run_json(capsys, "verify", DIAMOND, "--emit-matrices")
    assert code == 0
    assert set(report["matrices"]) == {"L"}


def test_verify_emit_matrices_builds_d_and_l_once(capsys, monkeypatch):
    # the matrices come from the analysis the suite built them in
    from mwtrees import closedforms, operators

    counts = {"tree_distance_data": 0, "block_laplacian": 0,
              "inverse_weights": 0}
    for module in (closedforms, operators):
        for name in counts:
            def counted(*args, _name=name, _fn=getattr(module, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(module, name, counted)
    code, report, _ = run_json(capsys, "verify", PATH4, "--emit-matrices")
    assert code == 0
    # L once, from weights inverted once
    assert counts == {"tree_distance_data": 1, "block_laplacian": 1,
                      "inverse_weights": 1}
    g = path4_block2()
    assert report["matrices"] == {
        "D": distance_matrix(g).data.tolist(),
        "L": laplacian(g).data.tolist(),
    }


def _spd_path4(tmp_path) -> str:
    """path4_block2 with its asymmetric middle weight made SPD, so the
    g-inverse checks run on the tree route instead of being skipped."""
    g = MatrixWeightedGraph(4, 2, [
        (e.u, e.v, [[2.0, 1.0], [1.0, 2.0]] if k == 1 else e.weight)
        for k, e in enumerate(path4_block2().edges)
    ])
    path = tmp_path / "spd_path4.json"
    path.write_text(dumps_graph(g))
    return str(path)


# seeds 0 and 1 draw roots 4 and 2 of 4, seeds 5 and 6 roots 3 and 2
@pytest.mark.parametrize("fixture", ["diamond4", "spd_path4"])
def test_verify_seed_changes_reports_deterministically(capsys, tmp_path,
                                                      fixture):
    path = DIAMOND if fixture == "diamond4" else _spd_path4(tmp_path)
    code1, rep1, _ = run_json(capsys, "verify", path, "--suite", "ginverse")
    code2, rep2, _ = run_json(capsys, "verify", path, "--suite", "ginverse")
    assert rep1["checks"] == rep2["checks"]
    code3, rep3, _ = run_json(capsys, "verify", path, "--suite", "ginverse",
                              "--seed", "5")
    code4, rep4, _ = run_json(capsys, "verify", path, "--suite", "ginverse",
                              "--seed", "5")
    assert rep3["checks"] == rep4["checks"]
    assert "roots (4, 2), seeds (0, 1)" in rep1["checks"][0]["detail"]
    assert "roots (3, 2), seeds (5, 6)" in rep3["checks"][0]["detail"]


def _stdin(monkeypatch, raw: bytes) -> None:
    """Replace stdin by a text stream over ``raw``, with its byte buffer,
    as a process's stdin has."""
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(raw)))


def test_stdin_input(capsys, monkeypatch):
    text = dumps_graph(path4_block2())
    _stdin(monkeypatch, text.encode())
    code, report, _ = run_json(capsys, "det", "-")
    assert code == 0
    assert report["input_digest"] == input_digest(text.encode())


def test_input_digest_is_the_sha256_of_the_input_bytes(capsys, monkeypatch,
                                                       tmp_path):
    # CRLF line ends are hashed as they are, from a file and from stdin
    raw = Path(PATH4).read_bytes().replace(b"\n", b"\r\n")
    path = tmp_path / "crlf.json"
    path.write_bytes(raw)
    expected = "sha256:" + hashlib.sha256(raw).hexdigest()
    code, from_file, _ = run_json(capsys, "det", str(path))
    assert code == 0 and from_file["input_digest"] == expected
    _stdin(monkeypatch, raw)
    code, from_stdin, _ = run_json(capsys, "det", "-")
    assert code == 0 and from_stdin == from_file
    # bytes that are not UTF-8 are unreadable input on stdin too
    _stdin(monkeypatch, b'{"n": 1, "\xff": 0}')
    code, out, err = run_cli(capsys, "det", "-")
    assert code == 2 and out == "" and "cannot read -" in err


def test_malformed_json_exits_two(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{broken")
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "error" in err


def test_unknown_field_exits_two(capsys, tmp_path):
    obj = json.loads(dumps_graph(path4_block2()))
    obj["extra"] = 1
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "unknown" in err


def test_string_weight_exits_two(capsys, tmp_path):
    obj = json.loads(dumps_graph(path4_block2()))
    obj["edges"][2]["weight"][0][0] = "2.5"
    path = tmp_path / "string.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert 'edge 2: weight entry "2.5" is not a number' in err


def test_disconnected_graph_exits_two_with_problems(capsys, tmp_path):
    obj = {
        "n": 4,
        "s": 1,
        "edges": [
            {"u": 1, "v": 2, "weight": [[1.0]]},
            {"u": 3, "v": 4, "weight": [[1.0]]},
        ],
    }
    path = tmp_path / "disc.json"
    path.write_text(json.dumps(obj))
    code, out, err = run_cli(capsys, "verify", str(path))
    assert code == 2
    assert "NotConnected" in err


def test_missing_file_exits_two(capsys):
    code, out, err = run_cli(capsys, "det", "/nonexistent/graph.json")
    assert code == 2


def test_unreadable_input_exits_two(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "s": 1, "edges": [], "\xff": 0}')
    code, out, err = run_cli(capsys, "det", str(path))
    assert code == 2 and out == ""
    assert "cannot read" in err
    # an integer weight beyond float range is a bad weight, not a crash
    path.write_text('{"n": 2, "s": 1, "edges": [{"u": 1, "v": 2, '
                    '"weight": [[1' + "0" * 400 + ']]}]}')
    code, out, err = run_cli(capsys, "det", str(path))
    assert code == 2 and out == ""
    assert "rectangular numeric array" in err


def test_random_unwritable_output_exits_two(capsys, tmp_path):
    taken = tmp_path / "file"
    taken.write_text("")
    code, out, err = run_cli(capsys, "random", "--n", "4", "--s", "1",
                             "--out", str(taken))
    assert code == 2 and out == ""
    assert "cannot write" in err


@pytest.mark.parametrize("argv", [
    ["--n", "4", "--s", "2", "--condition-cap", "inf"],
    ["--n", "4", "--s", "2", "--condition-cap", "1e400"],   # parses to inf
    ["--n", "4", "--s", "2", "--condition-cap", "1", "--count", "0"],
    ["--n", "1", "--s", "2", "--count", "0"],
    ["--n", "4", "--s", "0", "--count", "0"],
])
def test_random_refuses_a_bad_config_before_writing(capsys, tmp_path, argv):
    # a cap that is not finite and above 1, or a size out of range, is a
    # precondition failure with a one-line error, even for no files
    out_dir = tmp_path / "out"
    code, out, err = run_cli(capsys, "random", *argv, "--out", str(out_dir))
    assert code == 3 and out == ""
    assert err.startswith("error: BadConfigError: ") and err.count("\n") == 1
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["verify", PATH4, "--trials", "-1"],
    ["random", "--n", "4", "--s", "1", "--count", "-1"],
])
def test_negative_counts_are_rejected_when_parsed(capsys, tmp_path, argv):
    # refused at parsing (exit 2), not run as zero trials or files
    out_dir = tmp_path / "out"
    if argv[0] == "random":
        argv = [*argv, "--out", str(out_dir)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "must be >= 0, got -1" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("argv, seed", [
    (["verify", PATH4], "-1"),
    (["random", "--n", "3", "--s", "1"], "-5"),
])
def test_negative_seeds_are_rejected_when_parsed(tmp_path, argv, seed):
    # refused at parsing (exit 2), not passed on to numpy's seeding, which
    # raised ValueError: an internal error, exit 5 with a traceback
    out_dir = tmp_path / "out"
    if argv[0] == "random":
        argv = [*argv, "--out", str(out_dir)]
    done = run_python("-m", "mwtrees", *argv, "--seed", seed)
    assert done.returncode == 2 and done.stdout == ""
    assert f"argument --seed: must be >= 0, got {seed}" in done.stderr
    assert "Traceback" not in done.stderr
    assert not out_dir.exists()


@pytest.mark.parametrize("argv", [
    ["verify", PATH4, "--seed", "x"],
    ["verify", PATH4, "--trials", "x"],
    ["verify", PATH4, "--tolerance", "x"],
    ["random", "--n", "3", "--s", "1", "--count", "x"],
])
def test_unparsable_numbers_get_a_plain_usage_message(capsys, tmp_path,
                                                      argv):
    # argparse names the type function of an option whose text it cannot
    # convert ("invalid _count value"), unless that function says why
    option, out_dir = argv[-2], tmp_path / "out"
    if argv[0] == "random":
        argv = [*argv, "--out", str(out_dir)]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be " in err and "got " in err
    assert "_count" not in err and "_tolerance" not in err
    assert not out_dir.exists()


def test_random_kind_choices_are_the_weight_kinds():
    assert KINDS == tuple(kind.value for kind in WeightKind)


@pytest.mark.parametrize("argv", [
    ["invert", PATH4, "--tolerance", "nan"],
    ["det", PATH4, "--tolerance", "-1"],
    ["verify", PATH4, "--tolerance", "inf", "--suite", "identities"],
    ["verify", PATH4, "--tolerance", "0"],
])
def test_bad_tolerances_are_rejected_when_parsed(capsys, argv):
    # refused at parsing (exit 2), not run into a failed or vacuous check
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and "must be finite and > 0" in err


def test_untyped_error_after_parsing_is_an_internal_error(capsys,
                                                          monkeypatch):
    # a ValueError from a command's computation is a bug: it gets its own
    # exit code and its traceback, not the parse-error code
    def broken(*args, **kwargs):
        raise ValueError("cannot convert float NaN to integer")

    monkeypatch.setattr("mwtrees.cli.verification_suite", broken)
    code, out, err = run_cli(capsys, "verify", PATH4)
    assert code == 5 and out == ""
    assert "Traceback" in err
    assert "ValueError: cannot convert float NaN to integer" in err
    assert "internal error in mwtrees verify" in err


def test_deficient_diamond(capsys):
    code, report, _ = run_json(capsys, "deficient", DIAMOND)
    assert code == 0
    assert report["endpoints"] == [1, 3]
    assert report["w"] == -1.0
    assert report["trees_with_edge"] == 4
    assert report["achieved_rank"] == 2
    assert report["checks"][0]["status"] == "PASS"


def test_deficient_on_tree_exits_three(capsys):
    code, out, err = run_cli(capsys, "deficient", PATH4)
    assert code == 3
    assert "IsATree" in err


def test_random_writes_loadable_instances(capsys, tmp_path):
    out_dir = str(tmp_path / "batch")
    code, out, err = run_cli(
        capsys, "random", "--n", "6", "--s", "2", "--count", "3",
        "--seed", "11", "--out", out_dir,
    )
    assert code == 0
    manifest = json.loads(out)
    assert manifest["count"] == 3
    assert [f["seed"] for f in manifest["files"]] == [11, 12, 13]
    for entry in manifest["files"]:
        g = load_graph(entry["path"])
        assert is_tree(g)
        assert g.n == 6 and g.s == 2
    # same seeds, same bytes
    second = str(tmp_path / "again")
    run_cli(capsys, "random", "--n", "6", "--s", "2", "--count", "3",
            "--seed", "11", "--out", second)
    for i in range(3):
        name = f"graph-{i:04d}.json"
        assert (Path(out_dir) / name).read_text() == (
            Path(second) / name).read_text()


def test_random_nontree_topology(capsys, tmp_path):
    out_dir = str(tmp_path / "nt")
    code, out, err = run_cli(
        capsys, "random", "--n", "5", "--s", "1", "--count", "2",
        "--topology", "nontree", "--kind", "scalar-positive", "--out", out_dir,
    )
    assert code == 0
    manifest = json.loads(out)
    for entry in manifest["files"]:
        assert not is_tree(load_graph(entry["path"]))


def test_text_format_output(capsys):
    code, out, err = run_cli(capsys, "verify", PATH4, "--format", "text")
    assert code == 0
    assert "PASS" in out and "SKIPPED" in out
    code, out, err = run_cli(capsys, "build", PATH4, "--which", "D",
                             "--format", "text")
    assert code == 0
    assert "D =" in out
