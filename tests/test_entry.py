"""The process entry, ``mwtrees.cli.run``: every way of starting the program
reaches it, and a process prints, writes and exits as ``main`` does in
process."""

import gc
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from mwtrees import cli
from mwtrees.cli import EXIT_CLOSED_STDOUT, main

from conftest import fixture_path, python_env, run_python

PATH4 = fixture_path("path4_block2.json")
PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def _console_script_target() -> tuple[str, str]:
    """(module, function) of the ``mwtrees`` console script."""
    found = re.search(r'^mwtrees = "([\w.]+):(\w+)"$', PYPROJECT.read_text(),
                      re.MULTILINE)
    assert found, "no mwtrees console script in pyproject.toml"
    return found[1], found[2]


# each route as a -c program; at exit it reports whether the heap was
# frozen, which of all the code on these routes only run() does
_AT_EXIT = ("import atexit, gc, runpy, sys; atexit.register(lambda: print("
            "'frozen', gc.get_freeze_count() > 0, file=sys.stderr)); ")
_RUN_MODULE = "runpy.run_module({!r}, run_name='__main__', alter_sys=True)"
ROUTES = {
    # what the installed script does: call the target, exit with its value
    "console script": _AT_EXIT + "from {0} import {1}; sys.exit({1}())".format(
        *_console_script_target()),
    "python -m mwtrees": _AT_EXIT + _RUN_MODULE.format("mwtrees"),
    "python -m mwtrees.cli": _AT_EXIT + _RUN_MODULE.format("mwtrees.cli"),
}


def test_console_script_targets_run():
    module, name = _console_script_target()
    assert getattr(importlib.import_module(module), name) is cli.run


@pytest.mark.parametrize("route", sorted(ROUTES))
def test_every_route_reaches_run(capsys, route):
    done = run_python("-c", ROUTES[route], "det", PATH4)
    code = main(["det", PATH4])
    assert done.returncode == code == 0
    assert done.stdout == capsys.readouterr().out
    assert done.stderr == "frozen True\n"


def test_main_leaves_the_collector_alone(capsys):
    before = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
    assert main(["verify", PATH4]) == 0
    assert main(["det", fixture_path("cycle4_block2.json")]) == 3
    with pytest.raises(SystemExit):
        main(["verify", PATH4, "--trials", "-1"])
    after = gc.isenabled(), gc.get_threshold(), gc.get_freeze_count()
    assert after == before


@pytest.mark.parametrize("argv, code", [
    (["det", PATH4], 0),
    (["verify", PATH4, "--trials", "-1"], 2),
    (["--help"], 0),
])
def test_run_freezes_and_exits_with_the_code_of_main(capsys, monkeypatch,
                                                     argv, code):
    frozen = []
    monkeypatch.setattr(gc, "freeze", lambda: frozen.append(True))
    monkeypatch.setattr(sys, "argv", ["mwtrees", *argv])
    with pytest.raises(SystemExit) as info:
        cli.run()
    assert info.value.code == code and frozen == [True]


@pytest.mark.parametrize("argv, code", [
    (["verify", PATH4, "--trials", "-1"], 2),
    (["--help"], 0),
    (["det", "--help"], 0),
])
def test_usage_errors_and_help_keep_their_codes_and_output(capsys,
                                                           monkeypatch,
                                                           argv, code):
    monkeypatch.setenv("COLUMNS", "80")   # the help text's width
    done = run_python("-m", "mwtrees", *argv)
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert done.returncode == info.value.code == code
    assert (done.stdout, done.stderr) == capsys.readouterr()


def test_random_process_writes_the_bytes_of_main(capsys, monkeypatch,
                                                 tmp_path):
    # no file depends on shutdown collecting it
    argv = ["random", "--n", "6", "--s", "2", "--count", "3", "--seed", "4",
            "--out", "out"]
    process, library = tmp_path / "process", tmp_path / "library"
    process.mkdir()
    library.mkdir()
    done = run_python("-m", "mwtrees", *argv, cwd=process)
    monkeypatch.chdir(library)
    code = main(argv)
    assert (done.returncode, done.stdout, done.stderr) == (
        code, *capsys.readouterr())
    names = sorted(os.listdir(process / "out"))
    assert names == [f"graph-{i:04d}.json" for i in range(3)]
    assert sorted(os.listdir(library / "out")) == names
    for name in names:
        assert (process / "out" / name).read_bytes() == (
            library / "out" / name).read_bytes()


# the package's modules that `import mwtrees.cli` loads, then those of
# their classes that are dataclasses, as two JSON lines
_CLI_IMPORT = (
    "import json, sys, mwtrees.cli\n"
    "ours = sorted(m for m in sys.modules if m.split('.')[0] == 'mwtrees')\n"
    "print(json.dumps(ours))\n"
    "print(json.dumps([name for m in ours\n"
    "                  for name, v in vars(sys.modules[m]).items()\n"
    "                  if isinstance(v, type)\n"
    "                  and hasattr(v, '__dataclass_fields__')]))\n"
)
PUBLIC_NAMES = [
    "BadConfigError", "BlockMatrix", "DeficientWeighting", "Edge", "FAIL",
    "GRAPH_SCHEMA", "GenConfig", "GraphFileError", "IDENTITY_NAMES",
    "Inertia", "InterlacingReport", "InvertibilityResult", "IsATreeError",
    "LaplacianMode", "MWTreesError", "MatrixWeightedGraph", "NonFiniteError",
    "NotATreeError", "NotConnectedError", "NotInvertibleError",
    "NotSPDError", "NotSymmetricError", "PASS", "REPORT_SCHEMA", "RankProbe",
    "SKIPPED", "SUITES", "SameVertexError", "SingularMatrixError",
    "SingularWeightError", "VerificationReport", "Violation", "WeightKind",
    "cycle4_block2", "cycle_graph", "degrees", "delta_vector", "diamond4",
    "distance_determinant_sign_log", "distance_inverse", "distance_matrix",
    "distance_oracle", "dump_graph", "dumps_graph",
    "ginverse_distance_recovery", "ginverse_invariance_check",
    "graph_from_dict", "graph_to_dict", "incidence_matrix", "inertia_check",
    "inertia_of", "interlacing_check", "inverse", "invertibility_check",
    "is_connected", "is_tree", "laplacian", "load_graph", "loads_graph",
    "numerical_rank", "path4_block2", "path_graph", "pseudo_inverse",
    "random_connected_nontree", "random_instances", "random_nonsingular",
    "random_spd", "random_tree", "rank_characterization_probe",
    "rank_deficient_weighting", "reweighted_scalar_laplacian",
    "sign_log_determinant", "star_graph", "symmetric_eigenvalues",
    "tree_path", "validate", "verification_suite", "verify_identities",
    "weight_sum",
]

# the package names that mwtrees.checks serves
CHECKS_NAMES = [
    "IDENTITY_NAMES", "InterlacingReport", "RankProbe",
    "ginverse_distance_recovery", "ginverse_invariance_check",
    "inertia_check", "interlacing_check", "pseudo_inverse",
    "rank_characterization_probe", "verification_suite", "verify_identities",
]

# processes of every command, with their exit codes and whether each
# loads the checks: only `verify` runs them
_COMMANDS = [
    (["build", PATH4, "--which", "D"], 0, False),
    (["invert", PATH4], 0, False),
    (["det", PATH4], 0, False),
    (["random", "--n", "5", "--s", "2", "--out", "out"], 0, False),
    (["deficient", PATH4], 3, False),   # a tree: IsATreeError
    (["deficient", fixture_path("diamond4.json")], 0, False),
    (["verify", PATH4], 0, True),
]


def _imported(*argv, **kwargs) -> tuple[int, set[str]]:
    """The exit code of ``python -X importtime *argv`` and the modules it
    imported."""
    done = run_python("-X", "importtime", *argv, **kwargs)
    return done.returncode, {
        line.rsplit("|", 1)[1].strip() for line in done.stderr.splitlines()
        if line.startswith("import time:") and "|" in line}


def test_cli_start_up_loads_no_generators_and_no_dataclass(tmp_path):
    # a report command neither compiles the generators and the gallery
    # nor runs the code generation of a dataclass (`random` loads the
    # generators when it runs: test_random_process_writes_the_bytes_of_main),
    # and no command but `verify` compiles the checks
    done = run_python("-c", _CLI_IMPORT)
    assert done.returncode == 0, done.stderr
    modules, dataclasses = map(json.loads, done.stdout.splitlines())
    assert "mwtrees.cli" in modules and "mwtrees.closedforms" in modules
    assert "mwtrees.generators" not in modules
    assert "mwtrees.gallery" not in modules
    assert "mwtrees.checks" not in modules
    assert dataclasses == []
    for argv, code, checks in _COMMANDS:
        found, modules = _imported("-m", "mwtrees", *argv, cwd=tmp_path)
        assert (found, "mwtrees.cli" in modules) == (code, True), argv
        assert ("mwtrees.checks" in modules) == checks, argv


def test_package_serves_the_generators_and_the_gallery_on_first_use():
    done = run_python("-c", (
        "from mwtrees import path_graph, random_tree, distance_oracle\n"
        "print(path_graph.__module__, random_tree.__module__,\n"
        "      distance_oracle.__module__)\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [
        "mwtrees.gallery", "mwtrees.generators", "mwtrees.generators"]
    # and the checks: `import mwtrees` loads none of them, and each name
    # is the object of mwtrees.checks
    done = run_python("-c", (
        "import sys, mwtrees\n"
        "print('mwtrees.checks' in sys.modules)\n"
        f"names = {CHECKS_NAMES!r}\n"
        "values = [getattr(mwtrees, name) for name in names]\n"
        "from mwtrees import checks\n"
        "print(all(v is getattr(checks, n) for n, v in zip(names, values)))\n"))
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]
    import mwtrees

    assert sorted(mwtrees.__all__) == PUBLIC_NAMES
    assert set(PUBLIC_NAMES) <= set(dir(mwtrees))
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        mwtrees.nothing


def _mwtrees(*argv, env=None, **kwargs) -> subprocess.Popen:
    return subprocess.Popen([sys.executable, "-m", "mwtrees", *argv],
                            stderr=subprocess.PIPE, env=env or python_env(),
                            **kwargs)


def test_stdout_closed_while_writing_is_not_an_internal_error(capsys,
                                                              tmp_path):
    # a report larger than the pipe: the reader leaves after a few bytes,
    # so a write inside main fails
    main(["random", "--n", "60", "--s", "3", "--out", str(tmp_path)])
    graph = str(tmp_path / "graph-0000.json")
    with _mwtrees("build", graph, "--which", "D",
                  stdout=subprocess.PIPE) as proc:
        assert proc.stdout.read(10) == b'{\n  "schem'
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT == 141
    assert err == b""


@pytest.mark.parametrize("argv", [["det", PATH4], ["--help"]])
def test_stdout_closed_before_the_final_flush(argv):
    # output that fits stdout's buffer, and a pipe whose reader has already
    # gone: the flush before exit fails, after main returned or exited
    env = python_env()
    env.pop("PYTHONUNBUFFERED", None)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        with _mwtrees(*argv, stdout=write_end, env=env) as proc:
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == EXIT_CLOSED_STDOUT
    finally:
        os.close(write_end)
    assert err == b""
