#!/usr/bin/env python3
"""The mwtrees benchmark.

    python3 bench/run.py --workload {cli,trees,nontree} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is used from ``src``
(``PYTHONPATH=src``), never installed.  Each workload is a closed loop with
one client: one op at a time from a single process, for about ``--seconds``
of op time.  The in-process workloads run a round count fixed by
``--seconds``, so a seed gives the same ops on every run.  Every op's output is checked against an independent reference
outside the timed region, and failed ops are counted, never retried.

With ``--trace 0`` the last line of stdout is the result with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics from
a traced run, which also writes its spans to ``.bench_out/``.  The line
before it is a JSON block with the environment and the details behind the
metrics (tail percentile and sample count, ops and failures per class).
"""

from __future__ import annotations

import os
import sys

# Pin BLAS to one thread before numpy loads, for this process and every
# process it starts.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import calibrate  # noqa: E402
import selftest  # noqa: E402
from spans import Span, Tracer  # noqa: E402
from stats import OpLog  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SPAWNS = 5
CLI_PROBE_SPAWNS = 3
SETUP_CODE = (
    "import mwtrees\n"
    "g = mwtrees.load_graph('fixtures/path4_block2.json')\n"
    "mwtrees.verification_suite(g, 'all')\n"
)

END_TO_END = {
    "setup_s": "s", "ops_per_s": "1/s", "op_p50_s": "s", "op_tail_s": "s",
    "ok_share": "ratio", "margin_digits": "digits", "peak_rss_mb": "MB",
}
TREE_LAYERS = (
    "formats.loads_graph_s", "formats.report_s",
    "operators.distance_matrix_s", "operators.distance_matrix.block_adds",
    "operators.laplacian_s", "operators.incidence_matrix_s",
    "closedforms.det_sign_log_s", "closedforms.distance_inverse_s",
    "closedforms.identities_s", "closedforms.ginverse_s",
    "closedforms.spectrum_s", "closedforms.rank_s",
    "linalg.pseudo_inverse_s", "linalg.symmetric_eigenvalues_s",
    "linalg.numerical_rank_s",
)
NONTREE_LAYERS = (
    "operators.laplacian_s", "operators.incidence_matrix_s",
    "closedforms.ginverse_s", "closedforms.rank_s",
    "closedforms.rank_deficient_weighting_s",
    "linalg.pseudo_inverse_s", "linalg.numerical_rank_s",
)
CLI_LAYERS = ("cli.interpreter_s", "cli.import_s", "cli.import_scipy_s",
              "cli.main_s")
TRACE_METRICS = ("trace.overhead_s", "trace.op_self_s")


def per_layer_names() -> list[str]:
    names = [f"{layer}.{sc.name}" for sc in inputs.TREES.classes
             for layer in TREE_LAYERS]
    names += [f"{layer}.{sc.name}" for sc in inputs.NONTREE.classes
              for layer in NONTREE_LAYERS]
    names += ["closedforms.untyped_errors"]
    return names + list(CLI_LAYERS) + list(TRACE_METRICS)


def layer_unit(name: str) -> str:
    return "count" if ".block_adds" in name or "untyped" in name else "s"


# --- environment -----------------------------------------------------------

def git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
    except OSError:   # no git
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration", ""),
        "blas_threads": int(BLAS_THREADS),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


# --- processes -------------------------------------------------------------

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(argv: list[str], out_path: Path, err_path: Path
          ) -> tuple[int, float, float]:
    """Run one child to completion; return (exit code, wall seconds, peak
    RSS in MB) with stdout and stderr written to the given files."""
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def timed_python(code: str, work: Path, extra: tuple = ()) -> tuple:
    out, err = work / "py.out", work / "py.err"
    code_, wall, _ = spawn([sys.executable, *extra, "-c", code], out, err)
    if code_ != 0:
        raise RuntimeError(f"python -c failed: {err.read_text()[-400:]}")
    return wall, out.read_text(), err.read_text()


def setup_seconds(work: Path) -> tuple[float, float]:
    """Median wall time of fresh interpreters that import mwtrees and run one
    verification suite on the path4_block2 fixture, after one untimed spawn
    that leaves the bytecode caches warm.  Returns (scaled by the spawn
    kernel, raw)."""
    timed_python(SETUP_CODE, work)
    kernels = [calibrate.spawn_kernel()]
    walls = []
    for _ in range(SETUP_SPAWNS):
        walls.append(timed_python(SETUP_CODE, work)[0])
        kernels.append(calibrate.spawn_kernel())
    raw = statistics.median(walls)
    return raw * calibrate.SPAWN_NOMINAL_S / statistics.median(kernels), raw


def scipy_import_seconds(stderr: str) -> float:
    """Cumulative ``-X importtime`` seconds of the outermost scipy modules
    (those not imported from inside another scipy module)."""
    rows = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        rows.append((depth, int(cumulative), name.strip()))
    total = 0
    stack: list[tuple[int, bool]] = []   # (depth, inside scipy)
    for depth, cumulative, name in reversed(rows):   # parents first
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inside = bool(stack) and stack[-1][1]
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not inside:
            total += cumulative
        stack.append((depth, inside or is_scipy))
    return total / 1e6


# --- in-process ops --------------------------------------------------------

class Program:
    """The package, imported from ``src`` into this process."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import mwtrees
        from mwtrees import cli, formats
        self.mw = mwtrees
        self.cli = cli
        self.formats = formats


def describe(exc: BaseException) -> str:
    return f"raised {type(exc).__name__}: {exc}"


def no_span(name):
    return contextlib.nullcontext()


def trees_op(p: Program, text: str, span=no_span) -> dict:
    """loads_graph -> verification_suite -> det -> inverse -> report."""
    mw, fm = p.mw, p.formats
    with span("formats.loads_graph_s"):
        g = fm.loads_graph(text)
    with span("closedforms.verification_suite_s"):
        records = mw.verification_suite(g, "all")
    with span("closedforms.det_sign_log_s"):
        sign, log_abs = mw.distance_determinant_sign_log(g)
    with span("closedforms.distance_inverse_s"):
        inv = mw.distance_inverse(g)
    with span("formats.report_s"):
        checks_ = [fm.check_record(r) for r in records]
        digest = fm.input_digest(text.encode("utf-8"))
        report = json.dumps(fm.make_report(
            "verify", digest, checks_,
            {"sign": sign, "log_abs_determinant": log_abs}))
    return {"records": records, "det": (sign, log_abs), "inv": inv.data,
            "report": report}


def nontree_op(p: Program, g, span=no_span) -> dict:
    """verification_suite, then the rank-deficient weighting and the
    program's own check that it drops the rank (``verify`` + ``deficient``)."""
    mw = p.mw
    with span("closedforms.verification_suite_s"):
        records = mw.verification_suite(g, "all")
    with span("closedforms.rank_deficient_weighting_s"):
        witness = mw.rank_deficient_weighting(g)
    with span("op.rank_check"):
        lap = mw.reweighted_scalar_laplacian(g, witness.edge_index, witness.w)
        rank = mw.numerical_rank(lap)
    return {"records": records, "witness": witness, "rank": rank}


class TreeRef:
    """Reference values for one tree input, computed before the loop."""

    def __init__(self, p: Program, graph: inputs.Graph):
        g = p.formats.loads_graph(graph.to_json())
        self.d = p.mw.distance_oracle(g).data
        self.slogdet = tuple(float(x) for x in np.linalg.slogdet(self.d))
        try:
            d_prog = p.mw.distance_matrix(g).data
        except Exception as exc:  # a broken program fails its ops, no more
            self.problems = [f"distance_matrix {describe(exc)}"]
        else:
            self.problems = checks.check_distance(d_prog, self.d)


def check_trees_op(graph, ref: TreeRef, out: dict) -> list[str]:
    problems = list(ref.problems)
    problems += checks.check_records(checks.record_dicts(out["records"]),
                                     graph.tree, graph.spd)
    problems += checks.check_determinant(*out["det"], ref.slogdet)
    problems += checks.check_inverse(out["inv"], ref.d, graph.n, graph.s)
    if json.loads(out["report"]).get("schema") != checks.REPORT_SCHEMA:
        problems.append("report schema is not mwtrees/report/v1")
    return problems


def check_nontree_op(graph, counts: checks.CountReference,
                     out: dict) -> list[str]:
    problems = checks.check_records(checks.record_dicts(out["records"]),
                                    graph.tree, graph.spd)
    if not out["rank"] < graph.n - 1:
        problems.append("the program's own rank check rejects its witness")
    return problems + checks.check_witness(out["witness"], graph.n,
                                           graph.edges, counts)


class InProcess:
    """The trees and nontree workloads: inputs, references, one op."""

    def __init__(self, p: Program, workload: inputs.Workload, seed: int,
                 references: bool = True):
        self.p = p
        self.w = workload
        self.pools = inputs.class_pool(workload, seed)
        self.texts = {g.name: g.to_json()
                      for pool in self.pools.values() for g in pool}
        self.refs = {}
        for pool in self.pools.values():
            for g in pool if references else ():
                if workload is inputs.TREES:
                    self.refs[g.name] = TreeRef(p, g)
                else:
                    self.refs[g.name] = checks.CountReference(g.n, g.edges)

    def run(self, graph: inputs.Graph, span=no_span):
        """Time one op; return (latency, output, exception).  The output is
        None when the op raised."""
        text = self.texts[graph.name]
        if self.w is inputs.TREES:
            op, arg = trees_op, text
        else:
            op, arg = nontree_op, self.p.formats.loads_graph(text)
            # a fresh graph object per op, parsed outside the timed region
        t0 = time.perf_counter()
        try:
            out = op(self.p, arg, span)
        except Exception as exc:  # the op failed; the caller counts it
            return time.perf_counter() - t0, None, exc
        return time.perf_counter() - t0, out, None

    def check(self, graph: inputs.Graph, out, exc) -> list[str]:
        if exc is not None:
            return [describe(exc)]
        ref = self.refs[graph.name]
        if self.w is inputs.TREES:
            return check_trees_op(graph, ref, out)
        return check_nontree_op(graph, ref, out)


def op_inputs(workload: inputs.Workload, pools, seed: int, rounds: int):
    """Yield the op inputs of ``rounds`` whole rounds in schedule order,
    cycling over each class's pool, so every class gets the same number of
    ops."""
    used = {name: 0 for name in pools}
    for _, cls in inputs.op_schedule(workload, seed, rounds):
        pool = pools[cls]
        yield pool[used[cls] % len(pool)]
        used[cls] += 1


# --- CLI ops ---------------------------------------------------------------

class CliInputs:
    """Graph files and the seeded cycle of (command, input) pairs."""

    def __init__(self, seed: int, work: Path):
        files = []   # (path relative to ROOT, tree, spd, digest)
        for name in inputs.FIXTURES:
            rel = f"fixtures/{name}"
            facts = inputs.FIXTURE_FACTS[name]
            files.append((rel, facts["tree"], facts["spd"],
                          checks.digest((ROOT / rel).read_bytes())))
        for g in inputs.cli_seeded_graphs(seed):
            path = work / f"{g.name}.json"
            path.write_text(g.to_json())
            files.append((str(path.relative_to(ROOT)), g.tree, g.spd,
                          checks.digest(path.read_bytes())))
        combos = []
        for rel, tree, spd, dig in files:
            for label, argv in inputs.CLI_COMMANDS:
                combos.append({
                    "label": label,
                    "argv": [a.replace("{input}", rel) for a in argv],
                    "expected": inputs.expected_exit(label, tree, spd),
                    "digest": dig,
                    "fixture": rel.startswith("fixtures/"),
                })
        out = work / "random"
        combos.append({
            "label": "random",
            "argv": ["random", "--n", "8", "--s", "2", "--count", "3",
                     "--seed", str(seed), "--out", str(out.relative_to(ROOT))],
            "expected": 0, "digest": None, "fixture": False,
        })
        order = np.random.default_rng([seed, 5]).permutation(len(combos))
        self.combos = [combos[int(i)] for i in order]

    def cycle(self):
        return itertools.cycle(self.combos)


def check_cli_combo(combo: dict, code: int, stdout: str):
    argv = combo["argv"]
    fmt = "text" if "text" in argv else "json"
    problems, records = checks.check_cli(argv[0], fmt, code,
                                         combo["expected"], stdout,
                                         combo["digest"])
    if not problems and combo["label"] == "random":
        files = json.loads(stdout).get("files", [])
        if len(files) != 3 or not all((ROOT / f["path"]).is_file()
                                      for f in files):
            problems.append("random did not write the 3 listed files")
    return problems, records


def run_cli_op(combo: dict, work: Path):
    argv = [sys.executable, "-m", "mwtrees", *combo["argv"]]
    code, wall, rss = spawn(argv, work / "op.out", work / "op.err")
    stdout = (work / "op.out").read_text()
    problems, records = check_cli_combo(combo, code, stdout)
    return wall, rss, problems, records


def cli_main(p: Program, argv: list[str]) -> int:
    """``mwtrees.cli.main(argv)`` in process, stdout and stderr captured."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return p.cli.main(argv)


# --- untraced run ----------------------------------------------------------

def run_untraced(workload: inputs.Workload, seed: int, seconds: float,
                 work: Path) -> tuple[OpLog, dict]:
    setup, setup_raw = setup_seconds(work)
    if workload is inputs.CLI:
        kernel = calibrate.spawn_kernel
        log = OpLog(nominal=calibrate.SPAWN_NOMINAL_S)
        peak = 0.0
        cli_in = CliInputs(seed, work)
        for i, combo in enumerate(cli_in.cycle()):
            # at least one whole cycle, so every (command, input) pair runs
            if i >= len(cli_in.combos) and log.nominal_time() >= seconds:
                break
            log.kernels.append(kernel())
            wall, rss, problems, records = run_cli_op(combo, work)
            peak = max(peak, rss)
            log.add(combo["label"], wall, problems)
            if combo["fixture"]:
                # two seeded files give too few records for a steady maximum
                log.add_margins(checks.margins(records))
    else:
        kernel = calibrate.compute_kernel
        log = OpLog(nominal=calibrate.COMPUTE_NOMINAL_S)
        wl = InProcess(Program(), workload, seed)
        rounds = workload.rounds(seconds)
        for graph in op_inputs(workload, wl.pools, seed, rounds):
            log.kernels.append(kernel())
            lat, out, exc = wl.run(graph)
            log.add(graph.cls, lat, wl.check(graph, out, exc))
            if out is not None:
                log.add_margins(checks.margins(
                    checks.record_dicts(out["records"])))
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    log.kernels.append(kernel())
    summary = log.summary()
    raw = log.summary(log.latencies)
    worst = max(log.margins, default=1.0)
    metrics = {
        "setup_s": setup,
        "ops_per_s": summary["ops_per_s"],
        "op_p50_s": summary["op_p50_s"],
        "op_tail_s": summary["op_tail_s"],
        "ok_share": log.ok_share(),
        "margin_digits": -math.log10(worst),
        "peak_rss_mb": peak,
    }
    details = {
        "tail": {"percentile": summary["tail_percentile"],
                 "samples": summary["samples"]},
        "worst_margin": max(log.margins, default=None),
        "kernel_s": {"nominal": log.nominal,
                     "median": statistics.median(log.kernels),
                     "min": min(log.kernels), "max": max(log.kernels)},
        "unscaled": {"setup_s": setup_raw, "ops_per_s": raw["ops_per_s"],
                     "op_p50_s": raw["op_p50_s"],
                     "op_tail_s": raw["op_tail_s"]},
    }
    # margin_digits only means something while every record passes with
    # room; a FAIL record already fails its op, a margin of exactly 1 (or no
    # records at all) fails the run here
    problems = [] if worst < 1.0 else [
        f"worst residual/tolerance is {worst} (1.0 when no op gave records); "
        "margin_digits is not positive"]
    return log, {"metrics": metrics, "details": details,
                 "problems": problems}


# --- traced run ------------------------------------------------------------

NONTREE_CLASSES = {sc.name for sc in inputs.NONTREE.classes}
# A traced in-process op runs untraced, traced and then as its layer calls:
# about three times the op time of an untraced op.
TRACE_COST = 3


class TracedRun:
    """Spans around the ops and around direct calls into each module's
    public functions, made by this file only."""

    def __init__(self, p: Program, work: Path):
        self.p = p
        self.work = work
        self.tracer = Tracer()
        self.op = 0
        self.untyped = 0    # nontree failures that were not MWTreesError

    def span(self, name, cls):
        return self.tracer.span(name, self.op, cls)

    def _count(self, exc, cls) -> None:
        if exc is not None and not isinstance(exc, self.p.mw.MWTreesError):
            self.untyped += cls in NONTREE_CLASSES

    def call(self, name, cls, fn, *args):
        """One direct layer call; a refusal (typed or not) is still timed."""
        with self.span(name, cls):
            try:
                return fn(*args)
            except Exception as exc:  # the layer refused this input
                if name.startswith("closedforms."):
                    self._count(exc, cls)
                return None

    def on_graph(self, name, cls, fn, text, *args):
        """A layer call on a graph parsed from ``text`` outside the span, so
        no other call has used (or warmed a cache on) that graph object."""
        g = self.p.formats.loads_graph(text)
        return self.call(name, cls, fn, g, *args)

    def _matrix_layers(self, text, cls):
        """The Laplacian, incidence, pseudo-inverse and rank layers."""
        mw = self.p.mw
        lap = self.on_graph("operators.laplacian_s", cls, mw.laplacian, text)
        lap = None if lap is None else lap.data
        self.on_graph("operators.incidence_matrix_s", cls,
                      mw.incidence_matrix, text)
        self.call("linalg.pseudo_inverse_s", cls, mw.pseudo_inverse, lap)
        self.call("linalg.numerical_rank_s", cls, mw.numerical_rank, lap)

    def tree_layers(self, text, cls) -> None:
        mw = self.p.mw
        d = self.on_graph("operators.distance_matrix_s", cls,
                          mw.distance_matrix, text)
        self.call("linalg.symmetric_eigenvalues_s", cls,
                  mw.symmetric_eigenvalues, None if d is None else d.data)
        self._matrix_layers(text, cls)
        for family in ("identities", "ginverse", "spectrum", "rank"):
            self.on_graph(f"closedforms.{family}_s", cls,
                          mw.verification_suite, text, family)

    def nontree_layers(self, text, cls) -> None:
        mw = self.p.mw
        self._matrix_layers(text, cls)
        for family in ("ginverse", "rank"):
            self.on_graph(f"closedforms.{family}_s", cls,
                          mw.verification_suite, text, family)
        self.on_graph("closedforms.rank_deficient_weighting_s", cls,
                      mw.rank_deficient_weighting, text)

    def inprocess(self, workload, seed, seconds, log=None, untraced=None):
        """Traced ops, each followed by its direct layer calls.  With ``log``
        the loop runs the rounds of ``seconds / TRACE_COST`` and every op
        first runs untraced too (latency to ``untraced``); without, it is one
        unchecked round, so that every class's layer metrics are present."""
        wl = InProcess(self.p, workload, seed, references=log is not None)
        rounds = 1 if log is None else workload.rounds(seconds / TRACE_COST)
        for graph in op_inputs(workload, wl.pools, seed, rounds):
            cls = graph.cls
            if log is not None:
                untraced.append(wl.run(graph)[0])
            with self.span("op", cls):
                lat, out, exc = wl.run(graph, lambda n: self.span(n, cls))
            self._count(exc, cls)
            if log is not None:
                log.add(cls, lat, wl.check(graph, out, exc))
            text = wl.texts[graph.name]
            with self.span("layers", cls):
                if workload is inputs.TREES:
                    self.tree_layers(text, cls)
                else:
                    self.nontree_layers(text, cls)
            self.op += 1

    def cli(self, seed, seconds, log=None, untraced=None):
        """Interpreter and import spans, then CLI commands through
        ``cli.main`` in process; with ``log`` each is preceded by the same
        command as an untraced and a traced subprocess op, for ``seconds``
        of wall time."""
        for _ in range(CLI_PROBE_SPAWNS):
            with self.span("cli.interpreter_s", "cli"):
                timed_python("pass", self.work)
            _, out, _ = timed_python(
                "import time\nt = time.perf_counter()\nimport mwtrees\n"
                "print(time.perf_counter() - t)", self.work)
            self._child_span("cli.import_s", float(out))
            _, _, err = timed_python("import mwtrees", self.work,
                                     ("-X", "importtime"))
            self._child_span("cli.import_scipy_s", scipy_import_seconds(err))
            self.op += 1
        end = time.perf_counter() + seconds
        for i, combo in enumerate(CliInputs(seed, self.work).cycle()):
            if log is None and i >= len(inputs.CLI_COMMANDS):
                break
            if log is not None:
                if i and time.perf_counter() >= end:
                    break
                untraced.append(run_cli_op(combo, self.work)[0])
                with self.span("op", "cli"):
                    wall, _, problems, _ = run_cli_op(combo, self.work)
                log.add(combo["label"], wall, problems)
            with self.span("layers", "cli"):
                self.call("cli.main_s", "cli", cli_main, self.p,
                          combo["argv"])
            self.op += 1

    def _child_span(self, name: str, seconds: float) -> None:
        """A span for a duration measured inside a child process."""
        now = time.perf_counter()
        self.tracer.spans.append(Span(len(self.tracer.spans), name, self.op,
                                      None, now - seconds, now, "cli"))


def block_adds(graph: inputs.Graph) -> int:
    """Block additions ``distance_matrix`` makes: the sum of the path lengths
    over all vertex pairs, i.e. sum over edges of |side| * (n - |side|)."""
    adj = {v: [] for v in range(1, graph.n + 1)}
    for u, v in graph.edges:
        adj[u].append(v)
        adj[v].append(u)
    order, parent = [1], {1: 0}
    for x in order:
        for y in adj[x]:
            if y not in parent:
                parent[y] = x
                order.append(y)
    size = {v: 1 for v in order}
    for x in reversed(order[1:]):
        size[parent[x]] += size[x]
    return sum(size[v] * (graph.n - size[v]) for v in order[1:])


def run_traced(workload: inputs.Workload, seed: int, seconds: float,
               work: Path) -> tuple[OpLog, dict]:
    run = TracedRun(Program(), work)
    log, untraced = OpLog(), []
    # the measured workload first, then one round of each other workload so
    # that every layer metric is present
    others = [w for w in inputs.WORKLOADS.values() if w is not workload]
    for w in [workload] + others:
        kwargs = {"log": log, "untraced": untraced} if w is workload else {}
        if w is inputs.CLI:
            run.cli(seed, seconds, **kwargs)
        else:
            run.inprocess(w, seed, seconds, **kwargs)
    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}-seed{seed}.json"
    run.tracer.write(trace_file)

    selfs = run.tracer.self_times()
    by_name: dict[tuple, list] = {}
    for sp in run.tracer.spans:
        by_name.setdefault((sp.name, sp.cls), []).append(selfs[sp.id])
    mine = {sc.name for sc in workload.classes} or {"cli"}
    op_self = [selfs[sp.id] for sp in run.tracer.spans
               if sp.name == "op" and sp.cls in mine]
    traced_p50 = statistics.median(log.latencies)
    untraced_p50 = statistics.median(untraced)
    tree_pools = inputs.class_pool(inputs.TREES, seed)
    metrics = {
        "closedforms.untyped_errors": run.untyped,
        "trace.overhead_s": traced_p50 - untraced_p50,
        "trace.op_self_s": statistics.median(op_self),
    }
    for name in per_layer_names():
        if name in metrics:
            continue
        if ".block_adds." in name:
            metrics[name] = statistics.median(
                block_adds(g) for g in tree_pools[name.rsplit(".", 1)[1]])
        elif name.startswith("cli."):
            metrics[name] = statistics.median(by_name[(name, "cli")])
        else:
            layer, cls = name.rsplit(".", 1)
            metrics[name] = statistics.median(by_name[(layer, cls)])
    details = {
        "trace_file": str(trace_file.relative_to(ROOT)),
        "spans": len(run.tracer.spans),
        "traced_op_p50_s": traced_p50,
        "untraced_op_p50_s": untraced_p50,
    }
    return log, {"metrics": metrics, "details": details, "problems": []}


# --- entry point -----------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mwtrees" / "__init__.py").is_file():
        print(f"error: no package source at {SRC}/mwtrees; run from the "
              "root of an mwtrees checkout", file=sys.stderr)
        return 2
    if not selftest.passes():
        print("error: the harness self-tests failed", file=sys.stderr)
        return 1

    os.chdir(ROOT)   # CLI argv and in-process cli.main use ROOT-relative paths
    workload = inputs.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        if args.trace:
            log, result = run_traced(workload, args.seed, args.seconds, work)
            units = {name: layer_unit(name) for name in per_layer_names()}
        else:
            log, result = run_untraced(workload, args.seed, args.seconds,
                                       work)
            units = END_TO_END
    finally:
        shutil.rmtree(work, ignore_errors=True)

    unexpected = log.unexpected({cls: kf.problem for cls, kf
                                 in workload.known_failures.items()})
    details = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "loop": workload.loop,
        "classes": {sc.name: sc.size for sc in workload.classes},
        "environment": environment(),
        "ops_by_class": {c: log.classes.count(c)
                         for c in sorted(set(log.classes))},
        "p50_s_by_class": log.p50_by_class(),
        "failed_by_class": log.failed_by_class(),
        "first_failure_by_class": log.first_failure_by_class(),
        "known_failures": {cls: kf.why for cls, kf
                           in workload.known_failures.items()},
        "unexpected_failures": [list(f) for f in unexpected[:20]],
        "run_problems": result["problems"],
        **result["details"],
    }
    print(json.dumps({"details": details}))
    print(json.dumps({
        "correct": not unexpected and not result["problems"],
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
