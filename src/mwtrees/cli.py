"""Command line interface.

Subcommands build the block matrices of a graph file, invert or take the
determinant of a tree distance matrix with closed-form/factorization
cross-checks, run the verification suites, emit random instances, and find
rank-deficient weightings of non-tree graphs.

Every command but ``random`` (which writes files and a manifest) is a
report command: ``cmd_<name>(g, args)`` only computes, and returns its
check records, its extra report fields and its matrices (or None).
Only ``verify`` imports :mod:`mwtrees.checks` and only ``random`` the
generators, each inside its command, so no other command compiles them.
:func:`main` is the one report path: it reads the input, assembles the
``mwtrees/report/v1`` report, prints it as JSON or text and sets the exit
code from the records.  JSON reports are strict: a residual or tolerance
that is not finite is ``null`` there (the text format prints ``nan`` or
``inf``).

Exit codes: 0 success / all checks pass, 1 a check failed, 2 the input
could not be read, parsed or validated, the arguments were malformed (a
``--trials``, ``--count`` or ``--seed`` below 0, a ``--tolerance`` that is
not finite and above 0) or ``random`` could not write its output, 3
precondition failure (not a tree, not SPD, ...), 4 matrix not invertible,
5 internal error: an exception that is not a package error escaped a
command's computation; it is a bug, and its traceback goes to stderr.
141: stdout was closed before all of the output was written (``mwtrees
... | head``); it is the code a shell reports for a writer stopped by
SIGPIPE, and nothing is printed for it.

:func:`run` is the process entry: the ``mwtrees`` console script,
``python -m mwtrees`` and ``python -m mwtrees.cli`` all start there.
:func:`main` is the library call under it, and leaves the garbage
collector as it found it.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import sys
from typing import NoReturn

import numpy as np

from .closedforms import (
    SUITES,
    _report,
    _skipped,
    distance_determinant_sign_log,
    distance_inverse,
    distance_matrix,
    incidence_matrix,
    laplacian,
    rank_deficient_weighting,
    witness_rank,
)
from .errors import (
    GraphFileError,
    MWTreesError,
    NotInvertibleError,
)
from .formats import (
    check_record,
    dump_graph,
    input_digest,
    loads_graph,
    make_report,
)
from .graphs import MatrixWeightedGraph
from .linalg import sign_log_determinant

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_NOT_INVERTIBLE = 4
EXIT_INTERNAL = 5
EXIT_CLOSED_STDOUT = 141

#: ``random --kind`` choices, the values of ``generators.WeightKind``:
#: spelled out, so that only ``random`` loads the generators.
KINDS = ("spd", "nonsingular", "scalar-positive", "scalar-any-nonzero")


def _read_input(path: str) -> tuple[MatrixWeightedGraph, str]:
    """Load a graph from a file path or stdin ('-'); return it with the
    sha256 digest of the input's bytes, as read (no newline translation)."""
    try:
        if path == "-":
            raw = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as handle:
                raw = handle.read()
        text = raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphFileError(f"cannot read {path}: {exc}") from None
    return loads_graph(text), input_digest(raw)


def _emit(report: dict, extras: dict, fmt: str) -> None:
    if fmt == "json":
        for check in report["checks"]:   # strict JSON: no NaN or Infinity
            for key in ("residual", "tolerance"):
                if check[key] is not None and not math.isfinite(check[key]):
                    check[key] = None
        print(json.dumps(report, indent=2))
        return
    print(f"# {report['command']}  input {report['input_digest']}")
    for extra in sorted(extras):
        print(f"{extra}: {extras[extra]}")
    for check in report["checks"]:
        if check["status"] == "SKIPPED":
            print(f"{check['name']:24s} SKIPPED   ({check['detail']})")
        else:
            print(
                f"{check['name']:24s} {check['status']:8s} "
                f"residual {check['residual']:.3e}  "
                f"tolerance {check['tolerance']:.3e}"
            )
    for name, rows in report.get("matrices", {}).items():
        print(f"{name} =")
        print(np.array2string(np.asarray(rows), precision=6, suppress_small=True))


def cmd_build(g, args):
    if args.which == "D":
        block = distance_matrix(g)
    elif args.which == "L":
        block = laplacian(g, args.mode)
    else:
        block = incidence_matrix(g)
    extras = {
        "which": args.which,
        "mode": args.mode if args.which == "L" else None,
        "n": g.n,
        "s": g.s,
        "shape": list(block.data.shape),
    }
    return [], extras, {args.which: block.data}


def cmd_invert(g, args):
    inv = distance_inverse(g)
    dist = distance_matrix(g)
    residual = float(
        np.max(np.abs(dist.data @ inv.data - np.eye(g.n * g.s)))
    )
    tolerance = args.tolerance or 1e-8 * g.n * g.s   # None by default
    records = [_report("inverse_residual", residual, tolerance, g,
                       "max |entry| of D @ D_inverse - I")]
    matrices = None
    if args.emit_matrices:
        matrices = {"D": dist.data, "D_inverse": inv.data}
    return records, {"n": g.n, "s": g.s}, matrices


def cmd_det(g, args):
    sign_cf, log_cf = distance_determinant_sign_log(g)
    sign_lu, log_lu = sign_log_determinant(distance_matrix(g).data)
    records = [_report(
        "determinant_sign", abs(sign_cf - sign_lu), 0.0, g,
        f"closed form {sign_cf:+.0f}, factorization {sign_lu:+.0f}",
    )]
    if sign_cf == 0.0 or sign_lu == 0.0:
        records.append(_skipped(
            "determinant_logmag",
            "determinant is zero, no magnitude to compare", g,
        ))
    else:
        residual = abs(log_cf - log_lu) / max(1.0, abs(log_lu))
        records.append(_report(
            "determinant_logmag", residual, args.tolerance, g,
            "relative gap between closed-form and factorization "
            "log-magnitudes",
        ))
    # det D may leave float range where log|det D| does not: it is null
    # then, and the sign and the log carry it
    with np.errstate(over="ignore"):
        value = sign_cf * float(np.exp(log_cf))
    if sign_cf != 0.0 and not 0.0 < abs(value) < math.inf:
        value = None
    extras = {
        "n": g.n,
        "s": g.s,
        "sign": sign_cf,
        "log_abs_determinant": None if sign_cf == 0.0 else log_cf,
        "determinant": value,
    }
    return records, extras, None


def cmd_verify(g, args):
    from .checks import verification_suite

    records = verification_suite(
        g,
        suite=args.suite,
        seed=args.seed,
        trials=args.trials,
        rel_tol=args.tolerance,
    )
    matrices = None
    if args.emit_matrices:   # the analysis builds each at most once
        matrices = {}
        for name, build in (("D", distance_matrix), ("L", laplacian)):
            try:
                matrices[name] = build(g).data
            except MWTreesError:
                pass
    extras = {"suite": args.suite, "seed": args.seed, "n": g.n, "s": g.s}
    return records, extras, matrices


def cmd_random(args) -> int:
    from .generators import GenConfig, WeightKind, random_instances

    kind = WeightKind(args.kind)
    config = GenConfig(n_range=(args.n, args.n), s_range=(args.s, args.s),
                       kind=kind, condition_cap=args.condition_cap,
                       seed=args.seed)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        raise GraphFileError(f"cannot write to {args.out}: {exc}") from None
    files = []
    tree = args.topology == "tree"
    for i, g in enumerate(random_instances(args.count, config, tree)):
        path = os.path.join(args.out, f"graph-{i:04d}.json")
        try:
            dump_graph(g, path)
        except OSError as exc:
            raise GraphFileError(f"cannot write {path}: {exc}") from None
        files.append({"path": path, "seed": args.seed + i, "n": g.n,
                      "s": g.s, "edges": g.m})
    manifest = {
        "schema": "mwtrees/manifest/v1",
        "kind": kind.value,
        "topology": args.topology,
        "count": args.count,
        "files": files,
    }
    print(json.dumps(manifest, indent=2))
    return EXIT_OK


def cmd_deficient(g, args):
    witness = rank_deficient_weighting(g)   # IsATreeError on a tree
    rank = witness_rank(g)
    records = [_report(
        "rank_deficiency", float(rank), float(g.n - 2), g,
        f"scalar Laplacian rank with weight {witness.w:g} on edge "
        f"{witness.endpoints}",
    )]
    extras = {
        "n": g.n,
        "s": g.s,
        "edge_index": witness.edge_index,
        "endpoints": list(witness.endpoints),
        "w": witness.w,
        "trees_with_edge": witness.trees_with_edge,
        "trees_without_edge": witness.trees_without_edge,
        "achieved_rank": rank,
        "full_rank": g.n - 1,
    }
    return records, extras, None


def _count(text: str) -> int:
    """A whole number of at least 0, for ``--trials``, ``--count`` and
    ``--seed``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be a whole number >= 0, got {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _tolerance(text: str) -> float:
    """A finite number above 0, for ``--tolerance``."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan   # refused below, as "nan" is
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and > 0, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mwtrees",
        description="Distance matrices, block Laplacians and spectral "
                    "checks for matrix-weighted graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("input", help="graph JSON file, or - for stdin")
        p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("build", help="assemble D, L or Q for a graph file")
    add_common(p)
    p.add_argument("--which", choices=("D", "L", "Q"), required=True)
    p.add_argument("--mode", choices=("raw", "inverted"), default="inverted",
                   help="Laplacian blocks use weights or their inverses")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("invert",
                       help="closed-form inverse of the tree distance matrix")
    add_common(p)
    p.add_argument("--tolerance", type=_tolerance, default=None,
                   help="max-entry residual bound (default 1e-8 * n * s)")
    p.add_argument("--emit-matrices", action="store_true")
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("det",
                       help="closed-form determinant, cross-checked against "
                            "a factorization")
    add_common(p)
    p.add_argument("--tolerance", type=_tolerance, default=1e-7,
                   help="relative log-magnitude gap bound")
    p.set_defaults(func=cmd_det)

    p = sub.add_parser("verify", help="run a verification suite")
    add_common(p)
    p.add_argument("--suite", choices=SUITES, default="all")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--trials", type=_count, default=5,
                   help="reweighting trials in the rank suite")
    p.add_argument("--tolerance", type=_tolerance, default=1e-8,
                   help="relative tolerance for the identity residuals")
    p.add_argument("--emit-matrices", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("random", help="write random instance files")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    p.add_argument("--kind", choices=KINDS, default="spd")
    p.add_argument("--topology", choices=("tree", "nontree"), default="tree")
    p.add_argument("--seed", type=_count, default=0)
    p.add_argument("--count", type=_count, default=1)
    p.add_argument("--condition-cap", type=float, default=1e4)
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("deficient",
                       help="rank-deficient scalar weighting of a non-tree")
    add_common(p)
    p.set_defaults(func=cmd_deficient)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "random":   # files and a manifest, not a report
            return cmd_random(args)
        g, digest = _read_input(args.input)
        records, extras, matrices = args.func(g, args)
        checks = [check_record(r) for r in records]
        _emit(make_report(args.command, digest, checks, extras, matrices),
              extras, args.format)
        failed = any(r.status == "FAIL" for r in records)
        return EXIT_CHECK_FAILED if failed else EXIT_OK
    except GraphFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for problem in exc.problems:
            print(f"  - {problem}", file=sys.stderr)
        return EXIT_PARSE
    except NotInvertibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_INVERTIBLE
    except MWTreesError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except BrokenPipeError:   # stdout's reader left: not a bug
        return _stdout_closed()
    except Exception:   # not a package error: a bug, reported as one
        import traceback   # here, so that start-up does not pay for it

        traceback.print_exc()
        print(f"error: internal error in mwtrees {args.command}",
              file=sys.stderr)
        return EXIT_INTERNAL


def _stdout_closed() -> int:
    """Point stdout's file descriptor at os.devnull, so that the flush of
    what is still buffered cannot raise again, and return the exit code of
    a closed stdout."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)
    return EXIT_CLOSED_STDOUT


def run() -> NoReturn:
    """Run :func:`main` as a process, then exit with its code.

    On every way out of :func:`main` it freezes the heap (``gc.freeze``),
    so the interpreter's shutdown collections skip the objects that numpy
    and the package leave tracked, which cost a tenth of a short command's
    wall time; then it flushes stdout and stderr.  Atexit handlers, stream
    flushing and module teardown still run.
    """
    try:
        code = main()
    except SystemExit as exc:   # argparse: --help (0) or a usage error (2)
        code = exc.code
    finally:
        gc.freeze()
    try:
        sys.stdout.flush()
    except BrokenPipeError:   # the output fitted the buffer; its reader left
        code = _stdout_closed()
    sys.stderr.flush()
    sys.exit(code)


if __name__ == "__main__":
    run()
