"""Compare the outputs of this checkout with those of a git revision.

Usage, from anywhere in a source checkout::

    python3 tools/compare_outputs.py REF

It extracts ``git archive REF`` into a temporary directory, runs this
checkout's ``tools/dump_outputs.py`` on both sides (with
``OPENBLAS_NUM_THREADS=1`` and ``-W error::RuntimeWarning``, so that the
bits of the larger products do not depend on the thread count and a numpy
warning stops a dump), and prints how many lines moved under each output
label, with the names of the graphs behind them (sorted, at most ten, then
how many more), every record whose status changed and, on a line of its
own that starts ``source lines``, the lines of ``src/mwtrees/*.py`` at REF
and in this checkout; the next line, ``source lines by kind``, splits
those lines into code, docstring and blank lines (:func:`lines_by_kind`).
It adds nothing to the repository, and the directory is removed on every
exit path.  Exit status 0 means the two dumps are identical, 1 that they
differ and 2 that a dump, ``git archive`` or its extraction failed.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DUMP = Path("tools") / "dump_outputs.py"
_NAMED = 10   # graphs named under each moved label


def fail(message: str) -> None:
    print(message, file=sys.stderr)
    sys.exit(2)


def extract(ref: str, tree: Path) -> None:
    """The files of ``ref``, as ``git archive`` writes them, under ``tree``."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", ref],
                             check=True, stdout=subprocess.PIPE).stdout
    tree.mkdir()
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def dumps(checkouts: list[Path]) -> list[str]:
    """The dump of each checkout, run side by side on one BLAS thread."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    runs = [subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", str(tree / DUMP)],
        cwd=tree, env=env, stdout=subprocess.PIPE, text=True)
        for tree in checkouts]
    try:
        outs = [run.communicate()[0] for run in runs]
    finally:   # stop a dump still running when this process is terminated
        for run in runs:
            run.kill()
            run.wait()
    for tree, run in zip(checkouts, runs):
        if run.returncode:
            fail(f"{tree / DUMP} exited with status {run.returncode}")
    return outs


def keyed(dump: str) -> dict[tuple[str, str], tuple[str, str]]:
    """``(graph, label) -> (status, hash)`` for each dump line; the status
    is empty on lines that are not suite records."""
    lines = {}
    for line in dump.splitlines():
        name, label, *status, digest = line.split()
        lines[name, label] = (" ".join(status), digest)
    return lines


def lines_by_kind(source: str) -> Counter:
    """The lines of one module as ``code``, ``docstring`` and ``blank``.

    Docstring lines are those of the module, class and function docstrings
    that ``ast`` finds; blank lines are the other whitespace-only lines;
    every other line, comments included, is code."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and \
                ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    kinds = Counter()
    for number, line in enumerate(source.splitlines(), start=1):
        kinds["docstring" if number in docstrings
              else "blank" if not line.strip() else "code"] += 1
    return kinds


def source_kinds(tree: Path) -> Counter:
    """:func:`lines_by_kind` summed over the package's modules in ``tree``."""
    return sum((lines_by_kind(path.read_text(encoding="utf-8"))
                for path in tree.glob("src/mwtrees/*.py")), Counter())


def report(ref: str, before: str, after: str) -> bool:
    """Print what moved between the two dumps; whether they are identical."""
    old, new = keyed(before), keyed(after)
    moved = defaultdict(list)   # label -> the graphs whose line moved
    changes = []
    for key in old.keys() | new.keys():
        was, now = old.get(key, ("absent", "")), new.get(key, ("absent", ""))
        if was != now:
            moved[key[1]].append(key[0])
        if was[0] != now[0]:
            changes.append(f"  {key[0]} {key[1]}: {was[0]} -> {now[0]}")
    print(f"{len(old)} lines at {ref}, {len(new)} here; "
          f"{sum(map(len, moved.values()))} moved")
    for label, graphs in sorted(moved.items()):
        names = sorted(graphs)
        more = f" … {len(names) - _NAMED} more" if len(names) > _NAMED else ""
        print(f"  {label}: {len(names)}")
        print(f"    {' '.join(names[:_NAMED])}{more}")
    print(f"{len(changes)} status changes")
    for change in sorted(changes):
        print(change)
    return before == after


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git revision to compare against")
    ref = parser.parse_args().ref
    # a terminated run still removes its directory, in the finally below
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    scratch = Path(tempfile.mkdtemp(prefix="compare-outputs-"))
    tree = scratch / "ref"
    try:
        extract(ref, tree)
        (tree / DUMP).parent.mkdir(exist_ok=True)
        shutil.copyfile(ROOT / DUMP, tree / DUMP)
        before, after = dumps([tree, ROOT])
        identical = report(ref, before, after)
        old, new = source_kinds(tree), source_kinds(ROOT)
        was, now = old.total(), new.total()
        print(f"source lines (src/mwtrees/*.py): {was:,} at {ref}, "
              f"{now:,} here ({now - was:+,})")
        kinds = ("code", "docstring", "blank")
        print("source lines by kind (src/mwtrees/*.py): " + ", ".join(
            f"{kind} {old[kind]:,} at {ref}, {new[kind]:,} here "
            f"({new[kind] - old[kind]:+,})" for kind in kinds))
    except subprocess.CalledProcessError as exc:
        fail(f"extracting {ref} failed: {exc}")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(0 if identical else 1)


if __name__ == "__main__":
    main()
