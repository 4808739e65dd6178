"""A/B benchmark of this checkout against a git revision.

Usage, from anywhere in a source checkout::

    python3 tools/bench.py REF WORKLOAD

It extracts ``git archive REF`` into a temporary directory (with
``tools/compare_outputs.py``'s :func:`extract`) and runs REF's own
``bench/run.py`` and this checkout's, each as ``--workload WORKLOAD --seed
1 --seconds 25 --trace 0``, in 10 back-to-back pairs; REF runs first in
the even pairs and second in the odd ones, so that a drift of the host
falls on both sides.  It prints one JSON document (:func:`ab`): for each
end-to-end metric of ``BENCHMARK.json``, both sides' values, the ratio
change / REF of each pair, how many pairs favour the change, both
medians and REF's interquartile range, absolute and as a share of its
median, next to the metric's bound.  The runs write no bytecode, so
nothing is written under ``src/`` or ``bench/``; the directory is removed
on every exit path.  Exit status 0 means every run finished, 2 that a run,
``git archive`` or its extraction failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import ROOT, extract, fail  # noqa: E402

RUN = Path("bench") / "run.py"
PAIRS = 10
SECONDS = 25
SEED = 1


def result(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line (the last line of stdout) of one run of the
    ``bench/run.py`` in ``tree``."""
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "0"]
    run = subprocess.run(argv, cwd=tree, stdout=subprocess.PIPE, text=True,
                         env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"))
    if run.returncode:
        fail(f"{tree / RUN} exited with status {run.returncode}")
    return json.loads(run.stdout.splitlines()[-1])


def _iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def summary(spec: dict, before: list[float], after: list[float]) -> dict:
    """One end-to-end metric over the pairs: ``spec`` is its entry in
    ``BENCHMARK.json``, ``before`` REF's values and ``after`` the
    checkout's, pair by pair."""
    sign = 1 if spec["better"] == "higher" else -1
    median = statistics.median(before)
    iqr = _iqr(before)
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "ref": before,
        "change": after,
        "ratios": [b / a if a else None for a, b in zip(before, after)],
        "favour_change": sum(sign * (b - a) > 0
                             for a, b in zip(before, after)),
        "ref_median": median,
        "change_median": statistics.median(after),
        "ref_iqr": iqr,
        "ref_iqr_share": iqr / abs(median) if median else None,
        "bound": spec["bound"],
    }


def ab(ref: str, workload: str, pairs: int = PAIRS,
       seconds: float = SECONDS, seed: int = SEED) -> dict:
    """``pairs`` alternating runs of REF's and this checkout's benchmark
    on ``workload``, summed up per end-to-end metric (:func:`summary`)."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", ref],
                            check=True, stdout=subprocess.PIPE,
                            text=True).stdout.strip()
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    scratch = Path(tempfile.mkdtemp(prefix="bench-ab-"))
    tree = scratch / "ref"
    runs = {"ref": [], "change": []}
    try:
        extract(commit, tree)
        for i in range(pairs):
            sides = [("ref", tree), ("change", ROOT)]
            for side, checkout in sides if i % 2 == 0 else sides[::-1]:
                runs[side].append(result(checkout, workload, seed, seconds))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "ref": commit,
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "pairs": pairs,
        "correct": {side: [r["correct"] for r in rs]
                    for side, rs in runs.items()},
        "metrics": {spec["name"]: summary(
            spec, *([r["metrics"][spec["name"]]["value"] for r in runs[side]]
                    for side in ("ref", "change")))
            for spec in specs},
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref", help="the git revision to compare against")
    parser.add_argument("workload", help="a workload of BENCHMARK.json")
    args = parser.parse_args()
    # a terminated run still removes its directory, in ab's finally
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    try:
        document = ab(args.ref, args.workload)
    except subprocess.CalledProcessError as exc:
        fail(f"extracting {args.ref} failed: {exc}")
    print(json.dumps(document, indent=1))


if __name__ == "__main__":
    main()
