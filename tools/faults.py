"""Median wall time and first-touch page faults per op on the tree shapes.

Usage, from the root of a source checkout (the package is imported from
``src`` next to this file)::

    OPENBLAS_NUM_THREADS=1 python3 tools/faults.py

(BLAS on one thread, as the benchmark runs it.)

Builds one graph of each of the four shapes of the benchmark's ``trees``
workload with the package's own generators: ``deep``, an SPD path, n =
72, s = 2; ``wide``, an SPD star, n = 40, s = 8; ``mixed``, a Pruefer SPD
tree, n = 64, s = 4; ``general``, a Pruefer tree with asymmetric
nonsingular weights, n = 40, s = 8 (condition cap 1e4, as there).  An op
is what the workload runs on a graph it has just parsed: a copy of the
graph, so its analysis is built afresh, then ``verification_suite(g,
"all")``, ``distance_determinant_sign_log`` and ``distance_inverse``, in
this process.  After one warm-up round, ``ROUNDS`` rounds run one op
per class each, in an order shuffled by ``SEED`` in every round: how
many pages an op faults in depends on what the op before it left on the
heap.

Prints one JSON object: per class its n and s, the median wall time of
an op in seconds and the median of its minor page faults (``ru_minflt``
of ``getrusage``, the pages the op touched for the first time since the
process mapped them), with the C library and its version and numpy's
version.  The faults count the allocator's work: glibc's malloc returns
large freed blocks to the kernel and faults them back in on reuse, page
by page, unless they fall below its thresholds (see the README's
Performance section).
"""

from __future__ import annotations

import copy
import json
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mwtrees as mw  # noqa: E402
from mwtrees.generators import GenConfig, WeightKind  # noqa: E402

_CAP = 1e4
ROUNDS = 9   # measured rounds after the warm-up
SEED = 1     # seed of the four graphs and of the rounds' order


def graphs(seed: int) -> dict[str, mw.MatrixWeightedGraph]:
    """One graph per class, the same for a seed on every run."""
    rng = np.random.default_rng(seed)
    path = [mw.random_spd(2, _CAP, rng) for _ in range(71)]
    star = [mw.random_spd(8, _CAP, rng) for _ in range(39)]
    return {
        "deep": mw.path_graph(72, 2, path),
        "wide": mw.star_graph(40, 8, star),
        "mixed": mw.random_tree(GenConfig((64, 64), (4, 4), WeightKind.SPD,
                                          _CAP, seed)),
        "general": mw.random_tree(GenConfig((40, 40), (8, 8),
                                            WeightKind.NONSINGULAR, _CAP,
                                            seed)),
    }


def op(g: mw.MatrixWeightedGraph) -> tuple[float, int]:
    """The wall time and the minor page faults of one op on ``g``."""
    g = copy.copy(g)   # rebuilt through the constructor: no analysis kept
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    start = time.perf_counter()
    mw.verification_suite(g, "all")
    mw.distance_determinant_sign_log(g)
    mw.distance_inverse(g)
    elapsed = time.perf_counter() - start
    return elapsed, resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults


def measure(rounds: int, seed: int) -> dict:
    pool = graphs(seed)
    for g in pool.values():   # warm-up: imports, BLAS buffers, first heap
        op(g)
    samples = {name: [] for name in pool}
    names = list(pool)
    order = np.random.default_rng(seed)
    for _ in range(rounds):
        for i in order.permutation(len(names)):
            samples[names[i]].append(op(pool[names[i]]))
    lib, version = platform.libc_ver()
    return {
        "libc": lib or None,
        "libc_version": version or None,
        "numpy": np.__version__,
        "rounds": rounds,
        "seed": seed,
        "classes": {
            name: {
                "n": pool[name].n,
                "s": pool[name].s,
                "median_s": statistics.median(t for t, _ in runs),
                "median_minor_faults": statistics.median(f for _, f in runs),
            }
            for name, runs in samples.items()
        },
    }


def main() -> int:
    print(json.dumps(measure(ROUNDS, SEED)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
