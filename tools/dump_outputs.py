"""Print one SHA-256 line per library output on a fixed, seeded corpus.

Usage, from the root of a source checkout (the package is imported from
``src`` next to this file)::

    python3 -W error::RuntimeWarning tools/dump_outputs.py > outputs.txt

With ``-W error``, a numpy warning that escapes the library stops the
dump with its traceback; without it, the warning goes to stderr.

The corpus is about 300 graphs from :mod:`mwtrees.gallery` and the seeded
generators of :mod:`mwtrees.generators`: trees and connected non-trees of
every weight kind, n <= 40, s <= 8, a path and a cycle with one weight
diag(1, r): r = 1e-10, symmetric with positive eigenvalues but below the
1e-9 rank cutoff, and r = 1e-13, a 5-path and a 5-cycle with every
weight c diag(1, 2), c = 1e-9 and 1e-12, whose g-inverse records once
failed on rounding of a fixed scale, and c = 2^600 and 2^-600, whose
g-inverse norms once overflowed or underflowed, a 3-path with the weight
2^-1060 [[1, 2], [-0.5, 1]], whose asymmetry is subnormal, and a 5-star
with that weight on every edge, whose determinant once lost a factor 2
on each subnormal weight, and a 30-vertex SPD tree with s = 2 plus 3 and
plus 4 edges, the last graph whose g-inverses take the spanning tree's
closed form with a cycle correction and the first that takes the
Cholesky inverse, a 150-vertex SPD tree with s = 2 plus 2 edges, the
shape of the benchmark's ``sparse`` class, on the cycle route, and the
12x12 grid and K30 with scalar weight 1, its ``grid`` and ``complete``
classes, whose witness Laplacians are 144 x 144 and 30 x 30.  For each
graph, in the order of one benchmark op, it hashes each suite record on its own line (labelled
``suite/<record name>``, with the record's status before the hash), the
determinant, D^{-1}, the rank probe, D, L, the raw Laplacian (``L_raw``,
the edge weights themselves in its blocks), Q, the invertibility verdict,
the rank-deficient weighting, and the eigenvalues of L that the suite's
spectrum checks read from the graph's analysis (graphs whose weights are
not all SPD have no such eigenvalues and hash their NotSPDError); an
output that raises is hashed as its exception type and message, on one
line.  Floats are hashed by their bits, so two runs, or two commits, that
print the same lines gave the same bytes.  Comparing the output of a
parent commit with that of a change shows whether the change moved any
result, which records it moved, and which of them changed status;
``tools/compare_outputs.py REF`` makes that comparison in one command.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mwtrees as mw  # noqa: E402
from mwtrees.closedforms import _analysis  # noqa: E402
from mwtrees.generators import GenConfig, WeightKind  # noqa: E402


def corpus():
    """``(name, graph)`` pairs, the same on every run."""
    yield "path4_block2", mw.path4_block2()
    yield "cycle4_block2", mw.cycle4_block2()
    yield "diamond4", mw.diamond4()
    for n, s in ((1, 2), (2, 1), (3, 1), (6, 3), (40, 2)):
        yield f"path_{n}_{s}", mw.path_graph(n, s)
    for n, s in ((3, 2), (12, 4), (30, 8)):
        yield f"star_{n}_{s}", mw.star_graph(n, s)
    for n, s in ((3, 1), (5, 2), (16, 3)):
        yield f"cycle_{n}_{s}", mw.cycle_graph(n, s)
    for ratio in (1e-10, 1e-13):
        weight = np.diag([1.0, ratio])
        yield (f"path_3_2_ratio_{ratio:g}",
               mw.path_graph(3, 2, [weight, np.eye(2)]))
        yield (f"cycle_4_2_ratio_{ratio:g}",
               mw.cycle_graph(4, 2, [weight] + [np.eye(2)] * 3))
    for c in (1e-9, 1e-12, 2.0 ** 600, 2.0 ** -600):
        weight = c * np.diag([1.0, 2.0])
        yield f"path_5_2_scale_{c:g}", mw.path_graph(5, 2, [weight] * 4)
        yield f"cycle_5_2_scale_{c:g}", mw.cycle_graph(5, 2, [weight] * 5)
    asymmetric = np.ldexp(np.array([[1.0, 2.0], [-0.5, 1.0]]), -1060)
    yield ("path_3_2_subnormal_asymmetric",
           mw.path_graph(3, 2, [asymmetric, np.eye(2)]))
    yield "star_5_2_subnormal_asymmetric", mw.star_graph(5, 2, [asymmetric] * 4)
    tree = mw.random_tree(GenConfig((30, 30), (2, 2), WeightKind.SPD, seed=7))
    chords = [(1, 16), (5, 30), (3, 20), (6, 13)]
    for k in (3, 4):
        yield f"spd_tree_30_2_plus_{k}", mw.MatrixWeightedGraph(30, 2, [
            *tree.edges,
            *((u, v, mw.random_spd(2, seed=u * 100 + v)) for u, v in chords[:k])])
    tree = mw.random_tree(GenConfig((150, 150), (2, 2), WeightKind.SPD, seed=11))
    yield "spd_tree_150_2_plus_2", mw.MatrixWeightedGraph(150, 2, [
        *tree.edges,
        *((u, v, mw.random_spd(2, seed=u * 1000 + v)) for u, v in ((1, 75), (40, 150)))])
    one = np.ones((1, 1))
    yield "grid_12_1", mw.MatrixWeightedGraph(144, 1, [
        (v, v + step, one) for v in range(1, 145) for step in (1, 12)
        if v + step <= 144 and (step == 12 or v % 12)])
    yield "complete_30_1", mw.MatrixWeightedGraph(30, 1, [
        (u, v, one) for u in range(1, 31) for v in range(u + 1, 31)])
    batches = [(kind, True, 40, (2, 12), (1, 4)) for kind in WeightKind]
    batches += [(kind, False, 20, (3, 12), (1, 4)) for kind in WeightKind]
    batches += [(WeightKind.SPD, True, 12, (20, 40), (4, 8)),
                (WeightKind.NONSINGULAR, True, 12, (20, 40), (4, 8)),
                (WeightKind.SPD, False, 12, (10, 40), (1, 3))]
    for i, (kind, tree, count, n_range, s_range) in enumerate(batches):
        config = GenConfig(n_range, s_range, kind, seed=1000 * i)
        for j, g in enumerate(mw.random_instances(count, config, tree)):
            yield f"{kind.value}_{'tree' if tree else 'nontree'}_{i}_{j}", g


def canonical(value) -> bytes:
    """Bytes that stand for ``value`` bit for bit."""
    if isinstance(value, np.ndarray):
        return repr((value.dtype.str, value.shape)).encode() + value.tobytes()
    if isinstance(value, mw.BlockMatrix):
        return canonical(value.data)
    if isinstance(value, float):
        return value.hex().encode()
    # a record, a NamedTuple or (in older checkouts) a dataclass: its type
    # name, then its fields in order, the same bytes for either
    if hasattr(value, "_fields"):
        return type(value).__name__.encode() + canonical(list(value))
    if isinstance(value, (list, tuple)):
        return b"(" + b",".join(canonical(x) for x in value) + b")"
    if hasattr(value, "__dataclass_fields__"):
        return type(value).__name__.encode() + canonical(
            [getattr(value, name) for name in value.__dataclass_fields__])
    return repr(value).encode()


def outputs(g):
    """The outputs of one graph, as ``(label, callable)`` in op order."""
    yield "suite", lambda: mw.verification_suite(g, "all")
    yield "det", lambda: mw.distance_determinant_sign_log(g)
    yield "inverse", lambda: mw.distance_inverse(g)
    yield "probe", lambda: mw.rank_characterization_probe(g)
    yield "D", lambda: mw.distance_matrix(g)
    yield "L", lambda: mw.laplacian(g)
    yield "L_raw", lambda: mw.laplacian(g, mw.LaplacianMode.RAW)
    yield "Q", lambda: mw.incidence_matrix(g)
    yield "invertibility", lambda: mw.invertibility_check(g)
    yield "witness", lambda: mw.rank_deficient_weighting(g)
    yield "L_eigenvalues", lambda: _analysis(g).laplacian_eigenvalues


def canonical_lines(label: str, value) -> list[tuple[str, bytes]]:
    """``(label, bytes)`` for each line of one output: one per record of a
    suite, labelled with its name and status, one for any other output."""
    if label == "suite":
        return [(f"suite/{r.name} {r.status}", canonical(r)) for r in value]
    return [(label, canonical(value))]


def main() -> None:
    for name, g in corpus():
        for label, compute in outputs(g):
            try:
                lines = canonical_lines(label, compute())
            except Warning:   # raised under -W error: a fault, not an output
                raise
            except Exception as exc:  # a refusal is an output too
                lines = [(label,
                          f"raised {type(exc).__name__}: {exc}".encode())]
            for line_label, data in lines:
                print(name, line_label, hashlib.sha256(data).hexdigest())


if __name__ == "__main__":
    main()
