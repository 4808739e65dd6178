"""Acceptance gate: the headline guarantees, end to end.

Each test checks one criterion at its stated tolerance and prints a single
ACCEPTANCE line (visible with ``pytest -s``) before asserting, so a full run
yields a pass/fail scoreboard.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from mwtrees.closedforms import (
    PASS,
    SKIPPED,
    LaplacianMode,
    distance_determinant_sign_log,
    distance_inverse,
    distance_matrix,
    ginverse_distance_recovery,
    ginverse_invariance_check,
    incidence_matrix,
    inertia_check,
    interlacing_check,
    laplacian,
    rank_characterization_probe,
    rank_deficient_weighting,
    reweighted_scalar_laplacian,
    verify_identities,
)
from mwtrees.gallery import cycle4_block2, diamond4, path4_block2, path_graph
from mwtrees.generators import (
    GenConfig,
    WeightKind,
    random_connected_nontree,
    random_tree,
)
from mwtrees.linalg import numerical_rank, symmetric_eigenvalues

from conftest import fixture_path, spanning_tree_oracle


def _criterion(number: int, name: str, ok: bool, notes=()):
    print(f"ACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}): " + "; ".join(map(str, notes))


def _trees(count: int, base_seed: int, kind: WeightKind,
           n_range=(2, 10), s_range=(1, 4)):
    for i in range(count):
        yield random_tree(GenConfig(n_range=n_range, s_range=s_range,
                                    kind=kind, seed=base_seed + i))


def _nontrees(count: int, base_seed: int, kind: WeightKind,
              n_range=(3, 9), s_range=(1, 3)):
    for i in range(count):
        yield random_connected_nontree(
            GenConfig(n_range=n_range, s_range=s_range, kind=kind,
                      seed=base_seed + i)
        )


def test_criterion_01_exemplar_tree_inverse():
    g = path4_block2()
    distance_inverse(g)  # warm-up, so timing excludes one-time BLAS setup
    start = time.perf_counter()
    d = distance_matrix(g).data
    d_inv = distance_inverse(g).data
    elapsed = time.perf_counter() - start
    residual = float(np.max(np.abs(d @ d_inv - np.eye(8))))
    ok = residual < 1e-10 and elapsed < 0.1
    _criterion(1, "exemplar-tree-inverse", ok,
               [f"residual {residual:.3e}", f"elapsed {elapsed:.4f}s"])


def test_criterion_02_exemplar_cycle_rank():
    rank = numerical_rank(laplacian(cycle4_block2(), LaplacianMode.INVERTED).data)
    _criterion(2, "exemplar-cycle-rank", rank == 5, [f"rank {rank}"])


def test_criterion_03_exemplar_deficiency_witness():
    g = diamond4()
    witness = rank_deficient_weighting(g)
    oracle = spanning_tree_oracle(g, witness.edge_index)
    rank = numerical_rank(
        reweighted_scalar_laplacian(g, witness.edge_index, witness.w)
    )
    notes = [f"witness {witness}", f"oracle {oracle}", f"rank {rank}"]
    ok = (
        witness.endpoints == (1, 3)
        and (witness.trees_with_edge, witness.trees_without_edge) == (4, 4)
        and oracle == (4, 4)
        and witness.w == -1.0
        and rank == 2
    )
    _criterion(3, "exemplar-deficiency-witness", ok, notes)


def test_criterion_04_determinant_oracle_200():
    start = time.perf_counter()
    failures = []
    # anchor with an integer value known by hand
    sign, log_abs = distance_determinant_sign_log(path_graph(4))
    if sign * math.exp(log_abs) != -12.0:
        failures.append("scalar path-4 determinant is not -12")
    for i, g in enumerate(_trees(200, 40_000, WeightKind.NONSINGULAR)):
        sign_cf, log_cf = distance_determinant_sign_log(g)
        sign_lu, log_lu = np.linalg.slogdet(distance_matrix(g).data)
        if sign_cf != sign_lu:
            failures.append(f"tree {i}: sign {sign_cf} vs {sign_lu}")
        elif abs(log_cf - log_lu) > 1e-7 * max(1.0, abs(log_lu)):
            failures.append(f"tree {i}: log gap {abs(log_cf - log_lu):.3e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"took {elapsed:.1f}s")
    _criterion(4, "determinant-oracle-200", not failures, failures[:5])


def test_criterion_05_inverse_oracle_200():
    failures = []
    for i, g in enumerate(_trees(200, 50_000, WeightKind.NONSINGULAR)):
        cf = distance_inverse(g).data
        lu = np.linalg.inv(distance_matrix(g).data)
        gap = np.linalg.norm(cf - lu) / np.linalg.norm(lu)
        if gap > 1e-7:
            failures.append(f"tree {i}: relative gap {gap:.3e}")
    _criterion(5, "inverse-oracle-200", not failures, failures[:5])


def test_criterion_06_identity_suite_100():
    failures = []
    # hand case: order-3 unit path, Q^T D Q = -2 I exactly
    g3 = path_graph(3)
    q = incidence_matrix(g3).data
    d3 = distance_matrix(g3).data
    if np.max(np.abs(q.T @ d3 @ q + 2.0 * np.eye(2))) > 1e-12:
        failures.append("hand incidence compression check failed")
    for i, g in enumerate(_trees(100, 60_000, WeightKind.SPD)):
        for report in verify_identities(g, rel_tol=1e-8):
            if report.status != PASS:
                failures.append(
                    f"tree {i}: {report.name} {report.status} "
                    f"residual {report.residual}"
                )
    _criterion(6, "identity-suite-100", not failures, failures[:5])


def test_criterion_07_rank_dichotomy_100_100():
    failures = []
    for i, g in enumerate(_trees(100, 70_000, WeightKind.NONSINGULAR)):
        probe = rank_characterization_probe(g, trials=2, seed=70_000 + i)
        if not probe.passed:
            failures.append(f"tree {i}: ranks {probe.observed_ranks}")
    for i, g in enumerate(_nontrees(100, 71_000, WeightKind.SCALAR_POSITIVE,
                                    s_range=(1, 2))):
        probe = rank_characterization_probe(g)
        if not probe.passed:
            failures.append(
                f"non-tree {i}: rank {probe.observed_ranks} "
                f"not below {probe.full_rank}"
            )
    _criterion(7, "rank-dichotomy-100-100", not failures, failures[:5])


def test_criterion_08_inertia_100():
    failures = []
    # order-3 unit path distance spectrum by hand: roots of
    # (x + 2)(x^2 - 2x - 2)
    eigs = symmetric_eigenvalues(distance_matrix(path_graph(3)).data)
    expected = np.array([1.0 + math.sqrt(3.0), 1.0 - math.sqrt(3.0), -2.0])
    if np.max(np.abs(eigs - expected)) > 1e-9:
        failures.append("path-3 spectrum mismatch")
    for i, g in enumerate(_trees(100, 72_000, WeightKind.SPD)):
        found = tuple(inertia_check(g))
        if found != (g.s, (g.n - 1) * g.s, 0):
            failures.append(f"tree {i}: inertia {found} for n={g.n} s={g.s}")
    _criterion(8, "inertia-100", not failures, failures[:5])


def test_criterion_09_interlacing_100():
    failures = []
    # equality case: on the order-3 unit path the smallest distance
    # eigenvalue -2 coincides with -2 / lambda_2
    report = interlacing_check(path_graph(3))
    lower, mid, _ = report.triples[1]
    if not report.passed or abs(lower - mid) > 1e-9:
        failures.append("path-3 equality case failed")
    for i, g in enumerate(_trees(100, 73_000, WeightKind.SPD)):
        rep = interlacing_check(g)
        if not rep.passed:
            failures.append(f"tree {i}: violation {rep.worst_violation:.3e}")
    _criterion(9, "interlacing-100", not failures, failures[:5])


def test_criterion_10_ginverse_50_20():
    failures = []
    for i, g in enumerate(_trees(50, 74_000, WeightKind.SPD)):
        inv = ginverse_invariance_check(g, seed=i)
        rec = ginverse_distance_recovery(g, seed=i + 2)
        if inv.status != PASS:
            failures.append(f"tree {i}: invariance residual {inv.residual}")
        if rec.status != PASS:
            failures.append(f"tree {i}: recovery residual {rec.residual}")
    for i, g in enumerate(_nontrees(20, 75_000, WeightKind.SPD)):
        inv = ginverse_invariance_check(g, seed=i)
        if inv.status != PASS:
            failures.append(f"non-tree {i}: invariance residual {inv.residual}")
    _criterion(10, "ginverse-50-20", not failures, failures[:5])


def test_criterion_11_cli_round_trip():
    fixtures = [
        fixture_path("path4_block2.json"),
        fixture_path("cycle4_block2.json"),
        fixture_path("diamond4.json"),
    ]
    failures = []
    start = time.perf_counter()

    def run(*argv):
        return subprocess.run(
            [sys.executable, "-m", "mwtrees", *argv],
            capture_output=True, text=True,
        )

    for path in fixtures:
        built = run("build", path, "--which", "L")
        if built.returncode != 0:
            failures.append(f"build L {path}: exit {built.returncode}")
        verified = run("verify", path)
        if verified.returncode != 0:
            failures.append(f"verify {path}: exit {verified.returncode}")
        elif path.endswith("path4_block2.json"):
            checks = {c["name"]: c for c in json.loads(verified.stdout)["checks"]}
            if checks["qdq"]["status"] != SKIPPED:
                failures.append("qdq was not SKIPPED on the asymmetric tree")
            if checks["ld"]["status"] != PASS:
                failures.append("ld did not PASS on the exemplar tree")
    built_d = run("build", fixtures[0], "--which", "D")
    if built_d.returncode != 0:
        failures.append(f"build D: exit {built_d.returncode}")
    elapsed = time.perf_counter() - start
    if elapsed >= 5.0:
        failures.append(f"took {elapsed:.1f}s")
    _criterion(11, "cli-round-trip", not failures, failures)
