"""Self-tests of the benchmark harness.

``run.py`` runs them before every measurement and refuses to measure when
one fails; run them alone with ``python3 bench/selftest.py``.  They need
numpy but not the package under test.
"""

from __future__ import annotations

import io
import json
import sys
import unittest
from pathlib import Path

import numpy as np

import checks
import inputs
from stats import OpLog, tail

ROOT = Path(__file__).resolve().parent.parent


class TailRule(unittest.TestCase):
    def test_ten_samples_above(self):
        value, pct, count = tail([float(i) for i in range(100)])
        self.assertEqual((value, pct, count), (89.0, 90.0, 100))

    def test_order_does_not_matter(self):
        samples = [float(i) for i in range(30)]
        self.assertEqual(tail(samples), tail(samples[::-1]))
        self.assertEqual(tail(samples)[0], 19.0)

    def test_eleven_samples_is_the_minimum(self):
        self.assertEqual(tail([float(i) for i in range(11)])[:2], (0.0, 100 / 11))

    def test_too_few_samples_fall_back_to_the_maximum(self):
        self.assertEqual(tail([3.0, 1.0, 2.0]), (3.0, 100.0, 3))


class FailureCounting(unittest.TestCase):
    def test_every_failure_counts_once(self):
        log = OpLog()
        log.add("a", 1.0, [])
        log.add("b", 2.0, ["wrong", "also wrong"])
        log.add("b", 3.0, ["raised ValueError"])
        log.add("a", 4.0, [])
        self.assertEqual((log.attempted, log.failed), (4, 2))
        self.assertEqual(log.ok_share(), 0.5)
        self.assertEqual(log.failed_by_class(), {"b": 2})
        # failed ops keep their latency and every problem; nothing is dropped
        self.assertEqual(log.summary()["ops_per_s"], 4 / 10.0)
        self.assertEqual(log.failures[0], (1, "b", ["wrong", "also wrong"]))


class KnownFailureExcusal(unittest.TestCase):
    """A nontree failure is excused only by its documented problem."""

    def setUp(self):
        class Witness:   # right rank drop, wrong counts on the diamond
            edge_index, w = 1, -1.0
            trees_with_edge, trees_without_edge = 5, 4
        diamond = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        self.counts = checks.check_witness(
            Witness, 4, diamond, checks.CountReference(4, diamond))
        self.assertEqual(len(self.counts), 1)
        self.known = {cls: kf.problem for cls, kf
                      in inputs.NONTREE.known_failures.items()}

    def unexpected(self, cls, problems):
        log = OpLog()
        log.add(cls, 1.0, problems)
        return log.unexpected(self.known)

    def test_documented_problems_are_excused(self):
        self.assertEqual(self.unexpected("grid", self.counts), [])
        self.assertEqual(self.unexpected("complete", self.counts), [])
        self.assertEqual(self.unexpected(
            "grid_overflow",
            ["raised ValueError: cannot convert float NaN to integer"]), [])

    def test_grid_op_with_a_rank_problem_is_unexpected(self):
        rank = "the program's own rank check rejects its witness"
        self.assertTrue(self.unexpected("grid", [rank] + self.counts))
        self.assertTrue(self.unexpected(
            "grid", self.counts + ["witness leaves rank 143, full rank is 143"]))

    def test_other_problems_in_known_classes_are_unexpected(self):
        fail = checks.check_records(
            [{"name": "rank_characterization", "status": "FAIL",
              "residual": 2.0, "tolerance": 1.0}], False, False)
        self.assertTrue(self.unexpected("complete", fail + self.counts))
        self.assertTrue(self.unexpected(
            "grid_overflow", ["raised ValueError: math domain error"]))
        self.assertTrue(self.unexpected(
            "grid_overflow", ["raised OverflowError: cannot convert float "
                              "infinity to integer"]))

    def test_known_problem_in_another_class_is_unexpected(self):
        self.assertTrue(self.unexpected("sparse", self.counts))


class KernelScaling(unittest.TestCase):
    def test_latencies_scale_to_the_kernel(self):
        log = OpLog(nominal=1.0)
        for lat in (1.0, 2.0, 3.0):
            log.kernels.append(2.0)
            log.add("a", lat, [])
        log.kernels.append(2.0)
        self.assertEqual(log.scaled(), [0.5, 1.0, 1.5])
        self.assertEqual(log.nominal_time(), 3.0)


class ReferenceChecks(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(0)
        self.d = rng.standard_normal((6, 6))

    def test_identical_distance_matrix_passes(self):
        self.assertEqual(checks.check_distance(self.d.copy(), self.d), [])

    def test_perturbed_distance_matrix_is_rejected(self):
        bad = self.d.copy()
        bad[2, 3] = np.nextafter(bad[2, 3], np.inf)
        self.assertTrue(checks.check_distance(bad, self.d))

    def test_inverse_residual(self):
        inv = np.linalg.inv(self.d)
        self.assertEqual(checks.check_inverse(inv, self.d, 3, 2), [])
        inv[0, 0] += 1e-3
        self.assertTrue(checks.check_inverse(inv, self.d, 3, 2))

    def test_determinant(self):
        ref = tuple(float(x) for x in np.linalg.slogdet(self.d))
        self.assertEqual(checks.check_determinant(*ref, ref), [])
        self.assertTrue(checks.check_determinant(-ref[0], ref[1], ref))
        self.assertTrue(checks.check_determinant(ref[0], ref[1] + 1e-3, ref))

    def test_skips_only_where_hypotheses_fail(self):
        records = [{"name": n, "status": "PASS", "residual": 0.0,
                    "tolerance": 1.0} for n in checks.SUITE_NAMES]
        self.assertEqual(checks.check_records(records, True, True), [])
        # a general tree must skip its SPD-only checks
        self.assertTrue(checks.check_records(records, True, False))
        records[0]["status"] = "SKIPPED"
        self.assertTrue(checks.check_records(records, True, True))

    def test_wrong_cli_exit_code_is_rejected(self):
        problems, _ = checks.check_cli("det", "json", 0, 3, "", None)
        self.assertTrue(problems)
        problems, _ = checks.check_cli("det", "json", 3, 3, "", None)
        self.assertEqual(problems, [])

    def test_cli_report_is_parsed(self):
        report = {"schema": checks.REPORT_SCHEMA, "command": "det",
                  "input_digest": "sha256:x",
                  "checks": [{"name": "determinant_sign", "status": "PASS"}]}
        ok, records = checks.check_cli("det", "json", 0, 0,
                                       json.dumps(report), "sha256:x")
        self.assertEqual((ok, len(records)), ([], 1))
        bad, _ = checks.check_cli("det", "json", 0, 0,
                                  json.dumps(report), "sha256:y")
        self.assertTrue(bad)

    def test_expected_exit_codes_follow_the_contract(self):
        self.assertEqual(inputs.expected_exit("build-Q", True, False), 3)
        self.assertEqual(inputs.expected_exit("invert", False, False), 3)
        self.assertEqual(inputs.expected_exit("deficient", True, True), 3)
        self.assertEqual(inputs.expected_exit("verify-json", False, True), 0)


class SpanningTreeCounts(unittest.TestCase):
    def test_complete_graphs(self):
        for n in (2, 3, 5, 8):
            self.assertEqual(
                checks.spanning_tree_count(n, inputs.complete_edges(n)),
                n ** (n - 2))

    def test_grid_and_cycle_and_tree(self):
        self.assertEqual(checks.spanning_tree_count(9, inputs.grid_edges(3)),
                         192)
        cycle = [(i, i + 1) for i in range(1, 7)] + [(1, 7)]
        self.assertEqual(checks.spanning_tree_count(7, cycle), 7)
        self.assertEqual(checks.spanning_tree_count(
            5, [(1, 2), (1, 3), (3, 4), (3, 5)]), 1)
        self.assertEqual(checks.spanning_tree_count(4, [(1, 2), (3, 4)]), 0)

    def test_counts_split_on_an_edge(self):
        n = 20
        ref = checks.CountReference(n, inputs.complete_edges(n))
        with_edge, without = ref.counts(0)
        self.assertEqual(with_edge, 2 * n ** (n - 3))
        self.assertEqual(with_edge + without, n ** (n - 2))

    def test_witness_check(self):
        class Witness:
            edge_index, w = 1, -1.0
            trees_with_edge, trees_without_edge = 4, 4
        diamond = [(1, 2), (1, 3), (1, 4), (2, 3), (3, 4)]
        ref = checks.CountReference(4, diamond)
        self.assertEqual(checks.check_witness(Witness, 4, diamond, ref), [])
        Witness.trees_with_edge = 5
        self.assertTrue(checks.check_witness(Witness, 4, diamond, ref))
        Witness.trees_with_edge, Witness.w = 4, -0.5
        self.assertTrue(checks.check_witness(Witness, 4, diamond, ref))


class Inputs(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        a = inputs.class_pool(inputs.TREES, 3)["mixed"][0].to_json()
        b = inputs.class_pool(inputs.TREES, 3)["mixed"][0].to_json()
        c = inputs.class_pool(inputs.TREES, 4)["mixed"][0].to_json()
        self.assertEqual(a, b)
        self.assertNotEqual(a, c)

    def test_rounds_hold_every_class_once(self):
        rounds = {}
        for r, cls in inputs.op_schedule(inputs.NONTREE, 1, 3):
            rounds.setdefault(r, []).append(cls)
        self.assertEqual(sorted(rounds[0]),
                         ["complete", "grid", "grid_overflow", "sparse"])
        self.assertEqual(sorted(rounds[2]), ["complete", "grid", "sparse"])

    def test_round_count_depends_on_seconds_alone(self):
        self.assertEqual(inputs.NONTREE.rounds(25), 12)
        self.assertEqual(inputs.TREES.rounds(25), 19)
        self.assertEqual(inputs.NONTREE.rounds(0.1), 1)
        import run
        pools = inputs.class_pool(inputs.NONTREE, 1)
        ops = [g.cls for g in run.op_inputs(inputs.NONTREE, pools, 1, 12)]
        self.assertEqual(len(ops), 3 * 12 + 1)
        self.assertEqual(ops.count("grid_overflow"), 1)

    def test_benchmark_json_lists_the_metrics_run_reports(self):
        import run
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         run.per_layer_names())
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(inputs.WORKLOADS))
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]))
        self.assertIsInstance(spec["run_seconds"], int)


def passes() -> bool:
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    result = unittest.TextTestRunner(stream=io.StringIO(), verbosity=0).run(
        suite)
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
