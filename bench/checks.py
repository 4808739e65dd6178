"""Reference checks for the benchmark's ops.

Each check returns a list of problems (empty when the output is right).  The
references are independent of the routes they check: the distance matrix is
compared with the brute-force ``distance_oracle``, determinants with a dense
``slogdet``, spanning-tree counts with exact integer Bareiss elimination,
the witness rank with a Laplacian built here, and CLI runs with the exit
codes of the documented contract.  None of this runs inside a timed region.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

REPORT_SCHEMA = "mwtrees/report/v1"
MANIFEST_SCHEMA = "mwtrees/manifest/v1"
DET_LOG_TOL = 1e-7
RANK_TOL = 1e-9

IDENTITY_NAMES = ("ld", "dl", "ldl", "dinv_minus_l")
SUITE_NAMES = IDENTITY_NAMES + (
    "qdq", "ginverse_invariance", "ginverse_recovery", "inertia",
    "interlacing", "rank_characterization",
)
# Records whose residual is a rank or a count, not a rounding error; their
# residual / tolerance is not an accuracy margin.
COUNT_RECORDS = ("rank_characterization", "rank_deficiency")


# --- distance matrix, determinant, inverse ---------------------------------

def check_distance(d_prog: np.ndarray, d_oracle: np.ndarray) -> list[str]:
    if d_prog.shape != d_oracle.shape or not np.array_equal(d_prog, d_oracle):
        return ["distance_matrix is not bit-identical to distance_oracle"]
    return []


def check_determinant(sign: float, log_abs: float,
                      ref: tuple[float, float]) -> list[str]:
    """Closed-form ``(sign, log|det|)`` against ``slogdet`` of the reference
    distance matrix; the log gap is relative, as in ``mwtrees det``."""
    ref_sign, ref_log = ref
    if sign != ref_sign:
        return [f"det sign {sign:+.0f}, slogdet sign {ref_sign:+.0f}"]
    gap = abs(log_abs - ref_log) / max(1.0, abs(ref_log))
    if not gap <= DET_LOG_TOL:
        return [f"log|det| gap {gap:.3e} > {DET_LOG_TOL:g}"]
    return []


def check_inverse(d_inv: np.ndarray, d_ref: np.ndarray, n: int,
                  s: int) -> list[str]:
    if d_inv.shape != d_ref.shape:
        return [f"inverse has shape {d_inv.shape}, expected {d_ref.shape}"]
    residual = float(np.max(np.abs(d_ref @ d_inv - np.eye(n * s))))
    tol = 1e-8 * n * s
    if not residual <= tol:
        return [f"max|D Dinv - I| = {residual:.3e} > {tol:.3e}"]
    return []


# --- suite records ---------------------------------------------------------

def expected_skips(tree: bool, spd: bool) -> set[str]:
    """Suite records whose hypotheses fail for a connected graph whose tree
    distance matrix, when it is a tree, is invertible."""
    skipped = set()
    if not tree:
        skipped |= set(IDENTITY_NAMES) | {"qdq", "ginverse_recovery",
                                          "inertia", "interlacing"}
    if not spd:
        skipped |= {"qdq", "ginverse_invariance", "ginverse_recovery",
                    "inertia", "interlacing"}
    return skipped


def check_records(records: list[dict], tree: bool, spd: bool) -> list[str]:
    """No record FAILs, every suite record is present once, and a record is
    SKIPPED exactly where its hypotheses fail."""
    problems = []
    names = [r["name"] for r in records]
    if sorted(names) != sorted(SUITE_NAMES):
        problems.append(f"suite records {names}, expected {list(SUITE_NAMES)}")
    want_skip = expected_skips(tree, spd)
    for r in records:
        if r["status"] == "FAIL":
            problems.append(f"{r['name']} FAIL: residual {r['residual']} > "
                            f"tolerance {r['tolerance']}")
        elif (r["status"] == "SKIPPED") != (r["name"] in want_skip):
            problems.append(f"{r['name']} is {r['status']}, hypotheses "
                            f"{'fail' if r['name'] in want_skip else 'hold'}")
    return problems


def record_dicts(reports) -> list[dict]:
    """Plain dicts from the package's VerificationReport objects."""
    return [{"name": r.name, "status": r.status, "residual": r.residual,
             "tolerance": r.tolerance} for r in reports]


def margins(records: list[dict]) -> list[float]:
    """``residual / tolerance`` of the PASS/FAIL records with a nonzero
    tolerance, leaving out the rank and count records."""
    return [
        r["residual"] / r["tolerance"] for r in records
        if r["status"] in ("PASS", "FAIL") and r["tolerance"]
        and r["name"] not in COUNT_RECORDS
    ]


# --- spanning-tree counts and the rank witness -----------------------------

def _min_degree_order(n: int, adj: list[set[int]]) -> list[int]:
    """Greedy minimum-degree elimination order (symbolic, ties to the lower
    label); keeps Bareiss fill small on trees with few extra edges and on
    grids."""
    adj = [set(a) for a in adj]
    alive = set(range(n))
    order = []
    while alive:
        v = min(alive, key=lambda x: (len(adj[x]), x))
        nbrs = adj[v]
        for a in nbrs:
            adj[a].discard(v)
            adj[a] |= nbrs - {a}
        alive.discard(v)
        order.append(v)
    return order


def spanning_tree_count(n: int, edges) -> int:
    """Exact number of spanning trees: fraction-free (Bareiss) elimination
    of the reduced unit Laplacian in Python integers.

    Rows are sparse; an entry that a pivot step only rescales is kept with
    the step it was last exact at and brought up to date on use, since the
    rescalings telescope to a ratio of pivots.  0 for a disconnected graph.
    """
    if n == 1:
        return 1
    size = n - 1  # drop vertex n
    adj = [set() for _ in range(size)]
    diag = [0] * size
    for u, v in edges:
        for a in (u - 1, v - 1):
            if a < size:
                diag[a] += 1
        if u - 1 < size and v - 1 < size:
            adj[u - 1].add(v - 1)
            adj[v - 1].add(u - 1)
    order = _min_degree_order(size, adj)
    pos = {v: i for i, v in enumerate(order)}
    rows = [dict() for _ in range(size)]
    for v in range(size):
        i = pos[v]
        rows[i][i] = [diag[v], 0]
        for a in adj[v]:
            rows[i][pos[a]] = [-1, 0]
    pivots = [1]  # pivots[t]: the pivot of step t - 1; pivots[0] = 1
    for k in range(size):
        at = pivots[k]
        row_k = rows[k]
        v, g = row_k[k]
        p = v * at // pivots[g]
        if p == 0:
            return 0
        rk = {j: v * at // pivots[g]
              for j, (v, g) in row_k.items() if j > k}
        for i in rk:
            row_i = rows[i]
            v, g = row_i.pop(k)
            a_ik = v * at // pivots[g]
            for j, a_kj in rk.items():
                entry = row_i.get(j)
                a_ij = entry[0] * at // pivots[entry[1]] if entry else 0
                row_i[j] = [(p * a_ij - a_ik * a_kj) // at, k + 1]
        pivots.append(p)
    return pivots[size]


class CountReference:
    """Exact spanning-tree counts of one topology, memoised per edge."""

    def __init__(self, n: int, edges):
        self.n = n
        self.edges = list(edges)
        self._total = None
        self._without = {}

    def counts(self, edge_index: int) -> tuple[int, int]:
        """``(trees containing the edge, trees avoiding it)``."""
        if self._total is None:
            self._total = spanning_tree_count(self.n, self.edges)
        if edge_index not in self._without:
            rest = self.edges[:edge_index] + self.edges[edge_index + 1:]
            self._without[edge_index] = spanning_tree_count(self.n, rest)
        without = self._without[edge_index]
        return self._total - without, without


def witness_rank(n: int, edges, edge_index: int, w: float) -> int:
    """Rank of the scalar Laplacian with weight ``w`` on one edge and 1 on
    the others."""
    lap = np.zeros((n, n))
    for k, (u, v) in enumerate(edges):
        wt = w if k == edge_index else 1.0
        lap[u - 1, u - 1] += wt
        lap[v - 1, v - 1] += wt
        lap[u - 1, v - 1] -= wt
        lap[v - 1, u - 1] -= wt
    sv = np.linalg.svd(lap, compute_uv=False)
    return int(np.count_nonzero(sv > RANK_TOL * sv.max()))


def check_witness(witness, n: int, edges, counts: CountReference) -> list[str]:
    problems = []
    rank = witness_rank(n, edges, witness.edge_index, witness.w)
    if not rank < n - 1:
        problems.append(f"witness leaves rank {rank}, full rank is {n - 1}")
    got = (witness.trees_with_edge, witness.trees_without_edge)
    want = counts.counts(witness.edge_index)
    if got != want:
        problems.append(f"spanning-tree counts {got} are not the exact {want}")
    return problems


# --- CLI -------------------------------------------------------------------

def digest(raw: bytes) -> str:
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def check_cli(command: str, fmt: str, code: int, expected: int, stdout: str,
              input_digest: str | None) -> tuple[list[str], list[dict]]:
    """Check one CLI run: the exit code against the contract, and stdout as a
    ``mwtrees/report/v1`` report (text format: its header line).  Returns the
    problems and the report's check records."""
    if code != expected:
        return [f"exit code {code}, contract says {expected}"], []
    if code not in (0, 1):
        return [], []
    if fmt == "text":
        head = f"# {command}  input {input_digest}"
        if not stdout.startswith(head):
            return [f"text report does not start with {head!r}"], []
        return [], []
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError as exc:
        return [f"stdout is not JSON: {exc}"], []
    if command == "random":
        if report.get("schema") != MANIFEST_SCHEMA:
            return [f"manifest schema {report.get('schema')!r}"], []
        return [], []
    problems = []
    if report.get("schema") != REPORT_SCHEMA:
        problems.append(f"report schema {report.get('schema')!r}")
    if report.get("command") != command:
        problems.append(f"report command {report.get('command')!r}")
    if report.get("input_digest") != input_digest:
        problems.append("report input_digest does not match the input")
    checks = report.get("checks")
    if not isinstance(checks, list):
        return problems + ["report has no checks list"], []
    if code == 0 and any(c.get("status") == "FAIL" for c in checks):
        problems.append("exit 0 with a FAIL record")
    return problems, checks
