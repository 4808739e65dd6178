"""JSON on-disk formats for graphs and check reports.

Graph files are strict: unknown fields anywhere are rejected, and a file
parses only if the resulting instance passes validation, so a loaded graph
is always usable.  Floats round-trip exactly (repr-based JSON encoding).
"""

from __future__ import annotations

import hashlib
import json
from typing import IO, Any

import numpy as np

from . import __version__
from .errors import GraphFileError
from .graphs import MatrixWeightedGraph, validate

GRAPH_SCHEMA = "mwtrees/graph/v1"
REPORT_SCHEMA = "mwtrees/report/v1"

_GRAPH_KEYS = {"schema", "n", "s", "edges"}
_EDGE_KEYS = ("u", "v", "weight")   # in the order a missing one is named


def graph_to_dict(g: MatrixWeightedGraph) -> dict[str, Any]:
    """Plain-dict form of a graph, ready for ``json.dump``."""
    return {
        "schema": GRAPH_SCHEMA,
        "n": g.n,
        "s": g.s,
        "edges": [
            {"u": e.u, "v": e.v, "weight": e.weight.tolist()} for e in g.edges
        ],
    }


def _require_int(obj: dict, key: str, where: str) -> int:
    value = obj.get(key)
    # bool is an int subclass but has no business as a count
    if isinstance(value, bool) or not isinstance(value, int):
        raise GraphFileError(f"{where}: field {key!r} must be an integer")
    return value


def graph_from_dict(obj: Any) -> MatrixWeightedGraph:
    """Parse and validate the dict form of a graph.

    Raises GraphFileError on structural problems (missing, unknown or
    mistyped fields) and on validation failures, with every problem listed.
    """
    if not isinstance(obj, dict):
        raise GraphFileError("top level must be a JSON object")
    unknown = set(obj) - _GRAPH_KEYS
    if unknown:
        raise GraphFileError(f"unknown top-level fields: {sorted(unknown)}")
    if "schema" in obj and obj["schema"] != GRAPH_SCHEMA:
        raise GraphFileError(
            f"schema is {obj['schema']!r}, expected {GRAPH_SCHEMA!r}"
        )
    for key in ("n", "s", "edges"):
        if key not in obj:
            raise GraphFileError(f"missing required field {key!r}")
    n = _require_int(obj, "n", "top level")
    s = _require_int(obj, "s", "top level")
    if not isinstance(obj["edges"], list):
        raise GraphFileError("field 'edges' must be a list")
    edges = []
    for k, entry in enumerate(obj["edges"]):
        where = f"edge {k}"
        if not isinstance(entry, dict):
            raise GraphFileError(f"{where}: must be a JSON object")
        unknown = set(entry).difference(_EDGE_KEYS)
        if unknown:
            raise GraphFileError(f"{where}: unknown fields {sorted(unknown)}")
        for key in _EDGE_KEYS:
            if key not in entry:
                raise GraphFileError(f"{where}: missing field {key!r}")
        u = _require_int(entry, "u", where)
        v = _require_int(entry, "v", where)
        try:
            weight = np.asarray(entry["weight"], dtype=float)
        except (TypeError, ValueError, OverflowError):
            raise GraphFileError(
                f"{where}: weight is not a rectangular numeric array"
            ) from None
        # numpy reads "2.5" and true as numbers; the format does not
        leaves = [entry["weight"]]
        for _ in range(weight.ndim):   # rectangular, as numpy read it
            leaves = [x for row in leaves for x in row]
        bad = [x for x in leaves if type(x) not in (int, float)]
        if bad:
            raise GraphFileError(
                f"{where}: weight entry {json.dumps(bad[0])} is not a number"
            )
        edges.append((u, v, weight))
    g = MatrixWeightedGraph(n, s, edges)
    problems = validate(g)
    if problems:
        raise GraphFileError(
            "graph failed validation", problems=[str(p) for p in problems]
        )
    return g


def dumps_graph(g: MatrixWeightedGraph) -> str:
    return json.dumps(graph_to_dict(g), indent=2) + "\n"


def loads_graph(text: str) -> MatrixWeightedGraph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"not valid JSON: {exc}") from None
    return graph_from_dict(obj)


def dump_graph(g: MatrixWeightedGraph, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_graph(g))


def load_graph(source: str | IO[str]) -> MatrixWeightedGraph:
    """Load a graph from a path or an open text stream."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return loads_graph(handle.read())
    return loads_graph(source.read())


def input_digest(raw: bytes) -> str:
    """Stable identifier for report provenance: sha256 of the raw input."""
    return "sha256:" + hashlib.sha256(raw).hexdigest()


def check_record(report) -> dict[str, Any]:
    """Dict form of a VerificationReport for the report file."""
    passed: bool | None
    if report.status == "SKIPPED":
        passed = None
    else:
        passed = report.status == "PASS"
    return {
        "name": report.name,
        "status": report.status,
        "pass": passed,
        "residual": report.residual,
        "tolerance": report.tolerance,
        "detail": report.detail,
    }


def make_report(
    command: str,
    digest: str,
    checks: list[dict[str, Any]],
    extras: dict[str, Any] | None = None,
    matrices: dict[str, np.ndarray] | None = None,
) -> dict[str, Any]:
    """Assemble a report dict with schema, version and input provenance."""
    report: dict[str, Any] = {
        "schema": REPORT_SCHEMA,
        "version": __version__,
        "command": command,
        "input_digest": digest,
        "checks": checks,
    }
    if extras:
        report.update(extras)
    if matrices is not None:
        report["matrices"] = {
            name: np.asarray(value).tolist() for name, value in matrices.items()
        }
    return report
