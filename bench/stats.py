"""Latency summaries and failure accounting for the op loop."""

from __future__ import annotations

import re
import statistics
from dataclasses import dataclass, field

from calibrate import scales

TAIL_ABOVE = 10


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that still has at least ten samples
    above it.

    Returns ``(value, percentile, sample count)``: with the samples sorted
    ascending, the value is the one with exactly ten samples above it, and
    the percentile is the share of samples at or below it.  With fewer than
    eleven samples no percentile qualifies, and the maximum is returned as
    percentile 100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    k = n - 1 - TAIL_ABOVE
    if k < 0:
        return ordered[-1], 100.0, n
    return ordered[k], 100.0 * (k + 1) / n, n


@dataclass
class OpLog:
    """Every attempted op: its latency, its class and whether it failed.

    Failures are counted, never dropped or retried; each failure keeps every
    problem found.  ``kernels`` holds the calibration kernel times
    taken before each op and after the last; when present, the summary
    scales each latency to the kernel's nominal speed.
    """

    latencies: list = field(default_factory=list)
    classes: list = field(default_factory=list)
    failures: list = field(default_factory=list)   # (op, class, problems)
    margins: list = field(default_factory=list)    # worst margin per op
    kernels: list = field(default_factory=list)
    nominal: float = 0.0    # the kernel's nominal seconds

    def add(self, cls: str, latency: float, problems: list[str]) -> None:
        if problems:
            self.failures.append((len(self.latencies), cls, list(problems)))
        self.latencies.append(latency)
        self.classes.append(cls)

    def add_margins(self, margins: list[float]) -> None:
        if margins:
            self.margins.append(max(margins))

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def ok_share(self) -> float:
        return (self.attempted - self.failed) / self.attempted

    def failed_by_class(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for _, cls, _ in self.failures:
            out[cls] = out.get(cls, 0) + 1
        return out

    def p50_by_class(self) -> dict[str, float]:
        out: dict[str, list] = {}
        for cls, lat in zip(self.classes, self.latencies):
            out.setdefault(cls, []).append(lat)
        return {cls: statistics.median(v) for cls, v in sorted(out.items())}

    def first_failure_by_class(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for _, cls, problems in self.failures:
            out.setdefault(cls, problems)
        return out

    def unexpected(self, known: dict[str, str]) -> list:
        """The failures not excused by ``known`` (class -> regular
        expression).  A failure is excused only when its class is known and
        every one of its problems matches that class's expression in full."""
        return [f for f in self.failures
                if f[1] not in known
                or not all(re.fullmatch(known[f[1]], p) for p in f[2])]

    def nominal_time(self) -> float:
        """Op time so far at the kernel's nominal speed, each op scaled by
        the kernel sample taken just before it; the CLI op loop stops on
        it, so a run holds about the same work however fast the host is."""
        return sum(lat * self.nominal / k
                   for lat, k in zip(self.latencies, self.kernels))

    def scaled(self) -> list[float]:
        if not self.kernels:
            return list(self.latencies)
        return [lat * k for lat, k in
                zip(self.latencies,
                    scales(self.kernels, self.attempted, self.nominal))]

    def summary(self, latencies: list[float] | None = None) -> dict:
        lat = self.scaled() if latencies is None else latencies
        value, pct, count = tail(lat)
        return {
            "ops_per_s": len(lat) / sum(lat),
            "op_p50_s": statistics.median(lat),
            "op_tail_s": value,
            "tail_percentile": pct,
            "samples": count,
        }
