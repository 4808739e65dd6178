"""Fixed calibration kernels that track the speed of a shared host.

On a shared virtual machine the same work can take 30-70% longer from one
minute to the next, because other tenants contend for the machine
(measured: a fixed pure-Python loop drifted from 8.0 to 13.1 ms within one
minute on a 2-vCPU x86_64 VM).  The benchmark runs a kernel before every op
and after the last one; each op's latency is scaled by ``nominal / kernel
time`` around it, which turns it into seconds at the kernel's nominal speed.

Two kernels, because compute and process start-up drift apart:

- ``compute_kernel`` (interpreter work, small numpy operations, one dense
  LAPACK call) for in-process ops.  In a 100 s test it cut the spread of
  15 s window means of ``trees`` ops from about +-15% to about +-4%.
- ``spawn_kernel`` (``python -I -c pass``) for ops that are processes.  In a
  100 s test the CLI op mean drifted by 14% while the compute kernel stayed
  flat; the ratio to the spawn kernel stayed within +-1.3%.  ``-I`` keeps
  the kernel independent of the repository (no ``PYTHONPATH``, no user
  site).
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

# Typical kernel seconds on the 2-vCPU x86_64 VM the benchmark was tuned on
# (Python 3.11, OpenBLAS 0.3.31, one BLAS thread).
COMPUTE_NOMINAL_S = 0.0065
SPAWN_NOMINAL_S = 0.065

_RNG = np.random.default_rng(0)
_SMALL = _RNG.standard_normal((8, 8)) * 0.1
_DENSE = _RNG.standard_normal((120, 120))
_EYE = np.eye(8)


def compute_kernel() -> float:
    """Run the compute kernel once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc: dict[int, int] = {}
    for i in range(20000):
        acc[i % 97] = acc.get(i % 97, 0) + i
    a = _EYE
    for _ in range(300):
        a = a @ _SMALL + _EYE
    np.linalg.svd(_DENSE)
    return time.perf_counter() - t0


def spawn_kernel() -> float:
    """Start and wait for one bare isolated interpreter; return its wall
    time in seconds."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-I", "-c", "pass"], check=True,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return time.perf_counter() - t0


def scales(samples: list[float], count: int, nominal: float) -> list[float]:
    """Per-op factors ``nominal / local kernel time`` for ``count`` ops given
    ``count + 1`` kernel samples (one before each op, one after the last).
    The local kernel time is the median of the four samples around the op,
    which follows drifts of a few seconds and damps single spikes."""
    if len(samples) != count + 1:
        raise ValueError(f"{len(samples)} kernel samples for {count} ops")
    return [nominal / statistics.median(samples[max(0, i - 1):i + 3])
            for i in range(count)]
