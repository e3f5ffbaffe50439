"""Host-speed probe shared by the harness and the suite workload.

On a shared 2-core x86 VM the speed of every process changed by up to a
third over seconds to minutes. A fixed numpy and interpreter loop that
shares no code with matphi, timed next to each operation, gives the host
factor by which that operation's wall time is divided.
"""

from __future__ import annotations

import time

import numpy as np

# The chunk's wall time on an unloaded core of that VM; scaled timings are
# reported at this speed.
REF_NOMINAL_S = 0.025


def reference_chunk() -> float:
    """Wall time of the fixed probe loop."""
    m = np.arange(16, dtype=float).reshape(4, 4)
    m = m + m.T + 1j * (m - m.T)
    start = time.perf_counter()
    acc = 0.0
    for k in range(1500):
        w = np.linalg.eigh(m + k * 1e-3 * np.eye(4))[0]
        acc += float(w[0])
    for k in range(100_000):
        acc += k * 1e-9
    return time.perf_counter() - start


def factor(before: float, after: float) -> float:
    """Host slowness around an operation, from the probes on either side."""
    return (before + after) / (2.0 * REF_NOMINAL_S)
