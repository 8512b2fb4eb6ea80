"""Machine-speed reference for the end-to-end times.

On a shared host the speed of one process drifts by up to 1.7x for tens of
seconds at a time, and process CPU time drifts with it, so raw sweep times
measure the neighbours as much as the program.  `kernel_seconds()` times a
fixed kernel that is not part of tripod_sta but is built like its hot path: a
Python loop of small complex numpy operations (a 4x4 Hamiltonian, a
midpoint step of U' = -iHU, a norm and an error check per step).  The
benchmark runs it right before and right after every timed part, and
`scaled()` rescales that part's time to the speed at which the kernel takes
REFERENCE_S seconds.  A change to the program moves the scaled time as it
moves the raw time; a change in machine speed moves both the part and the
kernel and largely cancels.
"""

from __future__ import annotations

import math
import time

import numpy as np

STEPS = 20000
# Kernel time on an unloaded 2-vCPU x86-64 host (Python 3, OpenBLAS, one
# thread); scaled times are in seconds at that speed.
REFERENCE_S = 0.36


def _kernel(steps: int = STEPS) -> float:
    rng = np.random.default_rng(0)
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    b = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h0, v = a + a.conj().T, b + b.conj().T
    u = np.eye(4, dtype=complex)
    dt = 1e-3
    peak = 0.0
    for i in range(steps):
        h = h0 + math.sin(i * dt) * v
        k1 = -1j * (h @ u)
        k2 = -1j * (h @ (u + 0.5 * dt * k1))
        u = u + dt * k2
        peak = max(peak, float(np.max(np.abs(k2))))
        u /= np.sqrt(np.sum(np.abs(u[:, 0]) ** 2))
    return peak


def kernel_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    start = time.perf_counter()
    _kernel()
    return time.perf_counter() - start


def scaled(seconds: float, kernel_before: float, kernel_after: float) -> float:
    """`seconds` measured between two kernel runs, at reference speed."""
    return seconds * REFERENCE_S / (0.5 * (kernel_before + kernel_after))
