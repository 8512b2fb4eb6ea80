"""Dense complex linear algebra, ODE stepping, and quadrature at 4x4/16x16 scale.

Everything here operates on plain numpy arrays of complex128.  All functions
are pure; nothing keeps internal state, so values can be shared freely between
concurrent sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

# Tolerance used to accept an input as "Hermitian up to roundoff".
HERMITIAN_ATOL = 1e-9


class OdeStepUnderflow(RuntimeError):
    """Raised when the adaptive stepper stalls; carries the failure time."""

    def __init__(self, t: float):
        super().__init__(f"ODE step size underflow at t = {t!r}")
        self.t = t


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the adaptive Dormand-Prince 5(4) stepper in :func:`ode_solve`."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not all(math.isfinite(tol) and tol > 0.0 for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("rel_tol and abs_tol must be positive and finite")


@dataclass
class OdeResult:
    y: np.ndarray
    steps_accepted: int
    steps_rejected: int


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, batched over leading axes."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def unitarity_defect(u: np.ndarray) -> float:
    """max-norm of U^dag U - I."""
    u = np.asarray(u)
    return max_abs(u.conj().T @ u - np.eye(u.shape[0]))


def expm_hermitian_generator(h: np.ndarray, s: float = 1.0) -> np.ndarray:
    """exp(-i*s*h) for Hermitian h, via eigendecomposition.

    Unconditionally stable at this matrix size; the result is unitary to
    roundoff.  Inputs that fail the Hermiticity check raise ValueError.
    """
    h = np.asarray(h, dtype=complex)
    defect = max_abs(h - h.conj().T)
    if defect > HERMITIAN_ATOL * max(1.0, max_abs(h)):
        raise ValueError(f"generator is not Hermitian (defect {defect:.3e})")
    w, v = np.linalg.eigh(hermitize(h))
    return (v * np.exp(-1j * s * w)) @ v.conj().T


# Dormand-Prince 5(4) tableau.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = (
    (),
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
)
_DP_B5 = (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84)
# b5 - b4, including the FSAL stage.
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)


def ode_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    step_hook: Callable[[np.ndarray], np.ndarray] | None = None,
) -> OdeResult:
    """Integrate dy/dt = rhs(t, y) from t0 to t1 for a complex array y with
    the adaptive Dormand-Prince 5(4) stepper.

    step_hook, if given, post-processes the state after every accepted step
    (used to re-Hermitize density matrices).  Local error is controlled
    elementwise against abs_tol + rel_tol*|y|.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    y = np.array(y0, dtype=complex)
    if t1 == t0:
        return OdeResult(y, 0, 0)
    span = t1 - t0
    t = t0
    k1 = rhs(t, y)
    # Crude but safe first step guess; the controller fixes it quickly.
    scale = max_abs(k1)
    h = 0.01 * (max_abs(y) + cfg.abs_tol) / scale if scale > 0.0 else span
    h = min(h, span)
    h = max(h, span * 1e-10)

    accepted = rejected = 0
    ks = [k1, None, None, None, None, None, None]
    while t < t1:
        h = min(h, t1 - t)
        if h <= max(abs(t), span) * 1e-15:
            raise OdeStepUnderflow(t)
        for i in range(1, 6):
            yi = y + h * sum(a * ks[j] for j, a in enumerate(_DP_A[i]))
            ks[i] = rhs(t + _DP_C[i] * h, yi)
        y5 = y + h * sum(b * ks[j] for j, b in enumerate(_DP_B5) if b != 0.0)
        ks[6] = rhs(t + h, y5)  # FSAL stage
        err = h * sum(e * ks[j] for j, e in enumerate(_DP_E) if e != 0.0)
        tol = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        ratio = float(np.max(np.abs(err) / tol))
        if ratio <= 1.0:
            t += h
            accepted += 1
            if step_hook is not None:
                y = step_hook(y5)
                ks[0] = rhs(t, y)
            else:
                y = y5
                ks[0] = ks[6]
        else:
            rejected += 1
        fac = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        h *= fac
    return OdeResult(y, accepted, rejected)


def gauss_legendre(f: Callable[[float], float], a: float, b: float, n_nodes: int) -> float:
    """n-node Gauss-Legendre estimate of the integral of f over [a, b]."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if b < a:
        raise ValueError("b must be >= a")
    if b == a:
        return 0.0
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return float(half * sum(wi * f(mid + half * xi) for xi, wi in zip(x, w)))
