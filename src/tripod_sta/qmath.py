"""Dense complex linear algebra, ODE stepping, SU(2) Magnus stepping, and
quadrature at 2x2/4x4 scale, on single matrices and stacks of them.

Everything here operates on plain numpy arrays of complex128.  All functions
are pure; nothing keeps internal state, so values can be shared freely between
concurrent sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

class OdeStepUnderflow(RuntimeError):
    """Raised when the adaptive stepper stalls; carries the failure time."""

    def __init__(self, t: float):
        super().__init__(f"ODE step size underflow at t = {t!r}")
        self.t = t


# Smallest accepted abs_tol.  Near-zero state elements carry roundoff of
# about 1e-16 relative to the unit-scale ones, so a tighter abs_tol cannot be
# met: the stepper shrinks its steps toward underflow instead of converging.
ABS_TOL_FLOOR = 1e-16


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the adaptive Dormand-Prince 5(4) stepper in :func:`ode_solve`,
    of the Magnus step doubling in dynamics.propagate_unitary and of the node
    doubling in oracles.dissipative_magnus_map; abs_tol must be at least
    ABS_TOL_FLOOR."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not all(math.isfinite(tol) and tol > 0.0 for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("rel_tol and abs_tol must be positive and finite")
        if self.abs_tol < ABS_TOL_FLOOR:
            raise ValueError(f"abs_tol must be >= {ABS_TOL_FLOOR:g}")


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


def _cayley_klein(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with exp(-i g.sigma/2) = [[a, b], [-b*, a*]] for a stack of
    real 3-vectors g (..., 3): a = cos(|g|/2) - i sin(|g|/2) g_z/|g|,
    b = -sin(|g|/2) (g_y + i g_x)/|g|."""
    g = np.asarray(g, dtype=float)
    angle = np.sqrt(np.sum(g * g, axis=-1))
    # sin(|g|/2)/|g|, finite at g = 0.
    s = 0.5 * np.sinc(angle / (2.0 * math.pi))
    return np.cos(0.5 * angle) - 1.0j * s * g[..., 2], -s * (g[..., 1] + 1.0j * g[..., 0])


def _su2_matrix(a, b) -> np.ndarray:
    return np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], -2)


def su2_exponential(g: np.ndarray) -> np.ndarray:
    """exp(-i g.sigma/2) for a stack of real 3-vectors g (..., 3), in closed form."""
    return _su2_matrix(*_cayley_klein(g))


def su2_ordered_product(a: np.ndarray, b: np.ndarray) -> tuple[complex, complex]:
    """Cayley-Klein pair of U[n-1] ... U[1] U[0] for the SU(2) stack
    U[k] = [[a[k], b[k]], [-b[k]*, a[k]*]], n >= 1, as a pairwise tree of
    batched 2x2 products: log2(n) vectorized levels."""
    while len(a) > 1:
        if len(a) % 2:
            a, b = np.append(a, 1.0), np.append(b, 0.0)
        a1, a0, b1, b0 = a[1::2], a[0::2], b[1::2], b[0::2]
        a, b = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
    return a[0], b[0]


# Two-point Gauss-Legendre nodes of a step [t, t+h]: t + h/2 -+ h*_GL2_OFFSET.
_GL2_OFFSET = math.sqrt(3.0) / 6.0
# Steps per vectorized block of magnus_su2: memory stays bounded at any step count.
MAGNUS_BLOCK = 4096


def magnus_su2(field: Callable[[np.ndarray], tuple], t0: float, t1: float, n: int) -> np.ndarray:
    """SU(2) propagator of i dU/dt = (c(t).sigma/2) U over [t0, t1] from n
    uniform fourth-order Magnus steps on two Gauss-Legendre nodes (Blanes,
    Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)).

    field(t) maps an array of times to the components (c_x, c_y, c_z), each
    an array or a scalar.  With c1, c2 at the nodes of a step of length h,
    the step is exp(-i g.sigma/2) with g = h(c1+c2)/2 + (sqrt(3) h^2/12)
    (c2 x c1).  Blocks of MAGNUS_BLOCK steps take one field call each.
    """
    h = (t1 - t0) / n
    blocks = []
    for start in range(0, n, MAGNUS_BLOCK):
        mid = t0 + h * (np.arange(start, min(n, start + MAGNUS_BLOCK)) + 0.5)
        m = len(mid)
        c = np.empty((2 * m, 3))
        c[:, 0], c[:, 1], c[:, 2] = field(np.concatenate([mid - _GL2_OFFSET * h, mid + _GL2_OFFSET * h]))
        c1, c2 = c[:m], c[m:]
        cross = c2[:, [1, 2, 0]] * c1[:, [2, 0, 1]] - c2[:, [2, 0, 1]] * c1[:, [1, 2, 0]]
        g = 0.5 * h * (c1 + c2) + (math.sqrt(3.0) / 12.0) * h * h * cross
        blocks.append(su2_ordered_product(*_cayley_klein(g)))
    return _su2_matrix(*su2_ordered_product(*np.array(blocks).T))


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 19 (1980)); row i of _DP_A weighs stages 0..i-1.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    )
)
_DP_B5 = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
# b5 - b4, including the FSAL stage.
_DP_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


def ode_solve(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> OdeResult:
    """Integrate dy/dt = rhs(t, y) from t0 to t1 for a complex array y with
    the adaptive Dormand-Prince 5(4) stepper.

    Local error is controlled elementwise against abs_tol + rel_tol*|y|.  The
    seven stages of a step are the rows of one (7, y.size) array, and every
    stage combination is one tableau-row product with it.  The last stage of
    an accepted step is the first of the next (FSAL), so a solve costs
    1 + 6*(accepted + rejected) rhs evaluations.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    y = np.array(y0, dtype=complex)
    if t1 == t0:
        return OdeResult(y, 0, 0)
    shape = y.shape
    y = y.ravel()
    span = t1 - t0
    t = t0
    ks = np.empty((7, y.size), dtype=complex)
    ks[0] = rhs(t, y.reshape(shape)).ravel()
    # Crude but safe first step guess; the controller fixes it quickly.
    scale = max_abs(ks[0])
    h = 0.01 * (max_abs(y) + cfg.abs_tol) / scale if scale > 0.0 else span
    h = min(h, span)
    h = max(h, span * 1e-10)

    accepted = rejected = 0
    while t < t1:
        h = min(h, t1 - t)
        if h <= max(abs(t), span) * 1e-15:
            raise OdeStepUnderflow(t)
        for i in range(1, 6):
            ks[i] = rhs(t + _DP_C[i] * h, (y + (h * _DP_A[i]) @ ks[:i]).reshape(shape)).ravel()
        y5 = y + (h * _DP_B5) @ ks[:6]
        ks[6] = rhs(t + h, y5.reshape(shape)).ravel()  # FSAL stage
        err = (h * _DP_E) @ ks
        tol = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y5))
        ratio = float(np.max(np.abs(err) / tol))
        if ratio <= 1.0:
            t += h
            accepted += 1
            y = y5
            ks[0] = ks[6]
        else:
            rejected += 1
        fac = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        h *= fac
    return OdeResult(y.reshape(shape), accepted, rejected)


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
