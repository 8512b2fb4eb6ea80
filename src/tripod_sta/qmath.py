"""Dense complex linear algebra, ODE stepping, SU(2) Magnus stepping, and
quadrature at 2x2/4x4 scale, on single matrices and stacks of them.

Everything here operates on plain numpy arrays of complex128.  All functions
are pure; nothing keeps internal state, so values can be shared freely between
concurrent sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    of the Magnus step doubling in dynamics.propagate_unitary_batch and of the
    node doubling in oracles.dissipative_magnus_map.  Both lie below 1: every
    reported gate or map error lies in [0, 1] and is zeroed below rel_tol.
    abs_tol must be at least ABS_TOL_FLOOR."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not all(math.isfinite(tol) and tol > 0.0 for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("rel_tol and abs_tol must be positive and finite")
        for name in ("rel_tol", "abs_tol"):
            if getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be < 1")
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


def su2_ordered_product(a: np.ndarray, b: np.ndarray) -> tuple:
    """Cayley-Klein pair of U[n-1] ... U[1] U[0] for the SU(2) stack
    U[k] = [[a[..., k], b[..., k]], [-b[..., k]*, a[..., k]*]] along the last
    axis, n >= 1, as a pairwise tree of batched 2x2 products: log2(n)
    vectorized levels.  Leading axes are independent products."""
    while a.shape[-1] > 1:
        if a.shape[-1] % 2:
            a = np.concatenate([a, np.ones_like(a[..., :1])], -1)
            b = np.concatenate([b, np.zeros_like(b[..., :1])], -1)
        a1, a0, b1, b0 = a[..., 1::2], a[..., 0::2], b[..., 1::2], b[..., 0::2]
        a, b = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
    return a[..., 0], b[..., 0]


# Two-point Gauss-Legendre nodes of a step [t, t+h]: t + h/2 -+ h*_GL2_OFFSET.
_GL2_OFFSET = math.sqrt(3.0) / 6.0
# Member-steps per vectorized field call of magnus_su2, and steps per block of
# one member: memory stays bounded at any step count and batch size.
MAGNUS_BLOCK = 4096


def magnus_su2(field: Callable, t0: np.ndarray, t1: np.ndarray, n: int) -> np.ndarray:
    """SU(2) propagators of i dU/dt = (c(t).sigma/2) U over [t0[j], t1[j]] for
    a stack of M members, each from n uniform fourth-order Magnus steps on two
    Gauss-Legendre nodes (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151
    (2009)): shape (M, 2, 2).

    field(rows, t) maps the member indices rows and their times t, shape
    (len(rows), 2m), to the components (c_x, c_y, c_z), each broadcasting
    against t.  With c1, c2 at the nodes of a step of length h, the step is
    exp(-i g.sigma/2) with g = h(c1+c2)/2 + (sqrt(3) h^2/12) (c2 x c1).  Each
    member multiplies blocks of MAGNUS_BLOCK steps; one field call covers
    whole blocks of at most MAGNUS_BLOCK member-steps in all, so a member's
    arithmetic does not depend on the batch it runs in.
    """
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    h = (t1 - t0) / n
    per_call = max(1, MAGNUS_BLOCK // n)
    blocks = []
    for start in range(0, n, MAGNUS_BLOCK):
        steps = np.arange(start, min(n, start + MAGNUS_BLOCK)) + 0.5
        m = len(steps)
        pairs = []
        for first in range(0, len(h), per_call):
            rows = np.arange(first, min(len(h), first + per_call))
            hr = h[rows, None]
            mid = t0[rows, None] + hr * steps
            t = np.concatenate([mid - _GL2_OFFSET * hr, mid + _GL2_OFFSET * hr], axis=1)
            # Stacked once the field call returns: c never coexists with its temporaries.
            c = np.stack([np.broadcast_to(x, t.shape) for x in field(rows, t)], -1)
            c1, c2 = c[:, :m], c[:, m:]
            cross = c2[..., [1, 2, 0]] * c1[..., [2, 0, 1]] - c2[..., [2, 0, 1]] * c1[..., [1, 2, 0]]
            hr = hr[..., None]
            g = 0.5 * hr * (c1 + c2) + (math.sqrt(3.0) / 12.0) * hr * hr * cross
            pairs.append(su2_ordered_product(*_cayley_klein(g)))
        blocks.append([np.concatenate(part) for part in zip(*pairs)])
    return _su2_matrix(*su2_ordered_product(*np.moveaxis(np.array(blocks), 0, -1)))


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
    stage combination is one real tableau-row product with its float view.
    The last stage of an accepted step is the first of the next (FSAL), so a
    solve costs 1 + 6*(accepted + rejected) rhs evaluations.
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
    kf = ks.view(float)
    ks[0] = rhs(t, y.reshape(shape)).ravel()
    # Crude but safe first step guess; the controller fixes it quickly.
    scale = max_abs(ks[0])
    h = 0.01 * (max_abs(y) + cfg.abs_tol) / scale if scale > 0.0 else span
    h = min(h, span)
    h = max(h, span * 1e-10)

    accepted = rejected = 0
    abs_y = np.abs(y)
    while t < t1:
        h = min(h, t1 - t)
        if h <= max(abs(t), span) * 1e-15:
            raise OdeStepUnderflow(t)
        yf = y.view(float)
        for i in range(1, 6):
            stage = (yf + (h * _DP_A[i]) @ kf[:i]).view(complex)
            ks[i] = rhs(t + _DP_C[i] * h, stage.reshape(shape)).ravel()
        y5 = (yf + (h * _DP_B5) @ kf[:6]).view(complex)
        ks[6] = rhs(t + h, y5.reshape(shape)).ravel()  # FSAL stage
        err = ((h * _DP_E) @ kf).view(complex)
        abs_y5 = np.abs(y5)
        tol = cfg.abs_tol + cfg.rel_tol * np.maximum(abs_y, abs_y5)
        ratio = float(np.max(np.abs(err) / tol))
        if ratio <= 1.0:
            t += h
            accepted += 1
            y, abs_y = y5, abs_y5
            ks[0] = ks[6]
        else:
            rejected += 1
        fac = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))
        h *= fac
    return OdeResult(y.reshape(shape), accepted, rejected)


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n_nodes: int) -> float:
    """n-node Gauss-Legendre estimate of the integral of f over [a, b], from
    one call of f on the array of all nodes.  The weighted values are summed
    left to right, which a BLAS dot would regroup."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if b < a:
        raise ValueError("b must be >= a")
    if b == a:
        return 0.0
    x, w = gauss_legendre_rule(n_nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return float(half * sum((w * f(mid + half * x)).tolist()))


@lru_cache(maxsize=32)
def gauss_legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-node Gauss-Legendre rule on
    [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w
