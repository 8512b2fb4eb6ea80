"""Independent perturbative solvers used to cross-check the direct numerics.

Three oracles: the fourth-order Magnus half-pulse propagators for the plain
protocol, the first-order dissipative Magnus map for the accelerated protocol
under excited-state dephasing (a Gauss-Legendre quadrature in the dressed
frame, where the noiseless propagator is diagonal and closed-form), and the
accumulated-phase verifier for the generic single-bright-state dressing.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from .controls import ControlParams, DressingAngle, Flavor, PulseShape, TimeFunction, generic_dressing
from .dynamics import NoiseModel, NumericalError, _refine_by_doubling
from .metrics import AXIAL_QUBIT_STATES, _axial_average
from .qmath import IntegratorConfig, gauss_legendre, gauss_legendre_rule, su2_exponential
from .tripod import frame_ends, ideal_gate, lab_operator

SQRT2 = math.sqrt(2.0)

# Gauss-Legendre nodes per half-segment of the dissipative oracle, first and
# largest (SATD at t_g = 200 cycles needs 512; a try costs N^2 shape calls).
ORACLE_MIN_NODES = 8
ORACLE_MAX_NODES = 2**10

# Closed-form constants of the fourth-order Magnus half-pulse fields.
A1 = -5.0 * math.pi**2 / 7.0
A2 = 4500.0 * math.pi**4 / 2431.0 - 960.0 * math.pi**2 / 7.0
B1 = 3840.0 * math.pi
B2 = 960.0 * math.pi * (336.0 + 5.0 * math.pi**2) / 7.0
C1 = -1920.0 * math.pi
C2 = -1920.0 * math.pi * (336.0 + 5.0 * math.pi**2) / 7.0


# Half-pulse interaction-picture generator in spin components.
MagnusCoefficients = namedtuple("MagnusCoefficients", "delta omega_x omega_y")


def magnus_coefficients(omega0: float, t_gate: float) -> MagnusCoefficients:
    """Evaluate the closed-form fields at the half-pulse endpoint."""
    x = omega0 * t_gate
    delta = A1 / x + A2 / x**3
    omega_x = B1 * math.sin(0.125 * x) ** 2 / x**3 + B2 * math.sin(0.25 * x) / x**4
    omega_y = C1 * math.sin(0.25 * x) / x**3 + C2 * math.cos(0.125 * x) ** 2 / x**4
    return MagnusCoefficients(delta, omega_x, omega_y)


def magnus_full_gate(params) -> np.ndarray:
    """Lab-frame gate from the Magnus closed forms (adiabatic flavor only).

    Each half-pulse's adiabatic-frame propagator is the spin-1 image of
    exp(-i z.sigma/2) exp(-i g.sigma/2), with z = (0, 0, -w*t_g/4) the
    zeroth-order bright-state rotation and g = (+-omega_x, +-omega_y, delta)
    the Magnus generator (+ on the first half, - on the second);
    tripod.lab_operator takes the pair to the lab frame (a list of protocols:
    their stack)."""
    if isinstance(params, ControlParams):
        return magnus_full_gate([params])[0]
    if any(p.flavor is not Flavor.ADIABATIC for p in params):
        raise ValueError("the Magnus oracle covers the adiabatic flavor only")
    rows = []
    for w, tg in [(p.omega0 * p.amp_scale, p.t_gate) for p in params]:
        delta, x, y = magnus_coefficients(w, tg)
        rows.append([[0.0, 0.0, -0.25 * w * tg], [x, y, delta], [-x, -y, delta]])
    zero, plus, minus = np.moveaxis(su2_exponential(rows), 1, 0)
    return lab_operator(params, zero @ plus, zero @ minus)


def _collapse_vector(params: ControlParams, shape: PulseShape, t) -> np.ndarray:
    """Dressed-frame amplitudes of the excited state, frame ordering, at a
    float or an array of times: shape t.shape + (4,)."""
    w = params.omega0
    td = shape(t)[1]
    root = np.sqrt(1.0 + 4.0 * td * td / (w * w))
    c = np.zeros(np.shape(t) + (4,), dtype=complex)
    c[..., 1] = 2.0j * td / (w * root)
    c[..., 2] = c[..., 3] = 1.0 / (SQRT2 * root)
    return c


def _dressed_half_segment(
    params: ControlParams, shape: PulseShape, gamma_e: float, rhos: np.ndarray, t0: float, t1: float, x, w
) -> np.ndarray:
    """The frame-ordered stack rhos after [t0, t1] under the first-order map
    U0(t1) [rho + gamma_e int D[|c~><c~|](rho) dt] U0(t1)^dag on the
    Gauss-Legendre nodes x and weights w of [-1, 1].  The dressed field is
    (0, 0, -E), E^2 = omega0^2/4 + theta_dot^2, so U0 = exp(i Phi J_z) with
    Phi(t) = int_{t0}^t E (the same rule on [t0, t] at t1 and at each node),
    and c~ = U0^dag c."""
    t = t0 + 0.5 * (t1 - t0) * (x + 1.0)
    spans = np.concatenate(([t1 - t0], t - t0))
    e = np.sqrt(0.25 * params.omega0**2 + shape(t0 + 0.5 * spans[:, None] * (x + 1.0))[1] ** 2)
    u0 = np.exp(0.5j * (spans * (e @ w))[:, None] * np.array([0.0, 0.0, 1.0, -1.0]))
    c = u0[1:].conj() * _collapse_vector(params, shape, t)
    proj = c[:, :, None] * c[:, None, :].conj()
    # D[P](rho) = <c~|rho|c~> P - {P, rho}/2 for each projector P = |c~><c~|.
    a = np.tensordot(w, proj, 1)
    d = np.tensordot(np.sum((c.conj() @ rhos) * c, axis=-1) * w, proj, 1) - 0.5 * (a @ rhos + rhos @ a)
    return u0[0][:, None] * (rhos + 0.5 * (t1 - t0) * gamma_e * d) * u0[0].conj()


def dissipative_magnus_map(
    params: ControlParams, shape: PulseShape, noise: NoiseModel, rho0s: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11),
) -> np.ndarray:
    """Lab-frame final states of the stack rho0s (n, 4, 4) under the
    first-order dissipative Magnus map in the transitionless dressed frame
    (_dressed_half_segment), the node count doubled from ORACLE_MIN_NODES by
    the Magnus step-doubling rule up to ORACLE_MAX_NODES."""
    if params.flavor is not Flavor.SATD or params.amp_scale != 1.0:
        raise ValueError("the dissipative oracle covers the SATD flavor at the nominal amplitude only")
    if any(g != 0.0 for g in noise.gamma_phi[:3]):
        raise ValueError("the dissipative oracle covers excited-state dephasing only")
    half, tg, gamma_e = 0.5 * params.t_gate, params.t_gate, noise.gamma_phi[3]
    s_out, junction, s_in = frame_ends(params)
    rhos = s_in.conj().T @ np.asarray(rho0s, dtype=complex) @ s_in

    def final_states(rows, n: int) -> np.ndarray:
        x, w = gauss_legendre_rule(n)
        mid = junction @ _dressed_half_segment(params, shape, gamma_e, rhos, 0.0, half, x, w) @ junction.conj().T
        return (s_out @ _dressed_half_segment(params, shape, gamma_e, mid, half, tg, x, w) @ s_out.conj().T)[None]

    tol = cfg.rel_tol + cfg.abs_tol
    [result] = _refine_by_doubling(final_states, ["oracle node doubling"], ORACLE_MIN_NODES, ORACLE_MAX_NODES, tol)
    if isinstance(result, NumericalError):
        raise result
    return result[0]


def oracle_b_map_fidelity(
    params: ControlParams, shape: PulseShape, noise: NoiseModel,
    cfg: IntegratorConfig = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11),
) -> float:
    """Six-axial-state average fidelity of the dissipative Magnus map."""
    finals = dissipative_magnus_map(params, shape, noise, AXIAL_QUBIT_STATES, cfg)
    return float(_axial_average(ideal_gate(params)[:2, :2], finals)[0])


def generic_dressing_phase(
    params: ControlParams,
    shape: PulseShape,
    gamma_dot: TimeFunction,
    mu: DressingAngle | None = None,
) -> float:
    """Phase accumulated by the dressed dark state of the generic dressing.

    mu defaults to the angle integrated from the dressing condition; passing
    an explicit DressingAngle lets callers probe limiting cases.
    """
    if mu is None:
        mu = generic_dressing(params, shape, gamma_dot)

    def integrand(t: np.ndarray) -> np.ndarray:
        m = mu.angle(t)
        th, td, _ = shape(t)
        sec2 = 1.0 / np.cos(m) ** 2
        bracket = gamma_dot(t) * (3.0 + np.cos(2.0 * m) - np.cos(2.0 * th) * (1.0 + 3.0 * np.cos(2.0 * m)))
        bracket += 4.0 * SQRT2 * np.sin(2.0 * m) * td
        return 0.125 * sec2 * bracket

    return gauss_legendre(integrand, 0.0, params.t_gate, 201)
