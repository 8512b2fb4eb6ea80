"""Independent perturbative solvers used to cross-check the direct numerics.

Three oracles: the fourth-order Magnus half-pulse propagators for the plain
protocol, the first-order dissipative Magnus map for the accelerated protocol
under excited-state dephasing, and the accumulated-phase verifier for the
generic single-bright-state dressing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controls import (
    ControlParams,
    DressingAngle,
    Flavor,
    PulseShape,
    generic_dressing,
    make_pulse_shape,
    satd_dressing_angle,
)
from .dynamics import (
    NoiseModel,
    dissipator_superoperator,
    hamiltonian_superoperator,
    unvec,
    vec,
)
from .metrics import AXIAL_QUBIT_STATES, _axial_average
from .qmath import IntegratorConfig, gauss_legendre, ode_solve, su2_exponential
from .tripod import dressed_frame_hamiltonian, frame_ends, ideal_gate, lab_operator

SQRT2 = math.sqrt(2.0)

# Closed-form constants of the fourth-order Magnus half-pulse fields.
A1 = -5.0 * math.pi**2 / 7.0
A2 = 4500.0 * math.pi**4 / 2431.0 - 960.0 * math.pi**2 / 7.0
B1 = 3840.0 * math.pi
B2 = 960.0 * math.pi * (336.0 + 5.0 * math.pi**2) / 7.0
C1 = -1920.0 * math.pi
C2 = -1920.0 * math.pi * (336.0 + 5.0 * math.pi**2) / 7.0


@dataclass(frozen=True)
class MagnusCoefficients:
    """Half-pulse interaction-picture generator in spin components."""

    delta: float
    omega_x: float
    omega_y: float


def magnus_coefficients(omega0: float, t_gate: float) -> MagnusCoefficients:
    """Evaluate the closed-form fields at the half-pulse endpoint."""
    x = omega0 * t_gate
    delta = A1 / x + A2 / x**3
    omega_x = B1 * math.sin(0.125 * x) ** 2 / x**3 + B2 * math.sin(0.25 * x) / x**4
    omega_y = C1 * math.sin(0.25 * x) / x**3 + C2 * math.cos(0.125 * x) ** 2 / x**4
    return MagnusCoefficients(delta, omega_x, omega_y)


def magnus_full_gate(params: ControlParams) -> np.ndarray:
    """Lab-frame gate from the Magnus closed forms (adiabatic flavor only).

    Each half-pulse's adiabatic-frame propagator is the spin-1 image of
    exp(-i z.sigma/2) exp(-i g.sigma/2), with z = (0, 0, -w*t_g/4) the
    zeroth-order bright-state rotation and g = (+-omega_x, +-omega_y, delta)
    the Magnus generator (+ on the first half, - on the second);
    tripod.lab_operator takes the pair to the lab frame."""
    if params.flavor is not Flavor.ADIABATIC:
        raise ValueError("the Magnus oracle covers the adiabatic flavor only")
    w = params.omega0 * params.amp_scale
    tg = params.t_gate
    co = magnus_coefficients(w, tg)
    zero, plus, minus = su2_exponential(
        [[0.0, 0.0, -0.25 * w * tg], [co.omega_x, co.omega_y, co.delta], [-co.omega_x, -co.omega_y, co.delta]]
    )
    return lab_operator(params, make_pulse_shape(tg), zero @ plus, zero @ minus)


def _collapse_vector(params: ControlParams, shape: PulseShape, t: float) -> np.ndarray:
    """Dressed-frame amplitudes of the excited state, frame ordering."""
    w = params.omega0
    td = shape(t)[1]
    root = math.sqrt(1.0 + 4.0 * td * td / (w * w))
    c = np.zeros(4, dtype=complex)
    c[1] = 2.0j * td / (w * root)
    c[2] = 1.0 / (SQRT2 * root)
    c[3] = 1.0 / (SQRT2 * root)
    return c


def dissipative_magnus_superop(
    params: ControlParams,
    shape: PulseShape,
    noise: NoiseModel,
    cfg: IntegratorConfig = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11),
) -> np.ndarray:
    """Lab-frame 16x16 map of the first-order dissipative Magnus solution.

    The noiseless dressed-frame propagator is integrated numerically on the
    same mesh as the interaction-picture dissipator integral; dephasing
    enters once, to first order in the excited-state rate.
    """
    if params.flavor is not Flavor.SATD:
        raise ValueError("the dissipative oracle covers the SATD flavor only")
    if any(g != 0.0 for g in noise.gamma_phi[:3]):
        raise ValueError("the dissipative oracle covers excited-state dephasing only")
    gamma_e = noise.gamma_phi[3]
    nu = satd_dressing_angle(params, shape)
    tg = params.t_gate
    eye16 = np.eye(16, dtype=complex)

    def segment_map(t0: float, t1: float) -> np.ndarray:
        def rhs(t, y):
            prop = y[:, :16]
            h_dr = dressed_frame_hamiltonian(params, shape, nu, t)
            ell0 = hamiltonian_superoperator(h_dr)
            c = _collapse_vector(params, shape, t)
            l_op = math.sqrt(gamma_e) * np.outer(c, c.conj())
            ell_phi = dissipator_superoperator(l_op)
            d_prop = ell0 @ prop
            d_int = prop.conj().T @ ell_phi @ prop
            return np.concatenate([d_prop, d_int], axis=1)

        y0 = np.concatenate([eye16, np.zeros((16, 16), dtype=complex)], axis=1)
        res = ode_solve(rhs, y0, t0, t1, cfg)
        prop = res.y[:, :16]
        integral = res.y[:, 16:]
        return prop @ (eye16 + integral)

    map1 = segment_map(0.0, 0.5 * tg)
    map2 = segment_map(0.5 * tg, tg)

    s_out, junction, s_in = frame_ends(params, shape)
    total_dr = map2 @ np.kron(junction.conj(), junction) @ map1
    into_frame = np.kron(s_in.conj(), s_in).conj().T
    out_of_frame = np.kron(s_out.conj(), s_out)
    return out_of_frame @ total_dr @ into_frame


def oracle_b_map_fidelity(
    params: ControlParams,
    shape: PulseShape,
    noise: NoiseModel,
    cfg: IntegratorConfig = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11),
) -> float:
    """Six-axial-state average fidelity of the dissipative Magnus map."""
    superop = dissipative_magnus_superop(params, shape, noise, cfg)
    target = ideal_gate(params.with_amp_scale(1.0))[:2, :2]
    return float(_axial_average(target, [unvec(superop @ vec(rho)) for rho in AXIAL_QUBIT_STATES])[0])


def generic_dressing_phase(
    params: ControlParams,
    shape: PulseShape,
    gamma_dot: Callable[[float], float],
    mu: DressingAngle | None = None,
    n_nodes: int = 201,
) -> float:
    """Phase accumulated by the dressed dark state of the generic dressing.

    mu defaults to the angle integrated from the dressing condition; passing
    an explicit DressingAngle lets callers probe limiting cases.
    """
    if mu is None:
        mu = generic_dressing(params, shape, gamma_dot)

    def integrand(t: float) -> float:
        m = mu.angle(t)
        th, td, _ = shape(t)
        sec2 = 1.0 / math.cos(m) ** 2
        bracket = gamma_dot(t) * (
            3.0 + math.cos(2.0 * m) - math.cos(2.0 * th) * (1.0 + 3.0 * math.cos(2.0 * m))
        )
        bracket += 4.0 * SQRT2 * math.sin(2.0 * m) * td
        return 0.125 * sec2 * bracket

    return gauss_legendre(integrand, 0.0, params.t_gate, n_nodes)
