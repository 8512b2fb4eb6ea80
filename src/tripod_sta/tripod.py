"""Tripod Hamiltonians, analytic frame bases, and closed-form target gates.

Lab basis ordering is (|0>, |1>, |a>, |e>); the adiabatic-frame ordering is
(|0t>, |d2>, |b->, |b+>) where |0t> is the decoupled qubit dark state.  All
frames use the analytic eigenbasis, never a numerical eigensolver, so the
gauge is fixed and frame-dependent phases are reproducible bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlParams, DressingAngle, EnvelopeSet, PulseShape
from .qmath import gauss_legendre, max_abs

SQRT2 = math.sqrt(2.0)

# Pauli matrices, used blockwise on (|0>,|1>) and (|a>,|e>).
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)

# Spin-1 operators on the (d2, b-, b+) triplet in adiabatic-frame ordering;
# the |0t> row and column are zero.
J_X = np.zeros((4, 4), dtype=complex)
J_X[1, 2] = J_X[1, 3] = 1.0 / SQRT2
J_X[2, 1] = J_X[3, 1] = 1.0 / SQRT2

J_Y = np.zeros((4, 4), dtype=complex)
J_Y[1, 2] = 1.0j / SQRT2
J_Y[1, 3] = -1.0j / SQRT2
J_Y[2, 1] = -1.0j / SQRT2
J_Y[3, 1] = 1.0j / SQRT2

J_Z = np.zeros((4, 4), dtype=complex)
J_Z[2, 2] = 1.0
J_Z[3, 3] = -1.0


def qubit_dark_state(alpha: float, beta: float) -> np.ndarray:
    """|0t> = sin(a)|0> - e^{i b} cos(a)|1>, decoupled for any controls."""
    v = np.zeros(4, dtype=complex)
    v[0] = math.sin(alpha)
    v[1] = -complex(math.cos(beta), math.sin(beta)) * math.cos(alpha)
    return v


def qubit_coupled_state(alpha: float, beta: float) -> np.ndarray:
    """|1t> = cos(a)|0> + e^{i b} sin(a)|1>, the STIRAP-active qubit state."""
    v = np.zeros(4, dtype=complex)
    v[0] = math.cos(alpha)
    v[1] = complex(math.cos(beta), math.sin(beta)) * math.sin(alpha)
    return v


def hamiltonian(env: EnvelopeSet, t: float) -> np.ndarray:
    """(1/2)[O_0e|0><e| + O_1e|1><e| + O_ae|a><e| + H.c.] at time t."""
    o0, o1, oa = env.evaluate(t)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 3] = 0.5 * o0
    h[1, 3] = 0.5 * o1
    h[2, 3] = 0.5 * oa
    h[3, 0] = np.conj(h[0, 3])
    h[3, 1] = np.conj(h[1, 3])
    h[3, 2] = np.conj(h[2, 3])
    return h


@dataclass(frozen=True)
class FrameBasis:
    """Instantaneous eigenbasis of the adiabatic flavor and its frame change.

    The phase of the a-e control leg is constant on each half-segment (0,
    then gamma0); pass segment=1 or 2 to pin the side at t = t_gate/2.
    """

    params: ControlParams
    shape: PulseShape

    def segment(self, t: float) -> int:
        return 1 if t < 0.5 * self.params.t_gate else 2

    def _gamma_phase(self, segment: int) -> complex:
        if segment == 1:
            return 1.0 + 0.0j
        g = self.params.gamma0
        return complex(math.cos(g), math.sin(g))

    def dark2(self, t: float, segment: int | None = None) -> np.ndarray:
        seg = self.segment(t) if segment is None else segment
        th = self.shape(t)[0]
        ph = self._gamma_phase(seg)
        v = math.cos(th) * qubit_coupled_state(self.params.alpha, self.params.beta)
        v[2] -= ph * math.sin(th)
        return v

    def bright(self, t: float, sign: int, segment: int | None = None) -> np.ndarray:
        seg = self.segment(t) if segment is None else segment
        th = self.shape(t)[0]
        ph = self._gamma_phase(seg)
        v = sign * math.sin(th) * qubit_coupled_state(self.params.alpha, self.params.beta)
        v[2] += sign * ph * math.cos(th)
        v[3] += 1.0
        return v / SQRT2

    def s_ad(self, t: float, segment: int | None = None) -> np.ndarray:
        """Frame-change unitary: columns are (|0t>, |d2>, |b->, |b+>) at t."""
        s = np.empty((4, 4), dtype=complex)
        s[:, 0] = qubit_dark_state(self.params.alpha, self.params.beta)
        s[:, 1] = self.dark2(t, segment)
        s[:, 2] = self.bright(t, -1, segment)
        s[:, 3] = self.bright(t, +1, segment)
        return s

    def s_ad_dot(self, t: float, segment: int | None = None) -> np.ndarray:
        """Analytic time derivative of s_ad within a half-segment."""
        seg = self.segment(t) if segment is None else segment
        th, td, _ = self.shape(t)
        ph = self._gamma_phase(seg)
        one_t = qubit_coupled_state(self.params.alpha, self.params.beta)
        ds = np.zeros((4, 4), dtype=complex)
        ds[:, 1] = -td * math.sin(th) * one_t
        ds[2, 1] -= ph * td * math.cos(th)
        for col, sign in ((2, -1.0), (3, 1.0)):
            ds[:, col] = sign * td * math.cos(th) * one_t / SQRT2
            ds[2, col] -= sign * ph * td * math.sin(th) / SQRT2
        return ds


def adiabatic_frame_generators(
    params: ControlParams, shape: PulseShape, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal part H0 and non-adiabatic error part V_err in the frame basis.

    The step phase contributes no gamma_dot terms inside a half-segment; the
    accumulated jump is carried by the segmented frame change itself.
    """
    w = params.omega0 * params.amp_scale
    h0 = np.zeros((4, 4), dtype=complex)
    h0[2, 2] = -0.5 * w
    h0[3, 3] = 0.5 * w
    td = shape(t)[1]
    verr = np.zeros((4, 4), dtype=complex)
    verr[1, 2] = 1.0j * td / SQRT2
    verr[1, 3] = -1.0j * td / SQRT2
    verr[2, 1] = np.conj(verr[1, 2])
    verr[3, 1] = np.conj(verr[1, 3])
    return h0, verr


@dataclass(frozen=True)
class GateDecomposition:
    """A 4x4 block unitary as qubit-block and auxiliary-block rotations.

    Each 2x2 block is phase * (cos(angle/2) I - i sin(angle/2) axis.sigma)
    with angle in [0, 2*pi] and the global phase taken as arg(det)/2.  Zero
    rotations return axis (0, 0, 1) by convention.
    """

    qubit_axis: tuple[float, float, float]
    qubit_angle: float
    qubit_phase: float
    aux_axis: tuple[float, float, float]
    aux_angle: float
    aux_phase: float

    def qubit_block(self) -> np.ndarray:
        return _rotation_block(self.qubit_phase, self.qubit_angle, self.qubit_axis)

    def aux_block(self) -> np.ndarray:
        return _rotation_block(self.aux_phase, self.aux_angle, self.aux_axis)

    def full_matrix(self) -> np.ndarray:
        u = np.zeros((4, 4), dtype=complex)
        u[:2, :2] = self.qubit_block()
        u[2:, 2:] = self.aux_block()
        return u


def _rotation_block(phase: float, angle: float, axis) -> np.ndarray:
    n = np.asarray(axis, dtype=float)
    half = 0.5 * angle
    m = math.cos(half) * np.eye(2, dtype=complex)
    m -= 1.0j * math.sin(half) * (n[0] * SIGMA[0] + n[1] * SIGMA[1] + n[2] * SIGMA[2])
    return complex(math.cos(phase), math.sin(phase)) * m


def _decompose_su2(u: np.ndarray) -> tuple[tuple[float, float, float], float, float]:
    """(axis, angle, global phase) of a 2x2 unitary."""
    det = u[0, 0] * u[1, 1] - u[0, 1] * u[1, 0]
    phase = 0.5 * math.atan2(det.imag, det.real)
    v = complex(math.cos(-phase), math.sin(-phase)) * u
    c = 0.5 * (v[0, 0] + v[1, 1]).real
    s_vec = np.array([(1.0j * 0.5 * np.trace(v @ sig)).real for sig in SIGMA])
    s_norm = float(np.linalg.norm(s_vec))
    angle = 2.0 * math.atan2(s_norm, c)
    if s_norm < 1e-14:
        axis = (0.0, 0.0, 1.0)
    else:
        axis = tuple(float(x) for x in s_vec / s_norm)
    return axis, angle, phase


def decompose_block_unitary(u: np.ndarray, leak_tol: float = 1e-9) -> GateDecomposition:
    """Split a block-diagonal 4x4 unitary into the two rotations.

    Raises if the off-diagonal (qubit <-> auxiliary) blocks exceed leak_tol.
    """
    u = np.asarray(u, dtype=complex)
    leak = max(max_abs(u[:2, 2:]), max_abs(u[2:, :2]))
    if leak > leak_tol:
        raise ValueError(f"operator is not block-diagonal (leakage {leak:.3e})")
    q_axis, q_angle, q_phase = _decompose_su2(u[:2, :2])
    a_axis, a_angle, a_phase = _decompose_su2(u[2:, 2:])
    return GateDecomposition(q_axis, q_angle, q_phase, a_axis, a_angle, a_phase)


def _geometric_gate(params: ControlParams, aux_half_angle: float) -> GateDecomposition:
    """Qubit rotation by gamma0 about the (alpha, beta) axis, auxiliary
    rotation parametrized by the accumulated bright-state half angle."""
    g = params.gamma0
    a2 = 2.0 * params.alpha
    n = (math.sin(a2) * math.cos(params.beta), math.sin(a2) * math.sin(params.beta), math.cos(a2))
    qubit = _rotation_block(-0.5 * g, g, n)

    cg, sg = math.cos(0.5 * g), math.sin(0.5 * g)
    cx, sx = math.cos(aux_half_angle), math.sin(aux_half_angle)
    aux = cg * cx * np.eye(2, dtype=complex)
    aux += 1.0j * (-cg * sx * SIGMA[0] + sg * sx * SIGMA[1] + sg * cx * SIGMA[2])
    aux = complex(math.cos(0.5 * g), math.sin(0.5 * g)) * aux

    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = qubit
    u[2:, 2:] = aux
    return decompose_block_unitary(u, leak_tol=1e-12)


def ideal_gate(params: ControlParams) -> GateDecomposition:
    """Target gate in the adiabatic limit: auxiliary half angle omega0*t_g/2."""
    w = params.omega0 * params.amp_scale
    return _geometric_gate(params, 0.5 * w * params.t_gate)


def magnus_gate(params: ControlParams) -> GateDecomposition:
    """Leading-order non-adiabatic prediction for the quintic-ramp protocol.

    Identical qubit block; the auxiliary half angle picks up the correction
    10*pi^2/(7*omega0*t_g).
    """
    w = params.omega0 * params.amp_scale
    x = w * params.t_gate
    return _geometric_gate(params, 0.5 * x + 10.0 * math.pi**2 / (7.0 * x))


def satd_gate(params: ControlParams, shape: PulseShape, n_nodes: int = 64) -> GateDecomposition:
    """Closed-form gate for the shortcut-corrected protocol (calibrated amp).

    The auxiliary half angle is Phi = int_0^{t_g/2} sqrt(omega0^2 +
    4*theta_dot^2) dt, evaluated by Gauss-Legendre quadrature.
    """
    phi = satd_bright_half_angle(params, shape, n_nodes)
    return _geometric_gate(params, phi)


def satd_bright_half_angle(params: ControlParams, shape: PulseShape, n_nodes: int = 64) -> float:
    w = params.omega0 * params.amp_scale

    def integrand(t: float) -> float:
        td = shape(t)[1]
        return math.sqrt(w * w + 4.0 * td * td)

    return gauss_legendre(integrand, 0.0, 0.5 * params.t_gate, n_nodes)


def s_nu(nu: float) -> np.ndarray:
    """exp(-i*nu*J_x) on the frame-basis triplet, via the spin-1 identity
    Jx^3 = Jx."""
    return np.eye(4, dtype=complex) + (math.cos(nu) - 1.0) * (J_X @ J_X) - 1.0j * math.sin(nu) * J_X


def dressed_frame_fields(
    params: ControlParams, shape: PulseShape, nu: DressingAngle, t: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Effective field B, the five non-spin couplings Xi, and the geometric
    phase rate sin^2(theta)*cos^2(nu), all at the nominal omega0."""
    w = params.omega0
    th, td, _ = shape(t)
    n = nu.angle(t)
    sn, cn = math.sin(n), math.cos(n)
    st, ct = math.sin(th), math.cos(th)
    b = np.array(
        [
            -nu.rate(t),
            -0.5 * w * sn + td * cn,
            -0.5 * w * cn - td * sn,
        ]
    )
    s2t = math.sin(2.0 * th)
    xi = np.array(
        [
            ct * ct + st * st * sn * sn,
            -ct * ct + st * st * sn * sn,
            s2t * sn,
            s2t * cn / SQRT2,
            -st * st * math.sin(2.0 * n) / SQRT2,
        ]
    )
    return b, xi, st * st * cn * cn


def dressed_frame_hamiltonian(
    params: ControlParams,
    shape: PulseShape,
    env: EnvelopeSet,
    nu: DressingAngle,
    t: float,
    segment: int | None = None,
) -> np.ndarray:
    """Hamiltonian of env in the nu-dressed adiabatic frame (frame ordering).

    Computes S_nu^dag (S_ad^dag H S_ad - i S_ad^dag dS_ad/dt) S_nu -
    nu_dot*J_x with the analytic frame derivatives.
    """
    fb = FrameBasis(params, shape)
    s = fb.s_ad(t, segment)
    sdot = fb.s_ad_dot(t, segment)
    h_ad = s.conj().T @ hamiltonian(env, t) @ s - 1.0j * (s.conj().T @ sdot)
    sn = s_nu(nu.angle(t))
    return sn.conj().T @ h_ad @ sn - nu.rate(t) * J_X
