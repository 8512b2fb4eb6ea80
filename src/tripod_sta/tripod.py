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

from .controls import ControlParams, DressingAngle, EnvelopeSet, Flavor, PulseShape
from .qmath import gauss_legendre, max_abs, su2_exponential

SQRT2 = math.sqrt(2.0)

# Pauli matrices, for reading rotation axes out of 2x2 blocks.
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


def spin1_image(u: np.ndarray) -> np.ndarray:
    """1 (+) D1(u): the spin-1 image of a 2x2 matrix (or a stack (..., 2, 2))
    on the (d2, b-, b+) triplet, with 1 on |0t>.

    D1 is the symmetric square of u: b- = |m=+1>, d2 = |m=0>, b+ = |m=-1>.
    It is quadratic in the entries and multiplicative, and it maps
    exp(-i g.sigma/2) to exp(-i g.(J_X, J_Y, J_Z))."""
    u = np.asarray(u)
    a, b, c, d = u[..., 0, 0], u[..., 0, 1], u[..., 1, 0], u[..., 1, 1]
    out = np.zeros(u.shape[:-2] + (4, 4), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 1, 1] = a * d + b * c
    out[..., 1, 2] = SQRT2 * a * c
    out[..., 1, 3] = SQRT2 * b * d
    out[..., 2, 1] = SQRT2 * a * b
    out[..., 2, 2] = a * a
    out[..., 2, 3] = b * b
    out[..., 3, 1] = SQRT2 * c * d
    out[..., 3, 2] = c * c
    out[..., 3, 3] = d * d
    return out


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


def frame_field(params: ControlParams, shape: PulseShape, t: float) -> tuple[float, float, float]:
    """Spin-1 components (c_x, c_y, c_z) of the adiabatic-frame Hamiltonian
    S_ad^dag H S_ad - i S_ad^dag dS_ad/dt = c_x J_X + c_y J_Y + c_z J_Z.

    c = (r*omega0*kappa/2, theta_dot, -r*omega0/2) with r = amp_scale and
    kappa = 4*theta_ddot/(omega0^2 + 4*theta_dot^2), the SATD envelope
    correction designed at the nominal omega0 (kappa = 0 for the adiabatic
    flavor).  |0t> decouples, and the step phase of the a-e leg enters no
    term inside a half-segment: the segmented frame change carries its jump.
    """
    w = params.omega0
    half_gap = 0.5 * params.amp_scale * w
    _, td, tdd = shape(t)
    kappa = 4.0 * tdd / (w * w + 4.0 * td * td) if params.flavor is Flavor.SATD else 0.0
    return half_gap * kappa, td, -half_gap


def frame_ends(params: ControlParams, shape: PulseShape) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S(t_g, seg 2), S(t_g/2, seg 2)^dag S(t_g/2, seg 1), S(0, seg 1)): the
    frame change out of the adiabatic frame at the end, the junction that
    carries the geometric phase across t_g/2, and the frame change at the
    start, with S the FrameBasis frame change."""
    fb = FrameBasis(params, shape)
    tg = params.t_gate
    return fb.s_ad(tg, 2), fb.s_ad(0.5 * tg, 2).conj().T @ fb.s_ad(0.5 * tg, 1), fb.s_ad(0.0, 1)


def lab_operator(params: ControlParams, shape: PulseShape, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Lab-frame 4x4 operator of the protocol whose adiabatic-frame half-segment
    propagators are spin1_image(first) and spin1_image(second), for 2x2
    propagators first and second:
    S(t_g) D(second) S(t_g/2, seg 2)^dag S(t_g/2, seg 1) D(first) S(0)^dag."""
    s_out, junction, s_in = frame_ends(params, shape)
    return s_out @ spin1_image(second) @ junction @ spin1_image(first) @ s_in.conj().T


def _dressed(c: tuple, nu: DressingAngle, t: float) -> tuple:
    """Spin components of the field c seen in the frame dressed by
    exp(-i*nu*J_X): a rotation about x by nu, less the nu_dot*J_X it costs."""
    n = nu.angle(t)
    sn, cn = math.sin(n), math.cos(n)
    return c[0] - nu.rate(t), c[1] * cn + c[2] * sn, c[2] * cn - c[1] * sn


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


def _geometric_gate(params: ControlParams, aux_half_angle: float) -> np.ndarray:
    """The 4x4 block gate: qubit rotation by gamma0 about the (alpha, beta)
    axis, auxiliary rotation parametrized by the accumulated bright-state
    half angle."""
    g = params.gamma0
    a2 = 2.0 * params.alpha
    n = np.array([math.sin(a2) * math.cos(params.beta), math.sin(a2) * math.sin(params.beta), math.cos(a2)])
    # One stacked call for all three factors, a third of the cost of three calls.
    qubit, z, x = su2_exponential(np.stack([g * n, (0.0, 0.0, -g), (2.0 * aux_half_angle, 0.0, 0.0)]))
    phase = complex(math.cos(0.5 * g), math.sin(0.5 * g))
    u = np.zeros((4, 4), dtype=complex)
    u[:2, :2] = phase.conjugate() * qubit
    u[2:, 2:] = phase * z @ x
    return u


def ideal_gate(params: ControlParams) -> np.ndarray:
    """Target gate in the adiabatic limit: auxiliary half angle omega0*t_g/2."""
    w = params.omega0 * params.amp_scale
    return _geometric_gate(params, 0.5 * w * params.t_gate)


def satd_gate(params: ControlParams, shape: PulseShape, n_nodes: int = 64) -> np.ndarray:
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


def dressed_frame_fields(
    params: ControlParams, shape: PulseShape, nu: DressingAngle, t: float
) -> tuple[np.ndarray, np.ndarray, float]:
    """Effective field B, the five non-spin couplings Xi, and the geometric
    phase rate sin^2(theta)*cos^2(nu), all at the nominal omega0.

    B is the nu-dressed frame_field of the adiabatic flavor at amp_scale 1."""
    th, td, _ = shape(t)
    b = np.array(_dressed((0.0, td, -0.5 * params.omega0), nu, t))
    n = nu.angle(t)
    sn, cn = math.sin(n), math.cos(n)
    st, ct = math.sin(th), math.cos(th)
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
    params: ControlParams, shape: PulseShape, nu: DressingAngle, t: float
) -> np.ndarray:
    """S_nu^dag (S_ad^dag H S_ad - i S_ad^dag dS_ad/dt) S_nu - nu_dot*J_X with
    S_nu = exp(-i*nu*J_X), in frame ordering: the nu-dressed frame_field."""
    cx, cy, cz = _dressed(frame_field(params, shape, t), nu, t)
    return cx * J_X + cy * J_Y + cz * J_Z
