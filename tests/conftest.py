"""Shared helpers for the test suite."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import pytest

from tripod_sta.controls import ControlParams, EnvelopeSet, Flavor, PulseShape, _satd_correction, satd_dressing_angle
from tripod_sta.dynamics import MAGNUS_MAX_STEPS, MAGNUS_MIN_STEPS, ROUNDOFF_ESTIMATE
from tripod_sta.oracles import _collapse_vector
from tripod_sta.qmath import IntegratorConfig, OdeResult, OdeStepUnderflow, magnus_su2, max_abs
from tripod_sta.tripod import (
    _dressed, field_constants, frame_change, frame_ends, half_segment_field, hamiltonian, lab_operator,
)

# Units with omega0/(2*pi) = 1: gate times are in cycles, rates in omega0/2pi.
OMEGA0 = 2.0 * math.pi
SQRT2 = math.sqrt(2.0)

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


def params(cycles, flavor=Flavor.ADIABATIC, gamma0=math.pi, alpha=math.pi / 4, beta=0.0, amp_scale=1.0):
    return ControlParams(OMEGA0, alpha, beta, gamma0, cycles, flavor, amp_scale)


def frame_at(params: ControlParams, shape: PulseShape, t: float, segment: int | None = None) -> np.ndarray:
    """tripod.frame_change at time t on half-segment 1 or 2, by default the
    one t lies in (segment 2 from t_gate/2 on)."""
    seg = (1 if t < 0.5 * params.t_gate else 2) if segment is None else segment
    return frame_change(params, shape(t)[0], seg == 2)


def frame_field(params: list[ControlParams], t: np.ndarray) -> tuple:
    """tripod.half_segment_field at absolute times: the spin-1 components of
    protocol params[j]'s adiabatic-frame field at the times t[j], t of shape
    (members, n), for an SATD member in the nu-dressed frame; each component
    broadcasts against t.  All from one PulseShape.ramp on a (members, 1)
    t_gate column, with the dressing in closed form."""
    rows = [(p.omega0, p.amp_scale, p.flavor is Flavor.SATD, p.t_gate) for p in params]
    w, r, satd, tg = np.array(rows).T[..., None]
    _, td, tdd = PulseShape.ramp(tg, t)
    half_gap = 0.5 * r * w
    kappa = np.where(satd, _satd_correction(td, tdd, w * w), 0.0)
    c = (half_gap * kappa, td, -half_gap)
    if not satd.any():
        return c
    root = np.sqrt(w * w + 4.0 * td * td)
    dressed_c = (c[0] - 0.5 * w * kappa, (1.0 - r) * w * td / root, -(r * w * w + 4.0 * td * td) / (2.0 * root))
    return tuple(np.where(satd, d, a) for d, a in zip(dressed_c, c))


def undressed_frame_field(params: ControlParams, t):
    """The adiabatic-frame field (c_x, c_y, c_z) = (r*omega0*kappa/2,
    theta_dot, -r*omega0/2) of one protocol at the times t, with kappa =
    controls._satd_correction (0 for the adiabatic flavor): frame_field
    before the nu-dressing of an SATD member."""
    w, r = params.omega0, params.amp_scale
    _, td, tdd = PulseShape.ramp(params.t_gate, t)
    kappa = _satd_correction(td, tdd, w * w) if params.flavor is Flavor.SATD else 0.0
    return 0.5 * r * w * kappa, td, -0.5 * r * w


def frame_field_at(params: ControlParams, t: float) -> tuple[float, float, float]:
    """undressed_frame_field of one protocol at one time t."""
    return tuple(float(c) for c in undressed_frame_field(params, float(t)))


def fourth_order_unitary(params: ControlParams, cfg: IntegratorConfig) -> tuple[np.ndarray, tuple[int, int]]:
    """Lab-frame U(t_gate) and the step count per half-segment of
    dynamics.propagate_unitary under the fourth-order doubling rule alone:
    each half doubles N from MAGNUS_MIN_STEPS and returns U(2N) once
    max|U(2N) - U(N)|/15 is at most rel_tol + abs_tol or stops shrinking at
    ROUNDOFF_ESTIMATE, with 2N at or above the SATD floor 2/u*.  The first
    half steps on tripod.half_segment_field; the second is integrated on its
    own, on frame_field at the absolute times t = t_gate*(1 + x)/2, never
    through the mirror that dynamics uses."""
    tol = cfg.rel_tol + cfg.abs_tol
    satd = params.flavor is Flavor.SATD
    floor = 2.0 * math.sqrt(60.0 * math.pi / (params.omega0 * params.t_gate)) if satd else 0.0
    span = np.array([0.5 * params.t_gate])
    halves = []
    for field in (
        lambda rows, x: half_segment_field(field_constants([params]), x),
        lambda rows, x: frame_field([params], span[:, None] * (1.0 + x)),
    ):

        def at(n: int) -> np.ndarray:
            return magnus_su2(field, span, n)[0]

        n, u, prev = MAGNUS_MIN_STEPS, at(MAGNUS_MIN_STEPS), math.inf
        while True:
            assert n < MAGNUS_MAX_STEPS, "the reference doubling did not converge"
            finer, n = at(2 * n), 2 * n
            est = max_abs(finer - u) / 15.0
            if n >= floor and (est <= tol or prev <= est <= ROUNDOFF_ESTIMATE):
                break
            u, prev = finer, est
        halves.append((finer, n))
    (first, n1), (second, n2) = halves
    return lab_operator([params], first[None], second[None])[0], (n1, n2)


# Pauli matrices, for reading rotation axes out of 2x2 blocks.
SIGMA = (
    np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
)


def max_amplitude_reference(env: EnvelopeSet) -> float:
    """EnvelopeSet.max_amplitude in physical time: the largest envelope
    magnitude over the profile at 4001 points of [0, t_gate/2], as the
    magnitudes are mirror-symmetric about t_gate/2."""
    p = env.params
    fs, fc = env.profile(np.linspace(0.0, 0.5 * p.t_gate, 4001))
    qmax = max(math.cos(p.alpha), math.sin(p.alpha))
    return p.amp_scale * p.omega0 * max(float(np.max(np.abs(fs))) * qmax, float(np.max(np.abs(fc))))


def energy_cost_reference(env: EnvelopeSet, n: int = 1001) -> float:
    """controls.energy_cost in physical time: the composite-Simpson mean of
    0.5*amp_scale*omega0*sqrt(f_s^2 + f_c^2) over n (odd) points of [0, t_gate]."""
    p = env.params
    fs, fc = env.profile(np.linspace(0.0, p.t_gate, n))
    vals = 0.5 * p.amp_scale * p.omega0 * np.sqrt(fs * fs + fc * fc)
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.dot(weights, vals)) * (p.t_gate / (n - 1)) / 3.0 / p.t_gate


def default_antisymmetric_gamma_rate(params: ControlParams) -> Callable[[float], float]:
    """Smooth test profile gamma_dot(t) = (pi*gamma0/t_gate)*sin(2*pi*t/t_gate).

    Antisymmetric about t_gate/2 and normalized so the phase ramps to gamma0
    by mid-protocol.
    """
    tg = params.t_gate
    amp = math.pi * params.gamma0 / tg

    def rate(t: float) -> float:
        return amp * np.sin(2.0 * math.pi * t / tg)

    return rate


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


# Dormand-Prince 5(4) tableau (Dormand & Prince, J. Comput. Appl. Math. 6,
# 19 (1980)); row i of _DP5_A weighs stages 0..i-1.
_DP5_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0)
_DP5_A = tuple(
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
_DP5_B5 = np.array((35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84))
# b5 - b4, including the FSAL stage.
_DP5_E = np.array((71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40))


def dopri5_solve(rhs, y0: np.ndarray, t0: float, t1: float, cfg: IntegratorConfig, stage_times=None) -> OdeResult:
    """Reference integrator, independent of qmath.ode_solve: the adaptive
    Dormand-Prince 5(4) stepper with the same elementwise error control
    against abs_tol + rel_tol*max(|y|, |y_new|) and FSAL reuse, so a solve
    costs 1 + 6*(accepted + rejected) rhs evaluations.  Like ode_solve it
    integrates in y0's kind: float64 for a real y0, complex128 otherwise,
    and it has ode_solve's calling form at one group: rhs gets the 1-tuple
    of its stage time, and stage_times, if given, is called with the float
    array [[t0]] before the first rhs call and, before each attempted step,
    with the (1, 6) array of its stage times, the exact floats rhs then
    receives, in order."""
    announce = stage_times or (lambda times: None)
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    y = np.array(y0, dtype=float if np.isrealobj(y0) else complex)
    if t1 == t0:
        return OdeResult(y, 0, 0)
    shape = y.shape
    y = y.ravel()
    span = t1 - t0
    t = t0
    ks = np.empty((7, y.size), dtype=y.dtype)
    kf = ks.view(float)
    announce(np.array([[t]]))
    ks[0] = rhs((t,), y.reshape(shape)).ravel()
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
        times = [t + c * h for c in _DP5_C[1:]] + [t + h]
        announce(np.array([times]))
        for i in range(1, 6):
            stage = (yf + (h * _DP5_A[i]) @ kf[:i]).view(y.dtype)
            ks[i] = rhs((times[i - 1],), stage.reshape(shape)).ravel()
        y5 = (yf + (h * _DP5_B5) @ kf[:6]).view(y.dtype)
        ks[6] = rhs((times[5],), y5.reshape(shape)).ravel()  # FSAL stage
        err = ((h * _DP5_E) @ kf).view(y.dtype)
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


def dopri5_unitary(env: EnvelopeSet, cfg: IntegratorConfig) -> np.ndarray:
    """Reference propagator: the lab-frame 4x4 i dU/dt = H(t) U integrated
    with the Dormand-Prince 5(4) reference stepper dopri5_solve, one solve per
    half-segment."""

    def rhs(times, u):
        return -1.0j * (hamiltonian(env, times[0]) @ u)

    half = env.segment_boundary
    first = dopri5_solve(rhs, np.eye(4, dtype=complex), 0.0, half, cfg)
    return dopri5_solve(rhs, first.y, half, env.params.t_gate, cfg).y


def vec(rho: np.ndarray) -> np.ndarray:
    """Column-stacking vectorization, vec(A X B) = (B^T kron A) vec(X)."""
    return np.asarray(rho).flatten(order="F")


def unvec(v: np.ndarray, dim: int = 4) -> np.ndarray:
    return np.asarray(v).reshape((dim, dim), order="F")


def hamiltonian_superoperator(h: np.ndarray) -> np.ndarray:
    """Superoperator of rho -> -i[H, rho] in the column-stacking convention."""
    eye = np.eye(h.shape[0], dtype=complex)
    return 1.0j * (np.kron(h.T, eye) - np.kron(eye, h))


def dissipator_superoperator(l_op: np.ndarray) -> np.ndarray:
    """Superoperator of the single-collapse dissipator
    rho -> L rho L^dag - (1/2){L^dag L, rho}."""
    eye = np.eye(l_op.shape[0], dtype=complex)
    ldl = l_op.conj().T @ l_op
    return np.kron(l_op.conj(), l_op) - 0.5 * np.kron(eye, ldl) - 0.5 * np.kron(ldl.T, eye)


def dressed_frame_hamiltonian(params, nu, t: float) -> np.ndarray:
    """S_nu^dag (S_ad^dag H S_ad - i S_ad^dag dS_ad/dt) S_nu - nu_dot*J_X with
    S_nu = exp(-i*nu*J_X), in frame ordering: the nu-dressed frame_field_at."""
    cx, cy, cz = _dressed(frame_field_at(params, t), nu, t)
    return cx * J_X + cy * J_Y + cz * J_Z


def dopri5_dissipative_superop(params, shape, noise, cfg: IntegratorConfig) -> np.ndarray:
    """Reference for the dissipative oracle: the lab-frame 16x16 map of the
    first-order dissipative Magnus solution, with the dressed-frame
    propagator superoperator and the interaction-picture dissipator integral
    integrated together by the Dormand-Prince 5(4) reference stepper."""
    gamma_e = noise.gamma_phi[3]
    nu = satd_dressing_angle(params, shape)
    tg = params.t_gate
    eye16 = np.eye(16, dtype=complex)

    def segment_map(t0: float, t1: float) -> np.ndarray:
        def rhs(times, y):
            (t,) = times
            prop = y[:, :16]
            ell0 = hamiltonian_superoperator(dressed_frame_hamiltonian(params, nu, t))
            c = _collapse_vector(params, shape, t)
            ell_phi = dissipator_superoperator(math.sqrt(gamma_e) * np.outer(c, c.conj()))
            return np.concatenate([ell0 @ prop, prop.conj().T @ ell_phi @ prop], axis=1)

        y0 = np.concatenate([eye16, np.zeros((16, 16), dtype=complex)], axis=1)
        y = dopri5_solve(rhs, y0, t0, t1, cfg).y
        return y[:, :16] @ (eye16 + y[:, 16:])

    s_out, junction, s_in = frame_ends(params)
    total_dr = segment_map(0.5 * tg, tg) @ np.kron(junction.conj(), junction) @ segment_map(0.0, 0.5 * tg)
    into_frame = np.kron(s_in.conj(), s_in).conj().T
    return np.kron(s_out.conj(), s_out) @ total_dr @ into_frame


def series_expm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by scaled Taylor series; independent of eigh."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.max(np.abs(a)))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ b / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def lindblad_rhs_reference(env: EnvelopeSet, noise, amp_scales: np.ndarray):
    """Reference Lindblad right-hand side on the full (n, 4, 4) stack: member
    i sees amp_scales[i] * H(t).  One Hamiltonian per stage, with the scale
    folded into the commutator prefactor.  For Hermitian rho and H,
    H rho = (rho H)^dag: the whole stack's commutators come from one
    (n*4, 4) @ (4, 4) matmul, and the result is exactly Hermitian."""
    coeff = -1.0j * amp_scales[:, None, None]
    damping = noise.dephasing_matrix()

    def rhs(times, rho):
        a = (rho.reshape(-1, 4) @ hamiltonian(env, times[0])).reshape(rho.shape)
        return coeff * (np.conj(np.swapaxes(a, -1, -2)) - a) - damping * rho

    return rhs


def two_generator_stage_reference(env: EnvelopeSet, noise, amp_scales: np.ndarray, t_gates: np.ndarray, phase):
    """Reference for the packed scaled-time right-hand side of one
    half-segment of dynamics.propagate_lindblad_batch, in per-member form:
    member i's generator is c_i (s G_s + c G_c) + c_i kappa_i (c G_s - s G_c),
    with c_i = T r a omega0 and kappa_i = 4 theta''/((omega0 T)^2 + 4 theta'^2)
    (no second term for the adiabatic flavor), one real matmul per generator
    for the whole stack, each product added to the dephasing -T W * rho."""
    from tripod_sta import dynamics
    from tripod_sta.controls import _satd_correction
    from tripod_sta.tripod import _coupling

    p = env.params
    gens = [dynamics._packed_generator(_coupling(rabi)) for rabi in ([*env.qubit_weights, 0.0], [0.0, 0.0, phase])]
    coeff = (t_gates * amp_scales * p.omega0 * p.amp_scale)[:, None]
    gap_sq = (p.omega0 * t_gates[:, None]) ** 2
    # Zero on the 4 diagonal floats, -W_ij on both floats of each upper entry.
    upper = np.repeat(-noise.dephasing_matrix()[np.triu_indices(4, 1)], 2)
    damping = np.concatenate([np.zeros(4), upper]) * t_gates[:, None]

    def rhs(taus, u):
        theta, d1, d2 = PulseShape.ramp(1.0, taus[0])
        s, c = math.sin(theta), math.cos(theta)
        out = damping * u + (u @ (gens[0] * s + gens[1] * c)) * coeff
        if p.flavor is Flavor.SATD:
            out += (u @ (gens[0] * c - gens[1] * s)) * (coeff * _satd_correction(d1, d2, gap_sq))
        return out

    return rhs


def axial_average_reference(target: np.ndarray, finals) -> np.ndarray:
    """Reference for metrics._axial_average: one 2x2 product and trace per
    final state, each group of six overlaps summed left to right."""
    from tripod_sta.metrics import AXIAL_QUBIT_STATES

    rotated = np.einsum("ij,njk,lk->nil", target, AXIAL_QUBIT_STATES[:, :2, :2], target.conj())
    overlaps = [float(np.trace(rotated[i % 6] @ final[:2, :2]).real) for i, final in enumerate(finals)]
    return np.array([sum(overlaps[i : i + 6]) / 6.0 for i in range(0, len(overlaps), 6)])


def leak_lindblad_rhs(monkeypatch, leak: np.ndarray) -> None:
    """Add the constant Hermitian matrix leak, in the packed layout, to every
    Lindblad right-hand side that tripod_sta.dynamics builds, for forcing
    conservation breaches."""
    from tripod_sta import dynamics

    lindblad_rhs = dynamics._lindblad_rhs
    packed = dynamics._pack(np.asarray(leak, dtype=complex))

    def leaky_rhs(*args):
        rhs = lindblad_rhs(*args)
        return lambda t, u: rhs(t, u) + packed

    monkeypatch.setattr(dynamics, "_lindblad_rhs", leaky_rhs)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return series_expm(-1j * random_hermitian(rng, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
