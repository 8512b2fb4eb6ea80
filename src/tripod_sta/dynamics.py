"""Time evolution: segmented unitary propagation and Lindblad dephasing.

The protocol is always integrated as two half-segments joined at t_gate/2,
where the a-e envelope vanishes and its phase jumps; the split also keeps
the envelope-derivative kink off the interior of a step.

The closed path (propagate_unitary) solves an exact SU(2) problem with
fourth-order Magnus steps and step doubling; the Lindblad path and the
dissipative oracle use the adaptive Dormand-Prince stepper qmath.ode_solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlParams, EnvelopeSet
from .qmath import IntegratorConfig, OdeResult, hermitize, magnus_su2, max_abs, ode_solve, unitarity_defect
from .tripod import FrameBasis, frame_field, hamiltonian, spin1_image

# Magnus step counts per half-segment: doubling starts at the smallest and
# raises NumericalError past the largest.
MAGNUS_MIN_STEPS = 8
MAGNUS_MAX_STEPS = 2**21
# Doubling estimates at or below this are roundoff (measured plateau about
# 1e-15): there, a doubling that fails to shrink the estimate ends the
# refinement.  Above it a rising estimate is the pre-asymptotic range (SATD at
# t_g = 1e-6 cycles rises up to N = 1024 before it falls).
ROUNDOFF_ESTIMATE = 1e-12
# Roundoff that U^dag U - I may carry on top of 10*rel_tol: the longest
# products step doubling reaches (2^20 steps per half-segment, SATD at
# t_g = 1e-6 cycles and rel_tol 1e-300) measured 7e-13.
UNITARITY_ROUNDOFF = 1e-10


class NumericalError(RuntimeError):
    """Integration produced a state outside its conservation tolerances."""


@dataclass(frozen=True)
class NoiseModel:
    """Pure-dephasing rates for (|0>, |1>, |a>, |e>) plus the relative
    half-width k of the uniform Rabi-amplitude uncertainty."""

    gamma_phi: tuple[float, float, float, float] = (0.0, 0.0, 0.0, 0.0)
    k: float = 0.0

    def __post_init__(self):
        if len(self.gamma_phi) != 4 or not all(math.isfinite(g) and g >= 0.0 for g in self.gamma_phi):
            raise ValueError("gamma_phi must be four finite nonnegative rates")
        if not 0.0 <= self.k < 1.0:
            raise ValueError("k must lie in [0, 1)")

    def dephasing_matrix(self) -> np.ndarray:
        """Elementwise damping W_ij = (G_i + G_j)/2 for i != j, zero on the
        diagonal; the projector dissipator is exactly -W * rho."""
        g = np.asarray(self.gamma_phi)
        w = 0.5 * (g[:, None] + g[None, :])
        np.fill_diagonal(w, 0.0)
        return w


@dataclass
class PropagationResult:
    """Final operator and diagnostics of one propagation.

    For the adaptive ODE paths steps_accepted and steps_rejected count
    Dormand-Prince steps.  For propagate_unitary steps_accepted counts the
    Magnus steps of the returned product (both half-segments) and
    steps_rejected those of the coarser meshes the step doubling discarded;
    magnus_steps gives the final step count per half-segment and
    error_estimate the larger half-segment estimate |U2(2N) - U2(N)|/15.
    """

    final_operator: np.ndarray
    steps_accepted: int
    steps_rejected: int
    unitarity_defect: float | None = None
    trace_defect: float | None = None
    min_eigenvalue: float | None = None
    magnus_steps: tuple[int, int] | None = None
    error_estimate: float | None = None


def _two_segment_solve(rhs, y0, t_gate, cfg, step_hook=None) -> OdeResult:
    half = 0.5 * t_gate
    first = ode_solve(rhs, y0, 0.0, half, cfg, step_hook)
    second = ode_solve(rhs, first.y, half, t_gate, cfg, step_hook)
    return OdeResult(
        second.y,
        first.steps_accepted + second.steps_accepted,
        first.steps_rejected + second.steps_rejected,
    )


def _magnus_half_segment(field, t0: float, t1: float, tol: float) -> tuple[np.ndarray, int, float, int]:
    """(U2, N, estimate, discarded steps): double N from MAGNUS_MIN_STEPS until
    |U2(2N) - U2(N)|/15 <= tol, or until the estimate stops shrinking at the
    roundoff plateau."""
    n = MAGNUS_MIN_STEPS
    u = magnus_su2(field, t0, t1, n)
    discarded, prev_est = 0, math.inf
    while True:
        if 2 * n > MAGNUS_MAX_STEPS:
            raise NumericalError(
                f"Magnus step doubling reached {n} steps on [{t0:g}, {t1:g}] with estimate {prev_est:.3e}"
            )
        finer = magnus_su2(field, t0, t1, 2 * n)
        discarded += n
        n *= 2
        est = max_abs(finer - u) / 15.0
        if est <= tol or prev_est <= est <= ROUNDOFF_ESTIMATE:
            return finer, n, est, discarded
        u, prev_est = finer, est


def propagate_unitary(
    params: ControlParams, env: EnvelopeSet, cfg: IntegratorConfig = IntegratorConfig()
) -> PropagationResult:
    """U(t_gate) of i dU/dt = H(t) U from the identity, H the Hamiltonian of env.

    On each half-segment the adiabatic-frame Hamiltonian is c(t).J with
    c = tripod.frame_field (|0t> decouples), so the lab operator is
    S(t_g) D(U2'') S(t_g/2, seg 2)^dag S(t_g/2, seg 1) D(U2') S(0)^dag,
    with S the FrameBasis frame change, D = tripod.spin1_image and U2', U2''
    the SU(2) propagators of c(t).sigma/2 over the two halves.  Each U2 is a
    qmath.magnus_su2 product whose step count doubles until the doubling
    estimate is at most rel_tol + abs_tol or reaches the roundoff plateau.
    A unitarity defect above 10*rel_tol + UNITARITY_ROUNDOFF raises
    NumericalError.  params must equal env.params.
    """
    if params != env.params:
        raise ValueError("params and env.params disagree")
    shape = env.shape
    tg = params.t_gate
    half = 0.5 * tg
    tol = cfg.rel_tol + cfg.abs_tol

    def field(t):
        return frame_field(params, shape, t)

    u1, n1, est1, discarded1 = _magnus_half_segment(field, 0.0, half, tol)
    u2, n2, est2, discarded2 = _magnus_half_segment(field, half, tg, tol)
    fb = FrameBasis(params, shape)
    u = (
        fb.s_ad(tg, segment=2) @ spin1_image(u2) @ fb.s_ad(half, segment=2).conj().T
        @ fb.s_ad(half, segment=1) @ spin1_image(u1) @ fb.s_ad(0.0, segment=1).conj().T
    )
    defect = unitarity_defect(u)
    bound = 10.0 * cfg.rel_tol + UNITARITY_ROUNDOFF
    if not defect <= bound:
        raise NumericalError(f"unitarity defect {defect:.3e} exceeds {bound:.3e}")
    return PropagationResult(
        u,
        n1 + n2,
        discarded1 + discarded2,
        unitarity_defect=defect,
        magnus_steps=(n1, n2),
        error_estimate=max(est1, est2),
    )


def _check_density(rho: np.ndarray) -> None:
    if max_abs(rho - rho.conj().T) > 1e-9:
        raise ValueError("rho0 must be Hermitian")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError("rho0 must have unit trace")
    if float(np.min(np.linalg.eigvalsh(hermitize(rho)))) < -1e-8:
        raise ValueError("rho0 must be positive semidefinite")


def _lindblad_rhs(env: EnvelopeSet, noise: NoiseModel, amp_scales: np.ndarray | None):
    # Member i sees amp_scales[i] * H(t): one Hamiltonian per stage, with the
    # scale folded into the commutator prefactor (a scalar when all are 1).
    coeff = -1.0j if amp_scales is None else -1.0j * amp_scales[:, None, None]
    damping = noise.dephasing_matrix()

    def rhs(t, rho):
        h = hamiltonian(env, t)
        return coeff * (h @ rho - rho @ h) - damping * rho

    return rhs


def propagate_lindblad(
    params: ControlParams,
    env: EnvelopeSet,
    noise: NoiseModel,
    rho0: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> PropagationResult:
    """Evolve one density matrix under H(t) with per-level pure dephasing
    (a batch of one; see propagate_lindblad_batch)."""
    return propagate_lindblad_batch(params, env, noise, np.asarray(rho0)[None], cfg)[0]


def _density_result(res: OdeResult) -> PropagationResult:
    rho = res.y
    trace_defect = abs(float(np.trace(rho).real) - 1.0)
    if trace_defect > 1e-6:
        raise NumericalError(f"trace defect {trace_defect:.3e} exceeds 1e-6; integration unreliable")
    min_eig = float(np.min(np.linalg.eigvalsh(rho)))
    return PropagationResult(
        rho,
        res.steps_accepted,
        res.steps_rejected,
        trace_defect=trace_defect,
        min_eigenvalue=min_eig,
    )


def propagate_lindblad_batch(
    params: ControlParams,
    env: EnvelopeSet,
    noise: NoiseModel,
    rho0s: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    amp_scales: np.ndarray | None = None,
) -> list[PropagationResult]:
    """Evolve a stack of density matrices (n, 4, 4) through one shared
    adaptive solve with per-level pure dephasing.

    Member i evolves under amp_scales[i] * H(t), with env built at unit
    amp_scale (default: every scale 1).  The stepper controls the error
    elementwise, so the common mesh is at least as fine as each member
    needs.  States are re-Hermitized after every accepted step; a final
    trace defect beyond 1e-6 in any member raises NumericalError.
    """
    rho0s = np.asarray(rho0s, dtype=complex)
    for rho in rho0s:
        _check_density(rho)
    if amp_scales is not None:
        amp_scales = np.asarray(amp_scales, dtype=float)
        if amp_scales.shape != (len(rho0s),):
            raise ValueError("amp_scales must hold one scale per density matrix")
    rhs = _lindblad_rhs(env, noise, amp_scales)
    res = _two_segment_solve(rhs, rho0s, params.t_gate, cfg, step_hook=hermitize)
    return [_density_result(OdeResult(rho, res.steps_accepted, res.steps_rejected)) for rho in res.y]


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
