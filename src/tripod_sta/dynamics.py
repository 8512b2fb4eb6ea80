"""Time evolution: segmented unitary propagation and Lindblad dephasing.

The protocol is always integrated as two half-segments joined at t_gate/2,
where the a-e envelope vanishes and its phase jumps; the split also keeps
the envelope-derivative kink off the interior of a step.

The closed path (propagate_unitary) solves an exact SU(2) problem with
fourth-order Magnus steps and step doubling; the Lindblad path uses the
adaptive Dormand-Prince stepper qmath.ode_solve.  The Lindblad path
integrates a whole stack of density matrices (the six axial states at every
amplitude scale of a noise-map point) in one shared-mesh solve and forms
each commutator from one matmul rho H, so every state it steps through is
exactly Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlParams, EnvelopeSet
from .qmath import IntegratorConfig, OdeResult, hermitize, magnus_su2, max_abs, ode_solve, unitarity_defect
from .tripod import frame_field, hamiltonian, lab_operator

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
# Roundoff that the minimum eigenvalue of a final density matrix may carry
# below -10*rel_tol.  Measured worst case over both flavors, t_g 0.5-10
# cycles, three dephasing sets and amplitude scales 0.8-1.2: -0.30*rel_tol at
# rel_tol 1e-3, -0.15*rel_tol from 1e-6 to 1e-10, -3e-15 at 1e-14.
POSITIVITY_ROUNDOFF = 1e-10


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


def _two_segment_solve(rhs, y0, t_gate, cfg) -> OdeResult:
    half = 0.5 * t_gate
    first = ode_solve(rhs, y0, 0.0, half, cfg)
    second = ode_solve(rhs, first.y, half, t_gate, cfg)
    return OdeResult(
        second.y,
        first.steps_accepted + second.steps_accepted,
        first.steps_rejected + second.steps_rejected,
    )


def _refine_by_doubling(approx, n: int, n_max: int, tol: float, what: str, divisor: float = 1.0):
    """(approx(N), N, estimate, discarded N): double N from n until the estimate
    max|approx(2N) - approx(N)|/divisor is at most tol, or until it stops
    shrinking at the roundoff plateau; past n_max raise NumericalError."""
    value, discarded, prev_est = approx(n), 0, math.inf
    while True:
        if 2 * n > n_max:
            raise NumericalError(f"{what} reached N = {n} with estimate {prev_est:.3e}")
        finer = approx(2 * n)
        discarded += n
        n *= 2
        est = max_abs(finer - value) / divisor
        if est <= tol or prev_est <= est <= ROUNDOFF_ESTIMATE:
            return finer, n, est, discarded
        value, prev_est = finer, est


def _magnus_half_segment(field, t0: float, t1: float, tol: float) -> tuple[np.ndarray, int, float, int]:
    """(U2, N, |U2(2N) - U2(N)|/15, discarded steps) of the Magnus product on [t0, t1]."""
    what = f"Magnus step doubling on [{t0:g}, {t1:g}]"
    return _refine_by_doubling(
        lambda n: magnus_su2(field, t0, t1, n), MAGNUS_MIN_STEPS, MAGNUS_MAX_STEPS, tol, what, 15.0
    )


def propagate_unitary(
    params: ControlParams, env: EnvelopeSet, cfg: IntegratorConfig = IntegratorConfig()
) -> PropagationResult:
    """U(t_gate) of i dU/dt = H(t) U from the identity, H the Hamiltonian of env.

    On each half-segment the adiabatic-frame Hamiltonian is c(t).J with
    c = tripod.frame_field (|0t> decouples), so the lab operator is
    tripod.lab_operator of U2' and U2'', the SU(2) propagators of
    c(t).sigma/2 over the two halves.  Each U2 is a qmath.magnus_su2 product
    whose step count doubles until the doubling estimate is at most
    rel_tol + abs_tol or reaches the roundoff plateau.
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
    u = lab_operator(params, u1, u2)
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


def _check_density(rhos: np.ndarray) -> None:
    if max_abs(rhos - np.conj(np.swapaxes(rhos, -1, -2))) > 1e-9:
        raise ValueError("rho0 must be Hermitian")
    if np.any(np.abs(np.trace(rhos, axis1=-2, axis2=-1).real - 1.0) > 1e-8):
        raise ValueError("rho0 must have unit trace")
    if float(np.min(np.linalg.eigvalsh(hermitize(rhos)))) < -1e-8:
        raise ValueError("rho0 must be positive semidefinite")


def _lindblad_rhs(env: EnvelopeSet, noise: NoiseModel, amp_scales: np.ndarray | None):
    # Member i sees amp_scales[i] * H(t): one Hamiltonian per stage, with the
    # scale folded into the commutator prefactor (a scalar when all are 1).
    # For Hermitian rho and H, H rho = (rho H)^dag: the whole stack's
    # commutators come from one (n*4, 4) @ (4, 4) matmul, and the result is
    # exactly Hermitian.
    coeff = -1.0j if amp_scales is None else -1.0j * amp_scales[:, None, None]
    damping = noise.dephasing_matrix()

    def rhs(t, rho):
        a = (rho.reshape(-1, 4) @ hamiltonian(env, t)).reshape(rho.shape)
        return coeff * (np.conj(np.swapaxes(a, -1, -2)) - a) - damping * rho

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


def _density_results(res: OdeResult, rel_tol: float) -> list[PropagationResult]:
    """One result per density matrix of the stack res.y, with its trace
    defect and minimum eigenvalue; a trace defect above 1e-6 or an eigenvalue
    below -(10*rel_tol + POSITIVITY_ROUNDOFF) raises NumericalError."""
    trace_defects = np.abs(np.trace(res.y, axis1=-2, axis2=-1).real - 1.0)
    if np.max(trace_defects) > 1e-6:
        raise NumericalError(f"trace defect {np.max(trace_defects):.3e} exceeds 1e-6; integration unreliable")
    min_eigs = np.min(np.linalg.eigvalsh(res.y), axis=-1)
    bound = 10.0 * rel_tol + POSITIVITY_ROUNDOFF
    if not np.min(min_eigs) >= -bound:
        raise NumericalError(f"minimum eigenvalue {np.min(min_eigs):.3e} is below -{bound:.3e}")
    return [
        PropagationResult(rho, res.steps_accepted, res.steps_rejected, trace_defect=float(d), min_eigenvalue=float(e))
        for rho, d, e in zip(res.y, trace_defects, min_eigs)
    ]


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
    needs.  The initial stack is Hermitized once; the right-hand side is
    exactly Hermitian, so every later state is too.  A final trace defect
    beyond 1e-6 or a minimum eigenvalue below -(10*rel_tol +
    POSITIVITY_ROUNDOFF) in any member raises NumericalError.
    """
    rho0s = np.asarray(rho0s, dtype=complex)
    _check_density(rho0s)
    if amp_scales is not None:
        amp_scales = np.asarray(amp_scales, dtype=float)
        if amp_scales.shape != (len(rho0s),):
            raise ValueError("amp_scales must hold one scale per density matrix")
    rhs = _lindblad_rhs(env, noise, amp_scales)
    res = _two_segment_solve(rhs, hermitize(rho0s), params.t_gate, cfg)
    return _density_results(res, cfg.rel_tol)
