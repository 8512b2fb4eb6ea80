"""Time evolution: segmented unitary propagation and Lindblad dephasing.

The protocol is always integrated as two half-segments joined at t_gate/2,
where the a-e envelope vanishes and its phase jumps; the split also keeps
the envelope-derivative kink off the interior of a step.

The closed path (propagate_unitary_batch) solves an exact SU(2) problem with
fourth-order Magnus steps and step doubling, run in lockstep for every
half-segment of a whole batch of protocols: the members share each step
count and its vectorized field calls, and each freezes by its own stopping
rule, so it gets bit for bit what it gets alone (propagate_unitary is the
batch of one; the CLI's gate-error sweep is one batch per worker).

The Lindblad path uses the adaptive Dormand-Prince stepper qmath.ode_solve.
It integrates a whole stack of density matrices (the six axial states at every
amplitude scale of a noise-map point) in one shared-mesh solve, each stored as
its packed upper triangle.  The right-hand side of the whole stack is one real
matmul of the packed float view with a 20x20 commutator generator, a linear
combination of a cached basis weighted by the envelope values, so the
diagonal stays exactly real and every unpacked state is exactly Hermitian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .controls import ControlParams, EnvelopeSet
from .qmath import IntegratorConfig, OdeResult, hermitize, magnus_su2, max_abs, ode_solve, unitarity_defect
from .tripod import frame_field, lab_operator

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
    """Integration produced a state outside its conservation tolerances;
    member is the index of the failing member of a batch, if known."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


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
    Dormand-Prince steps.  For the closed path (one member of
    propagate_unitary_batch) steps_accepted counts the Magnus steps of the
    returned product (both half-segments) and steps_rejected those of the
    coarser meshes the step doubling discarded; magnus_steps gives the final
    step count per half-segment and error_estimate the larger half-segment
    estimate |U2(2N) - U2(N)|/15.  Each member's values are those it gets
    alone: the lockstep doubling freezes it by its own rule.
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


def _refine_by_doubling(approx, names: list[str], n: int, n_max: int, tol: float, divisor: float = 1.0) -> list:
    """Lockstep doubling of N from n for one member per name: approx(rows, N)
    stacks the approximations of the members rows at N.  A member is done,
    and frozen, once its estimate max|approx(2N) - approx(N)|/divisor is at
    most tol or stops shrinking at the roundoff plateau.  Returns per member
    (approx(N), N, estimate), or, for a member still refining past n_max, a
    NumericalError with its name."""
    rows = np.arange(len(names))
    value, prev_est = approx(rows, n), np.full(len(names), math.inf)
    out: list = [None] * len(names)
    while len(rows):
        if 2 * n > n_max:
            for j, est in zip(rows, prev_est):
                out[j] = NumericalError(f"{names[j]} reached N = {n} with estimate {est:.3e}", int(j))
            break
        finer = approx(rows, 2 * n)
        n *= 2
        est = np.max(np.abs(finer - value).reshape(len(rows), -1), axis=1) / divisor
        done = (est <= tol) | ((prev_est <= est) & (est <= ROUNDOFF_ESTIMATE))
        for k in np.flatnonzero(done):
            out[rows[k]] = (finer[k], n, float(est[k]))
        rows, value, prev_est = rows[~done], finer[~done], est[~done]
    return out


def propagate_unitary_batch(
    envs: list[EnvelopeSet], cfg: IntegratorConfig = IntegratorConfig()
) -> list[PropagationResult]:
    """U(t_gate) of i dU/dt = H(t) U from the identity for each envelope set
    of envs, H the Hamiltonian of env: one PropagationResult per member.

    On each half-segment the adiabatic-frame Hamiltonian is c(t).J with
    c = tripod.frame_field (|0t> decouples), so the lab operator is
    tripod.lab_operator of U2' and U2'', the SU(2) propagators of
    c(t).sigma/2 over the two halves.  Every half-segment of every member is
    a qmath.magnus_su2 product, and all of them double their step count in
    lockstep, sharing the field calls; each freezes once its own doubling
    estimate is at most rel_tol + abs_tol or reaches the roundoff plateau.
    A half-segment still refining past MAGNUS_MAX_STEPS, or a unitarity
    defect above 10*rel_tol + UNITARITY_ROUNDOFF, raises NumericalError with
    member set to the first failing member.
    """
    # Member 2j is the first half-segment of envs[j], member 2j + 1 the second.
    tgs = np.array([env.params.t_gate for env in envs])
    t0 = np.stack([np.zeros_like(tgs), 0.5 * tgs], -1).ravel()
    t1 = np.stack([0.5 * tgs, tgs], -1).ravel()

    def approx(rows, n):
        def field(chunk, t):
            members = [envs[i // 2] for i in rows[chunk]]
            return frame_field([env.params for env in members], [env.shape for env in members], t)

        return magnus_su2(field, t0[rows], t1[rows], n)

    names = [f"Magnus step doubling on [{a:g}, {b:g}]" for a, b in zip(t0, t1)]
    tol = cfg.rel_tol + cfg.abs_tol
    halves = _refine_by_doubling(approx, names, MAGNUS_MIN_STEPS, MAGNUS_MAX_STEPS, tol, 15.0)
    bound = 10.0 * cfg.rel_tol + UNITARITY_ROUNDOFF
    results = []
    for j, env in enumerate(envs):
        for half in halves[2 * j : 2 * j + 2]:
            if isinstance(half, NumericalError):
                half.member = j
                raise half
        (u1, n1, est1), (u2, n2, est2) = halves[2 * j : 2 * j + 2]
        u = lab_operator(env.params, u1, u2)
        defect = unitarity_defect(u)
        if not defect <= bound:
            raise NumericalError(f"unitarity defect {defect:.3e} exceeds {bound:.3e}", j)
        rejected = n1 + n2 - 2 * MAGNUS_MIN_STEPS
        estimate = max(est1, est2)
        results.append(PropagationResult(u, n1 + n2, rejected, defect, magnus_steps=(n1, n2), error_estimate=estimate))
    return results


def propagate_unitary(
    params: ControlParams, env: EnvelopeSet, cfg: IntegratorConfig = IntegratorConfig()
) -> PropagationResult:
    """U(t_gate) of i dU/dt = H(t) U from the identity (a batch of one; see
    propagate_unitary_batch).  params must equal env.params."""
    if params != env.params:
        raise ValueError("params and env.params disagree")
    return propagate_unitary_batch([env], cfg)[0]


def _check_density(rhos: np.ndarray) -> None:
    if max_abs(rhos - np.conj(np.swapaxes(rhos, -1, -2))) > 1e-9:
        raise ValueError("rho0 must be Hermitian")
    if np.any(np.abs(np.trace(rhos, axis1=-2, axis2=-1).real - 1.0) > 1e-8):
        raise ValueError("rho0 must have unit trace")
    if float(np.min(np.linalg.eigvalsh(hermitize(rhos)))) < -1e-8:
        raise ValueError("rho0 must be positive semidefinite")


# Packed layout of a Hermitian 4x4 matrix: its upper triangle (the 4 diagonal
# and 6 off-diagonal entries) in np.triu_indices order, shape (..., 10).  Each
# off-diagonal entry is stored once; its mirror has the same modulus, so the
# stepper's elementwise error norm is that of the full matrix.
_UPPER = np.triu_indices(4)
# Float-view indices of the imaginary parts of the packed diagonal.
_IMAG_DIAG = 2 * np.flatnonzero(_UPPER[0] == _UPPER[1]) + 1


def _pack(rhos: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(rhos[..., _UPPER[0], _UPPER[1]])


def _unpack(u: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 stack of a packed stack with a real diagonal."""
    rhos = np.empty(u.shape[:-1] + (4, 4), dtype=complex)
    rhos[..., _UPPER[1], _UPPER[0]] = np.conj(u)
    rhos[..., _UPPER[0], _UPPER[1]] = u
    return rhos


def _packed_generator(h: np.ndarray) -> np.ndarray:
    """Real (20, 20) matrix G of rho -> upper(-i[h, rho]) for a Hermitian h,
    acting as r @ G on the float view r of a packed stack.  The rows and
    columns of the imaginary parts of the diagonal are zero."""
    rhos = _unpack(np.eye(20).view(complex))
    g = _pack(-1.0j * (h @ rhos - rhos @ h)).view(float)
    g[_IMAG_DIAG] = 0.0
    g[:, _IMAG_DIAG] = 0.0
    return g


@cache
def _tripod_generator_basis() -> np.ndarray:
    """Read-only (6, 400) flattened _packed_generator of the Hermitian basis
    of the tripod Hamiltonian, ordered like the float view x of
    tripod.hamiltonian's (O_0e, O_1e, O_ae): H(t) has generator x @ basis.
    Built on first use."""
    basis = []
    for j in range(3):
        for unit in (1.0, 1.0j):
            h = np.zeros((4, 4), dtype=complex)
            h[j, 3] = 0.5 * unit
            h[3, j] = np.conj(h[j, 3])
            basis.append(_packed_generator(h).ravel())
    basis = np.array(basis)
    basis.flags.writeable = False
    return basis


def _lindblad_rhs(generator, noise: NoiseModel, amp_scales: np.ndarray):
    # Member i sees amp_scales[i] * H(t), generator(t) the packed generator
    # of H(t): one (n, 20) @ (20, 20) real matmul per stage for the whole
    # stack, with the scale and the dephasing applied elementwise.
    scales = amp_scales[:, None]
    damping = np.repeat(-noise.dephasing_matrix()[_UPPER], 2)

    def rhs(t, u):
        r = u.view(float)
        out = r @ generator(t)
        out *= scales
        out += damping * r
        return out.view(complex)

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
    """Evolve a stack of density matrices (n, 4, 4), n >= 1, through one
    shared adaptive solve with per-level pure dephasing.

    Member i evolves under amp_scales[i] * H(t), H the Hamiltonian of env
    (default: every scale 1; each scale finite and positive); params must
    equal env.params.  The stepper controls the error elementwise, so the
    common mesh is at least as fine as each member needs.  The initial stack
    is Hermitized once and integrated as its packed upper triangle, whose
    diagonal stays exactly real, so every final state is exactly Hermitian.
    A final trace defect beyond 1e-6 or a minimum eigenvalue below
    -(10*rel_tol + POSITIVITY_ROUNDOFF) in any member raises NumericalError.
    """
    if params != env.params:
        raise ValueError("params and env.params disagree")
    rho0s = np.asarray(rho0s, dtype=complex)
    if not len(rho0s):
        raise ValueError("rho0s must hold at least one density matrix")
    _check_density(rho0s)
    amp_scales = np.ones(len(rho0s)) if amp_scales is None else np.asarray(amp_scales, dtype=float)
    if amp_scales.shape != (len(rho0s),):
        raise ValueError("amp_scales must hold one scale per density matrix")
    if not np.all(np.isfinite(amp_scales) & (amp_scales > 0.0)):
        raise ValueError("amp_scales must be finite and positive")
    basis = _tripod_generator_basis()

    def generator(t):
        return (np.array(env.evaluate(t), dtype=complex).view(float) @ basis).reshape(20, 20)

    rhs = _lindblad_rhs(generator, noise, amp_scales)
    res = _two_segment_solve(rhs, _pack(hermitize(rho0s)), params.t_gate, cfg)
    return _density_results(OdeResult(_unpack(res.y), res.steps_accepted, res.steps_rejected), cfg.rel_tol)
