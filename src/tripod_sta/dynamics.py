"""Time evolution: segmented unitary propagation and Lindblad dephasing.

The protocol has two half-segments joined at t_gate/2, where the a-e
envelope vanishes, its phase jumps and the envelope derivatives kink.  The
envelopes are even about t_gate/2, so on the second half H(t) =
V H(t_gate - t) V^dag, V = diag(1, 1, e^{i gamma0}, 1): both paths integrate
the first half alone.

The closed path (propagate_unitary_batch) solves an exact SU(2) problem by
Richardson-extrapolated doubling of fourth-order Magnus steps, in lockstep
for a batch of protocols that share each step count and its field calls (the
first four counts one pass), each member bit for bit what it gets alone; the
second half's propagator is the transpose of the first's.

The Lindblad path steps the adaptive Dormand-Prince 8(5,3) qmath.ode_solve
in scaled time tau = t/t_gate on [0, 1/2].  The dephasing -W*rho commutes
with diagonal-unitary conjugation and with complex conjugation, so the
second half's map is Phi_2 = (M Phi_1 M)^dag (Hilbert-Schmidt adjoint), Phi_1
the first half's, with the involution M(X) = V Q X^* Q^dag V^dag and
Q = diag(1, e^{2i beta}, 1, 1) (complex conjugation where the coupling is
real).  One solve integrates a stack of members, each with its own gate time
and amplitude scale, packed as 16 real floats, on one shared mesh whose
steps meet the error criterion over the whole stack, not that of each member.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .controls import ControlParams, EnvelopeSet, Flavor, PulseShape, _gap_sq, _satd_correction, _satd_reshape
from .qmath import (
    IntegratorConfig, NumericalError, OdeStepUnderflow, hermitize, magnus_su2, max_abs, ode_solve, unitarity_defect,
)
from .tripod import _coupling, field_constants, half_segment_field, lab_operator

# Magnus step counts per half-segment: doubling starts at the smallest and
# raises NumericalError past the largest.
MAGNUS_MIN_STEPS = 8
MAGNUS_MAX_STEPS = 2**21
# Doubling levels that the first Magnus pass computes at once, from MAGNUS_MIN_STEPS.
FIRST_PASS_LEVELS = 4
# Doubling estimates at or below this are roundoff (measured plateau about
# 1e-15): there, a doubling that fails to shrink the estimate ends the
# refinement.  Above it a rising estimate is the pre-asymptotic range (SATD at
# t_g = 1e-6 cycles rises up to N = 1024 before it falls).
ROUNDOFF_ESTIMATE = 1e-12
# Roundoff that U^dag U - I may carry on top of 10*rel_tol: the longest
# products step doubling reaches (2^20 steps per half-segment, SATD at
# t_g = 1e-6 cycles and rel_tol 1e-300) measured 7e-13.
UNITARITY_ROUNDOFF = 1e-10
# Roundoff that the minimum eigenvalue of a checked density matrix (a half-time
# image, one rebuilt from them, or a final state) may carry below -10*rel_tol.
# Measured worst case over both flavors, t_g 0.5-10 cycles, four dephasing sets
# and amplitude scales 0.8-1.2: -0.009 to -0.048*rel_tol from rel_tol 1e-3 to
# 1e-12, -1.4e-15 at 1e-14.
POSITIVITY_ROUNDOFF = 1e-10


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

    On the Lindblad path steps_accepted and steps_rejected count the DOP853
    steps of the one first-half-segment solve that all members of a flavor
    share; the second half is not integrated.  On the closed path (a member
    of propagate_unitary_batch) steps_accepted is 2N, N the final Magnus
    step count of the first half-segment (the second's propagator is its
    transpose), and steps_rejected 2(N - MAGNUS_MIN_STEPS), the steps of the
    coarser meshes the doubling discarded.  error_estimate is the first
    half's: |U2(2N) - U2(N)|/15 from the fourth-order rule, the undivided
    |R(2N) - R(N)| of the Richardson values from the Richardson rule.
    """

    final_operator: np.ndarray
    steps_accepted: int
    steps_rejected: int
    unitarity_defect: float | None = None
    trace_defect: float | None = None
    min_eigenvalue: float | None = None
    error_estimate: float | None = None


def _refine_by_doubling(approx, names: list[str], n: int, n_max: int, tol: float, order=None, floors=0.0) -> list:
    """Lockstep doubling of N from n for one member per name: approx(rows, N)
    stacks the approximations of the members rows at N.  A member freezes
    once N reaches its floor and, first, its estimate max|approx(2N) -
    approx(N)|/(2^order - 1) (undivided without an order) is at most tol or
    stops shrinking at or below ROUNDOFF_ESTIMATE: it returns approx(2N); or,
    given the even-power error order of a method, the Richardson values
    R(N) = approx(N) + (approx(N) - approx(N/2))/(2^order - 1) meet
    max|R(2N) - R(N)| <= tol: it returns R(2N), with that difference as its
    estimate.  Returns per member (value, N, estimate), or, for a member
    still refining past n_max, a NumericalError with its name."""
    rows = np.arange(len(names))
    floors = np.broadcast_to(floors, rows.shape)
    divisor = 1.0 if order is None else 2.0**order - 1.0
    value, prev_est = approx(rows, n), np.full(len(names), math.inf)
    extrapolated = None  # R(N) of the refining members, from the second level on
    out: list = [None] * len(names)
    while len(rows):
        if 2 * n > n_max:
            for j, est in zip(rows, prev_est):
                out[j] = NumericalError(f"{names[j]} reached N = {n} with estimate {est:.3e}", int(j))
            break
        finer = approx(rows, 2 * n)
        n *= 2
        step = finer - value
        est = np.max(np.abs(step).reshape(len(rows), -1), axis=1) / divisor
        floor_met = floors[rows] <= n
        done = ((est <= tol) | ((prev_est <= est) & (est <= ROUNDOFF_ESTIMATE))) & floor_met
        for k in np.flatnonzero(done):
            out[rows[k]] = (finer[k], n, float(est[k]))
        if order is not None:
            richer = finer + step / divisor
            if extrapolated is not None:
                ext_est = np.max(np.abs(richer - extrapolated).reshape(len(rows), -1), axis=1)
                converged = (ext_est <= tol) & floor_met & ~done
                for k in np.flatnonzero(converged):
                    out[rows[k]] = (richer[k], n, float(ext_est[k]))
                done |= converged
            extrapolated = richer[~done]
        rows, value, prev_est = rows[~done], finer[~done], est[~done]
    return out


def propagate_unitary_batch(
    params: list[ControlParams], cfg: IntegratorConfig = IntegratorConfig()
) -> list[PropagationResult]:
    """U(t_gate) of i dU/dt = H(t) U from the identity for each protocol of
    params (at least one) on the quintic ramp: one PropagationResult per member.

    A member's first half-segment propagator U2 is the qmath.magnus_su2
    product on tripod.half_segment_field, and the second half's is U2^T by
    the ramp's mirror symmetry; tripod.lab_operator takes both to the lab
    frame.  The first halves refine by _refine_by_doubling at order 4 from
    MAGNUS_MIN_STEPS in lockstep, at tolerance rel_tol + abs_tol per
    half-segment: the first FIRST_PASS_LEVELS levels in one pass, each later
    one in a pass of its own.  An SATD member takes at least 2/u* steps,
    u* = sqrt(omega0*t_g/(60 pi)), the distance from a segment end within
    which nu turns by pi/4.  Each member gets bit for bit what it gets alone.
    A first half still refining past MAGNUS_MAX_STEPS, or a unitarity defect
    above 10*rel_tol + UNITARITY_ROUNDOFF, raises NumericalError with member
    set to the index of the first failing protocol.
    """
    if not params:
        raise ValueError("params must hold at least one protocol")
    constants = field_constants(params)
    spans = np.array([0.5 * p.t_gate for p in params])

    first_pass: dict = {}  # every member at N = n, 2n, 4n and 8n, up to MAGNUS_MAX_STEPS

    def approx(rows, n):
        def field(c, x):
            return half_segment_field(constants[rows[c]], x)

        if not first_pass:
            counts = [n << j for j in range(FIRST_PASS_LEVELS) if j == 0 or n << j <= MAGNUS_MAX_STEPS]
            first_pass.update(zip(counts, magnus_su2(field, spans[rows], counts)))
        return first_pass[n][rows] if n in first_pass else magnus_su2(field, spans[rows], n)

    names = [f"Magnus step doubling on [0, {s:g}]" for s in spans]
    tol = cfg.rel_tol + cfg.abs_tol
    floors = [2.0 * math.sqrt(60.0 * math.pi / (p.omega0 * p.t_gate)) if p.flavor is Flavor.SATD else 0 for p in params]
    halves = _refine_by_doubling(approx, names, MAGNUS_MIN_STEPS, MAGNUS_MAX_STEPS, tol, 4, floors)
    # The members before the first whose doubling failed, if any, reach the lab frame.
    failed = next((j for j, half in enumerate(halves) if isinstance(half, NumericalError)), len(params))
    first = np.array([h[0] for h in halves[:failed]]).reshape(-1, 2, 2)
    us = lab_operator(params[:failed], first, np.swapaxes(first, -1, -2))
    bound = 10.0 * cfg.rel_tol + UNITARITY_ROUNDOFF
    results = []
    for j, (u, defect) in enumerate(zip(us, unitarity_defect(us).tolist())):
        if not defect <= bound:
            raise NumericalError(f"unitarity defect {defect:.3e} exceeds {bound:.3e}", j)
        _, n, est = halves[j]
        steps = (2 * n, 2 * (n - MAGNUS_MIN_STEPS))
        results.append(PropagationResult(u, *steps, defect, error_estimate=est))
    if failed < len(halves):
        raise halves[failed]
    return results


def propagate_unitary(
    params: ControlParams, env: EnvelopeSet, cfg: IntegratorConfig = IntegratorConfig()
) -> PropagationResult:
    """U(t_gate) of i dU/dt = H(t) U from the identity (a batch of one; see
    propagate_unitary_batch).  params must equal env.params."""
    if params != env.params:
        raise ValueError("params and env.params disagree")
    return propagate_unitary_batch([params], cfg)[0]


def _check_density(rhos: np.ndarray) -> None:
    if max_abs(rhos - np.conj(np.swapaxes(rhos, -1, -2))) > 1e-9:
        raise ValueError("rho0 must be Hermitian")
    if np.any(np.abs(np.trace(rhos, axis1=-2, axis2=-1).real - 1.0) > 1e-8):
        raise ValueError("rho0 must have unit trace")
    if float(np.min(np.linalg.eigvalsh(hermitize(rhos)))) < -1e-8:
        raise ValueError("rho0 must be positive semidefinite")


# Packed layout of a Hermitian 4x4 matrix: 16 real floats, its 4 diagonal
# entries, then the real and imaginary parts of its 6 upper off-diagonal ones
# (np.triu_indices order).  A mirror entry has the same real and imaginary
# magnitudes, so the stepper's per-float error norm is that of the full
# matrix's float view.
_UPPER = np.triu_indices(4, 1)


def _pack(rhos: np.ndarray) -> np.ndarray:
    upper = np.ascontiguousarray(rhos[..., _UPPER[0], _UPPER[1]], dtype=complex).view(float)
    return np.concatenate([np.diagonal(rhos, 0, -2, -1).real, upper], axis=-1)


def _unpack(u: np.ndarray) -> np.ndarray:
    """Hermitian 4x4 stack of a packed stack."""
    rhos = np.empty(u.shape[:-1] + (4, 4), dtype=complex)
    upper = np.ascontiguousarray(u[..., 4:]).view(complex)
    rhos[..., range(4), range(4)] = u[..., :4]
    rhos[..., _UPPER[1], _UPPER[0]] = np.conj(upper)
    rhos[..., _UPPER[0], _UPPER[1]] = upper
    return rhos


def _packed_generator(h: np.ndarray) -> np.ndarray:
    """Real (16, 16) matrix G of rho -> -i[h, rho] for a Hermitian h, acting
    as u @ G on a packed stack u."""
    rhos = _unpack(np.eye(16))
    return _pack(-1.0j * (h @ rhos - rhos @ h))


def _lindblad_rhs(terms, noise: NoiseModel, t_gates: np.ndarray):
    # The packed stack u comes in blocks of members, shaped (blocks, m, 16), like
    # t_gates (blocks, m).  terms(taus) gives one generator G_b per block and weights
    # w in u's shape: member i of block b gets w[b, i] * u_i @ G_b plus its dephasing
    # -t_gates[b, i] * W (a weight column broadcast along the rows costs twice as
    # much).  Each call writes into the same two buffers, made once per rhs, so no
    # two solves share them: ode_solve copies each result away.
    damping = _pack(-(1.0 + 1.0j) * noise.dephasing_matrix()) * t_gates[..., None]
    out, product = np.empty_like(damping), np.empty_like(damping)

    def rhs(taus, u):
        generators, weights = terms(taus)
        np.multiply(np.matmul(u, generators, out=out), weights, out=out)
        np.add(out, np.multiply(damping, u, out=product), out=out)
        return out

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


def density_diagnostics(rhos: np.ndarray, rel_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Trace defects and minimum eigenvalues of a stack of density matrices
    (n, 4, 4).  A trace defect above 1e-6 or an eigenvalue below
    -(10*rel_tol + POSITIVITY_ROUNDOFF) raises NumericalError with member set
    to the first failing matrix."""
    trace_defects = np.abs(np.trace(rhos, axis1=-2, axis2=-1).real - 1.0)
    min_eigs = np.min(np.linalg.eigvalsh(rhos), axis=-1)
    bound = 10.0 * rel_tol + POSITIVITY_ROUNDOFF
    bad_trace = trace_defects > 1e-6
    bad = bad_trace | ~(min_eigs >= -bound)
    if np.any(bad):
        i = int(np.argmax(bad))
        if bad_trace[i]:
            raise NumericalError(f"trace defect {trace_defects[i]:.3e} exceeds 1e-6; integration unreliable", i)
        raise NumericalError(f"minimum eigenvalue {min_eigs[i]:.3e} is below -{bound:.3e}", i)
    return trace_defects, min_eigs


def _per_member(name: str, values, default: float, n: int) -> np.ndarray:
    """values as n finite positive floats, one per member (default: all
    default)."""
    values = np.full(n, default) if values is None else np.asarray(values, dtype=float)
    if values.shape != (n,):
        raise ValueError(f"{name} must hold one value per density matrix")
    if not np.all(np.isfinite(values) & (values > 0.0)):
        raise ValueError(f"{name} must be finite and positive")
    return values


def _mirror(params: ControlParams, rhos: np.ndarray) -> np.ndarray:
    """M(rho) = D rho^* D^dag of each matrix, D = V Q = diag(1, e^{2i beta},
    e^{i gamma0}, 1), of the mirror identity (module docstring): an
    involution, its own Hilbert-Schmidt adjoint, positive and trace-keeping."""
    b, g = 2.0 * params.beta, params.gamma0
    d = np.array([1.0, complex(math.cos(b), math.sin(b)), complex(math.cos(g), math.sin(g)), 1.0])
    return d[:, None] * np.conj(rhos) * d.conj()


def _first_half_images(params, env, noise, rho0s, cfg, amp_scales, t_gates, flavors) -> tuple[np.ndarray, tuple]:
    """(Phi_1(rho0s) (len(flavors), n, 4, 4), group_steps) at tau = 1/2 of the
    members of propagate_lindblad_batch, taken as valid, one group per flavor.
    A stalled step names its flavor's first member of the longest gate."""
    groups = len(flavors)
    # Member i's generator is T r a omega0 (f_s G_s + f_c G_c), G_s of the
    # qubit legs and G_c of the a-e leg, (f_s, f_c) = controls._satd_reshape at
    # kappa_T, which depends on T and the flavor alone: a block of m members
    # of one gate time (m the gcd of the gate-time runs) shares a generator.
    m = math.gcd(len(t_gates), *(np.flatnonzero(np.diff(t_gates)) + 1).tolist())
    wt = params.omega0 * t_gates[::m]
    gap_sq = np.array([_gap_sq(flavor, wt) for flavor in flavors])
    weights = np.tile(np.repeat(t_gates * amp_scales * params.omega0 * params.amp_scale, 16), groups).reshape(-1, m, 16)
    legs = ([*env.qubit_weights, 0.0], [0.0, 0.0, 1.0])
    gens = np.stack([_packed_generator(_coupling(rabi)) for rabi in legs]).reshape(2, 256)
    table = np.empty((12, len(weights), 16, 16))  # the generators of the announced times
    rows: dict = {}

    def announce(taus: np.ndarray) -> None:
        # One key per stage, as rhs gets it, each with one time per flavor;
        # stages 11 and 12 share the node 1.  The ramp on floats: its scalar
        # calls, one per time and flavor, cost less than one on an array.
        keys = list(dict.fromkeys(zip(*taus.tolist())))
        theta, d1, d2 = zip(*[PulseShape.ramp(1.0, tau) for key in keys for tau in key])
        angles = np.array([list(map(math.sin, theta)), list(map(math.cos, theta)), d1, d2])
        s, c, d1, d2 = angles.reshape(4, len(keys), groups, 1)
        factors = np.empty((len(keys), groups, 2, len(wt)))
        factors[:, :, 0], factors[:, :, 1] = _satd_reshape(s, c, _satd_correction(d1, d2, gap_sq))
        out = table[: len(keys)].reshape(-1, len(wt), 256)
        np.matmul(factors.reshape(-1, 2, len(wt)).swapaxes(1, 2), gens, out=out)
        rows.clear()
        rows.update((key, i) for i, key in enumerate(keys))

    def terms(taus):
        return table[rows[taus]], weights

    rhs = _lindblad_rhs(terms, noise, np.tile(t_gates, groups).reshape(-1, m))
    y0 = np.tile(_pack(hermitize(rho0s)), (groups, 1)).reshape(weights.shape)
    try:
        res = ode_solve(rhs, y0, 0.0, 0.5, cfg, stage_times=announce, groups=groups)
    except OdeStepUnderflow as exc:
        raise type(exc)(exc.t, "tau", exc.member * len(rho0s) + int(np.argmax(t_gates))) from None
    return _unpack(res.y).reshape(groups, len(rho0s), 4, 4), res.group_steps


def propagate_lindblad_batch(
    params: ControlParams,
    env: EnvelopeSet,
    noise: NoiseModel,
    rho0s: np.ndarray,
    cfg: IntegratorConfig = IntegratorConfig(),
    amp_scales: np.ndarray | None = None,
    t_gates: np.ndarray | None = None,
    flavors: list[Flavor] | None = None,
) -> list[PropagationResult]:
    """Evolve a stack of density matrices (n, 4, 4), n >= 1, under each of
    flavors (default: params.flavor alone) in scaled time tau = t/T with
    per-level pure dephasing: one PropagationResult per member and flavor,
    flavor by flavor.  Member i of flavor f evolves under T*r*H_T(tau) with
    damping T*W, H_T env's Hamiltonian at flavor f and gate time
    T = t_gates[i], r = amp_scales[i] (defaults: env's gate time and 1; each
    finite and positive).  params must equal env.params.

    One solve of the first half-segment takes the 16 packed unit matrices,
    which span the Hermitian 4x4 matrices, at each distinct (T, r) to Phi_1
    as a real 16x16 matrix, one group per flavor on its own mesh, so each
    flavor gets bit for bit a call with it alone.  Each final state is
    Phi_2(Phi_1(rho0)) of the Hermitized rho0, Phi_2 = (M Phi_1 M)^dag by the
    mirror identity (module docstring), exactly Hermitian.  A final trace
    defect beyond 1e-6 or a minimum eigenvalue below -(10*rel_tol +
    POSITIVITY_ROUNDOFF) raises NumericalError with member set to the first
    failing result.  A stalled step (OdeStepUnderflow, OdeStepLimit) gives
    its time as tau and names the result of the first member of the longest
    gate in its flavor, which sets that flavor's mesh.
    """
    if params != env.params:
        raise ValueError("params and env.params disagree")
    rho0s = np.asarray(rho0s, dtype=complex)
    if not len(rho0s):
        raise ValueError("rho0s must hold at least one density matrix")
    _check_density(rho0s)
    amp_scales = _per_member("amp_scales", amp_scales, 1.0, len(rho0s))
    t_gates = _per_member("t_gates", t_gates, params.t_gate, len(rho0s))
    flavors = [params.flavor] if flavors is None else list(flavors)
    if not flavors:
        raise ValueError("flavors must hold at least one flavor")
    keys, index = np.unique(np.stack([t_gates, amp_scales], 1), axis=0, return_inverse=True)
    key_t_gates, key_scales = np.repeat(keys, 16, axis=0).T
    stack = np.tile(_unpack(np.eye(16)), (len(keys), 1, 1))
    try:
        images, steps = _first_half_images(params, env, noise, stack, cfg, key_scales, key_t_gates, flavors)
    except OdeStepUnderflow as exc:
        exc.member = exc.member // len(stack) * len(rho0s) + int(np.argmax(t_gates))
        raise
    # Packed u maps to u @ first, row j of first being Phi_1 of unit j.  A
    # packed float weighs 1 (diagonal) or 2 (upper) in a Hilbert-Schmidt product.
    first, mirror = _pack(images).reshape(len(flavors), len(keys), 16, 16), _pack(_mirror(params, stack[:16]))
    hs = np.repeat([1.0, 2.0], [4, 12])
    second = np.swapaxes(mirror @ first @ mirror, -1, -2) * hs[:, None] / hs
    maps = (first @ second)[:, index.ravel()]
    rhos = _unpack((_pack(hermitize(rho0s))[:, None] @ maps)[..., 0, :]).reshape(-1, 4, 4)
    trace_defects, min_eigs = density_diagnostics(rhos, cfg.rel_tol)
    return [
        PropagationResult(rho, *steps[i // len(rho0s)], trace_defect=float(d), min_eigenvalue=float(e))
        for i, (rho, d, e) in enumerate(zip(rhos, trace_defects, min_eigs))
    ]
