"""Time evolution: segmented unitary propagation and Lindblad dephasing.

The protocol is always integrated as two half-segments joined at t_gate/2,
where the a-e envelope vanishes and its phase jumps; forcing a mesh point
there also keeps the envelope-derivative kink off the interior of a step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .controls import ControlParams, EnvelopeSet
from .qmath import IntegratorConfig, OdeResult, hermitize, max_abs, ode_solve, unitarity_defect
from .tripod import hamiltonian


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

    @property
    def is_noiseless(self) -> bool:
        return all(g == 0.0 for g in self.gamma_phi)

    def dephasing_matrix(self) -> np.ndarray:
        """Elementwise damping W_ij = (G_i + G_j)/2 for i != j, zero on the
        diagonal; the projector dissipator is exactly -W * rho."""
        g = np.asarray(self.gamma_phi)
        w = 0.5 * (g[:, None] + g[None, :])
        np.fill_diagonal(w, 0.0)
        return w


class OperatorKind(Enum):
    UNITARY = "unitary"
    DENSITY = "density"


@dataclass
class PropagationResult:
    final_operator: np.ndarray
    kind: OperatorKind
    steps_accepted: int
    steps_rejected: int
    unitarity_defect: float | None = None
    trace_defect: float | None = None
    min_eigenvalue: float | None = None


def _two_segment_solve(rhs, y0, t_gate, cfg, step_hook=None) -> OdeResult:
    half = 0.5 * t_gate
    first = ode_solve(rhs, y0, 0.0, half, cfg, step_hook)
    second = ode_solve(rhs, first.y, half, t_gate, cfg, step_hook)
    return OdeResult(
        second.y,
        first.steps_accepted + second.steps_accepted,
        first.steps_rejected + second.steps_rejected,
    )


def propagate_unitary(
    params: ControlParams, env: EnvelopeSet, cfg: IntegratorConfig = IntegratorConfig()
) -> PropagationResult:
    """Solve i dU/dt = H(t) U over [0, t_gate] starting from the identity."""

    def rhs(t, u):
        return -1.0j * (hamiltonian(env, t) @ u)

    res = _two_segment_solve(rhs, np.eye(4, dtype=complex), params.t_gate, cfg)
    return PropagationResult(
        res.y,
        OperatorKind.UNITARY,
        res.steps_accepted,
        res.steps_rejected,
        unitarity_defect=unitarity_defect(res.y),
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
    if noise.is_noiseless:

        def rhs(t, rho):
            h = hamiltonian(env, t)
            return coeff * (h @ rho - rho @ h)

    else:

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
        OperatorKind.DENSITY,
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
