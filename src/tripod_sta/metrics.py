"""Figures of merit: state-averaged gate fidelity, qubit-projected fidelity,
closed-form fidelity predictions, and noisy-map fidelities."""

from __future__ import annotations

import math

import numpy as np

from .controls import ControlParams, PulseShape, make_envelopes
from .dynamics import NoiseModel, propagate_lindblad_batch
from .qmath import IntegratorConfig, gauss_legendre, gauss_legendre_rule
from .tripod import ideal_gate

# Fourth-order Magnus coefficient of the qubit-projected fidelity formula.
QUBIT_FIDELITY_COEFF = 14_745_600
# Most nodes of an amplitude-uncertainty average: each adds six states to the
# solve, and building the rule alone takes 0.5 s at 1024 nodes, 2.6 s at 4096.
MAX_UNCERTAINTY_NODES = 1024


def avg_gate_fidelity(o: np.ndarray, d: int) -> float:
    """State-averaged fidelity (Tr[O O^dag] + |Tr O|^2) / (d(d+1)).

    O is the overlap operator target^dag @ realized; it need not be unitary
    (projected blocks lose norm to leakage).
    """
    o = np.asarray(o, dtype=complex)
    if o.shape != (d, d):
        raise ValueError(f"operator shape {o.shape} does not match d={d}")
    hs_norm_sq = float(np.sum(np.abs(o) ** 2))
    return (hs_norm_sq + abs(np.trace(o)) ** 2) / (d * (d + 1))


def qubit_overlap_operator(target: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """P_q target^dag P_q realized P_q restricted to the qubit block."""
    return target[:2, :2].conj().T @ realized[:2, :2]


def closed_form_fidelities(params: ControlParams) -> tuple[float, float]:
    """Leading-order predictions (full-space, qubit-projected) for the
    adiabatic flavor with the quintic ramp."""
    x = params.omega0 * params.amp_scale * params.t_gate
    f_full = 1.0 - 40.0 * math.pi**4 / (49.0 * x * x)
    f_qubit = 1.0 + (
        QUBIT_FIDELITY_COEFF
        * math.pi**2
        / x**6
        * (-1.0 + math.cos(0.25 * x) * math.cos(params.gamma0))
        * math.sin(0.125 * x) ** 2
    )
    return f_full, f_qubit


def _axial_qubit_states() -> np.ndarray:
    """The six axial Bloch states of the (|0>, |1>) qubit, embedded in 4x4."""
    ket0 = np.array([1.0, 0.0], dtype=complex)
    ket1 = np.array([0.0, 1.0], dtype=complex)
    kets = [
        (ket0 + ket1) / math.sqrt(2.0),
        (ket0 - ket1) / math.sqrt(2.0),
        (ket0 + 1.0j * ket1) / math.sqrt(2.0),
        (ket0 - 1.0j * ket1) / math.sqrt(2.0),
        ket0,
        ket1,
    ]
    out = np.zeros((6, 4, 4), dtype=complex)
    for i, k in enumerate(kets):
        out[i, :2, :2] = np.outer(k, k.conj())
    return out


AXIAL_QUBIT_STATES = _axial_qubit_states()


def _axial_average(target: np.ndarray, finals) -> np.ndarray:
    """Mean overlap Tr[target rho target^dag final] over each group of six
    final states, the images of AXIAL_QUBIT_STATES in order."""
    rotated = np.einsum("ij,njk,lk->nil", target, AXIAL_QUBIT_STATES[:, :2, :2], target.conj())
    overlaps = [float(np.trace(rotated[i % 6] @ final[:2, :2]).real) for i, final in enumerate(finals)]
    return np.array([sum(overlaps[i : i + 6]) / 6.0 for i in range(0, len(overlaps), 6)])


def _axial_fidelities(params: ControlParams, env, noise: NoiseModel, cfg: IntegratorConfig, scales) -> np.ndarray:
    """Map fidelity for each amplitude scale of scales, relative to env's,
    from a single shared-mesh solve of the six axial states per scale."""
    rho0s = np.tile(AXIAL_QUBIT_STATES, (len(scales), 1, 1))
    target = ideal_gate(params.with_amp_scale(1.0))[:2, :2]
    results = propagate_lindblad_batch(params, env, noise, rho0s, cfg, np.repeat(scales, 6))
    return _axial_average(target, [res.final_operator for res in results])


def _amplitude_nodes(k: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Scales 1 + k*x and weights w of the n-node Gauss-Legendre rule on
    [-1, 1]: the uniform average over the scales [1 - k, 1 + k] is
    dot(w, f)/2.  At k = 0 that is the one scale 1 with weight 2."""
    if not 1 <= n_nodes <= MAX_UNCERTAINTY_NODES:
        raise ValueError(f"n_nodes must lie in [1, {MAX_UNCERTAINTY_NODES}]")
    if k == 0.0:
        return np.ones(1), np.full(1, 2.0)
    nodes, weights = gauss_legendre_rule(n_nodes)
    return 1.0 + k * nodes, weights


def map_fidelity(
    params: ControlParams,
    env,
    noise: NoiseModel,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> float:
    """Average fidelity of the realized qubit map against the nominal target.

    Propagates the six axial qubit states through the Lindblad dynamics of
    env and compares with the ideal gate built at the nominal amplitude (the
    geometric qubit block does not depend on omega0).
    """
    return float(_axial_fidelities(params, env, noise, cfg, [1.0])[0])


def nominal_and_uncertainty_avg(
    params: ControlParams,
    noise: NoiseModel,
    n_nodes: int = 21,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> tuple[float, float]:
    """(nominal, averaged) map fidelity: map_fidelity of the pulses at
    params.amp_scale = a and its uniform average over the Rabi amplitude
    interval [a*omega0(1-k), a*omega0(1+k)] by Gauss-Legendre quadrature.

    Node x realizes the envelopes at params scaled by 1 + k*x (the target
    stays nominal).  The nominal map and all nodes share one Lindblad solve,
    each group of six members with its scale (1, 1 + k*x_1, ...) relative to
    the envelopes built at params.  At k = 0 the only node is the nominal
    map, so the solve holds that one group.
    """
    scales, weights = _amplitude_nodes(noise.k, n_nodes)
    # The nominal scale 1 leads the solve, unless k = 0 made it the one node.
    lead = [1.0] if noise.k else []
    fids = _axial_fidelities(params, make_envelopes(params), noise, cfg, [*lead, *scales])
    # Weights sum to 2 on [-1, 1]; uniform density cancels the interval width.
    return float(fids[0]), float(np.dot(weights, fids[len(lead) :])) / 2.0


def map_fidelity_uncertainty_avg(
    params: ControlParams,
    noise: NoiseModel,
    n_nodes: int = 21,
    cfg: IntegratorConfig = IntegratorConfig(),
    shape: PulseShape | None = None,
) -> float:
    """Uniform average of map_fidelity over the Rabi amplitude interval (the
    averaged value of nominal_and_uncertainty_avg), solving the nodes alone."""
    scales, weights = _amplitude_nodes(noise.k, n_nodes)
    fids = _axial_fidelities(params, make_envelopes(params, shape), noise, cfg, scales)
    return float(np.dot(weights, fids)) / 2.0


def analytic_satd_dephasing_fidelity(
    params: ControlParams,
    shape: PulseShape,
    noise: NoiseModel,
    n_nodes: int = 96,
) -> float:
    """First-order map-fidelity prediction for the accelerated gate under
    excited-state dephasing only."""
    rates = noise.gamma_phi
    if any(g != 0.0 for g in rates[:3]):
        raise ValueError("analytic prediction covers excited-state dephasing only")
    gamma_e = rates[3]
    w2 = params.omega0 * params.omega0

    def frac(t: np.ndarray) -> np.ndarray:
        td2 = shape(t)[1] ** 2
        return td2 / (w2 + 4.0 * td2)

    def frac_sq(t: np.ndarray) -> np.ndarray:
        td2 = shape(t)[1] ** 2
        return td2 / (w2 + 4.0 * td2) ** 2

    half = 0.5 * params.t_gate
    i1 = gauss_legendre(frac, 0.0, half, n_nodes)
    i2 = gauss_legendre(frac_sq, 0.0, half, n_nodes)
    return 1.0 - (4.0 / 3.0) * gamma_e * i1 - (8.0 / 3.0) * gamma_e * w2 * i2


def clamp_error(eps: float, floor: float) -> float:
    """Zero out reported errors below the integrator tolerance."""
    return 0.0 if abs(eps) < floor else max(eps, 0.0)
