"""Figures of merit: state-averaged gate fidelity, qubit-projected fidelity,
closed-form fidelity predictions, and noisy-map fidelities."""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from .controls import ControlParams, PulseShape, make_envelopes
from .dynamics import NoiseModel, NumericalError, density_diagnostics, propagate_lindblad_batch
from .qmath import IntegratorConfig, gauss_legendre, gauss_legendre_rule
from .tripod import ideal_gate

# Fourth-order Magnus coefficient of the qubit-projected fidelity formula.
QUBIT_FIDELITY_COEFF = 14_745_600
# Most nodes of an amplitude-uncertainty average (an odd count): each adds four
# states to the solve, and building the rule alone takes 0.1-0.5 s at 1023
# nodes and 2.6-4.5 s at 4095 on a 2-vCPU host.
MAX_UNCERTAINTY_NODES = 1023
# Most states one Lindblad solve of nominal_and_uncertainty_avg holds, unless
# a single point needs more: its points are solved in contiguous chunks
# (point_chunks) that depend on the point count, k and the node count alone,
# for a noise-map chunk and a contour coarse grid alike.
# A shared mesh is set by the longest gate of its chunk.  Each accepted step
# meets the combined error criterion over the whole chunk, which a member's
# own solve can fail: stacking can coarsen a member's mesh.  A noise-map of
# both flavors on a 12-point log grid of 1-300 cycles at 21 nodes (84 states per
# point) took 5.2-5.3 s CPU at 256, against 6.4 s at 512 and 6.8-7.1 s at 128
# (one point per solve).
MAX_SOLVE_STATES = 256


def avg_gate_fidelity(o: np.ndarray, d: int):
    """State-averaged fidelity (Tr[O O^dag] + |Tr O|^2) / (d(d+1)) per matrix O.

    O is the overlap operator target^dag @ realized; it need not be unitary
    (projected blocks lose norm to leakage).
    """
    o = np.asarray(o, dtype=complex)
    if o.shape[-2:] != (d, d):
        raise ValueError(f"operator shape {o.shape} does not match d={d}")
    # |Tr O|^2 by scalar abs and power: numpy's array forms round differently.
    trace_sq = np.reshape([abs(tr) ** 2 for tr in np.trace(o, axis1=-2, axis2=-1).ravel()], o.shape[:-2])
    fids = (np.sum(np.abs(o) ** 2, axis=(-2, -1)) + trace_sq) / (d * (d + 1))
    return float(fids) if o.ndim == 2 else fids


def qubit_overlap_operator(target: np.ndarray, realized: np.ndarray) -> np.ndarray:
    """P_q target^dag P_q realized P_q restricted to the qubit block, per pair."""
    return np.swapaxes(target[..., :2, :2].conj(), -1, -2) @ realized[..., :2, :2]


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
    s = 1.0 / math.sqrt(2.0)
    kets = np.array([[s, s], [s, -s], [s, complex(0.0, s)], [s, complex(0.0, -s)], [1.0, 0.0], [0.0, 1.0]])
    out = np.zeros((6, 4, 4), dtype=complex)
    out[:, :2, :2] = kets[:, :, None] * kets[:, None, :].conj()
    return out


AXIAL_QUBIT_STATES = _axial_qubit_states()


def _axial_average(target: np.ndarray, finals) -> np.ndarray:
    """Mean overlap Tr[target rho target^dag final] over each group of six
    final states, the images of AXIAL_QUBIT_STATES in order."""
    rotated = np.einsum("ij,njk,lk->nil", target, AXIAL_QUBIT_STATES[:, :2, :2], target.conj())
    qubit = np.asarray(finals)[:, :2, :2].reshape(-1, 6, 2, 2)
    overlaps = np.trace(rotated @ qubit, axis1=-2, axis2=-1).real
    # Summed over the six images left to right, as a scalar sum would.
    return sum(overlaps.T) / 6.0


# The axial inputs a map solve propagates, as indices into AXIAL_QUBIT_STATES:
# +x, +y, |0> and |1>.  The map is linear, so the images of the other two
# follow: E(-x) = E(|0><0|) + E(|1><1|) - E(+x), and the same for -y.
_SOLVED_AXIAL = [0, 2, 4, 5]


@contextmanager
def _failing_member(group: int, points):
    """Renumber a NumericalError's member, an index into consecutive groups
    of group members, to the entry of points at the index of its group."""
    try:
        yield
    except NumericalError as exc:
        if exc.member is not None:
            exc.member = points[exc.member // group]
        raise


def _point_scales(k: float, n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """(scales, weights): the distinct amplitude scales one point of
    nominal_and_uncertainty_avg solves, the nodes 1 + k*x of the odd n_nodes
    Gauss-Legendre rule with weights w on [-1, 1], so the uniform average over
    the scales [1 - k, 1 + k] is dot(w, f)/2; at k = 0 that is the one scale 1
    with weight 2.  The nominal scale 1 is the middle one: numpy's rule is
    symmetrized, so its middle node is exactly 0."""
    if not (1 <= n_nodes <= MAX_UNCERTAINTY_NODES and n_nodes % 2):
        raise ValueError(f"n_nodes must be odd and lie in [1, {MAX_UNCERTAINTY_NODES}]")
    if k == 0.0:
        return np.ones(1), np.full(1, 2.0)
    nodes, weights = gauss_legendre_rule(n_nodes)
    return 1.0 + k * nodes, weights


def point_chunks(n_points: int, k: float, n_nodes: int) -> list[range]:
    """The solves of nominal_and_uncertainty_avg over n_points points:
    contiguous, nearly equal chunks of range(n_points), each of at most
    MAX_SOLVE_STATES solved states, or of one point."""
    per_point = 4 * len(_point_scales(k, n_nodes)[0])
    count = -(-n_points // max(1, MAX_SOLVE_STATES // per_point))
    return [range(n_points * i // count, n_points * (i + 1) // count) for i in range(count)]


def nominal_and_uncertainty_avg(
    points: list[ControlParams],
    noise: NoiseModel,
    n_nodes: int = 21,
    cfg: IntegratorConfig = IntegratorConfig(),
) -> list[tuple[float, float]]:
    """(nominal, averaged) map fidelity of each protocol of points: the
    six-axial-state average fidelity of its qubit map at params.amp_scale = a
    against the nominal ideal gate, and its uniform average over the Rabi
    amplitude interval [a*omega0(1-k), a*omega0(1+k)] by Gauss-Legendre
    quadrature, node x at the amplitude scale 1 + k*x (the middle node x = 0
    is the nominal map).  The points, at least one, may differ in t_gate and
    flavor alone.

    The points of each flavor are solved in the chunks of point_chunks over
    that flavor's points, in order, each one scaled-time Lindblad solve of
    the four independent axial inputs at every scale of its points; the -x
    and -y images follow by linearity and get the same trace and positivity
    checks.  Chunks of equal gate times (chunk i of each flavor, when the
    flavors share one grid) are one lockstep pass of
    dynamics.propagate_lindblad_batch, each flavor on its own adaptive mesh,
    so every value is bit for bit that of its flavor's points alone.  A
    NumericalError's member is the index of the failing point; the solve
    ties a stalled step to the longest gate of its chunk, which sets its mesh.
    """
    scales, weights = _point_scales(noise.k, n_nodes)
    if not points:
        raise ValueError("points must hold at least one protocol")
    first = points[0]
    if any(replace(p, t_gate=first.t_gate, flavor=first.flavor) != first for p in points):
        raise ValueError("points must differ in t_gate and flavor alone")
    inputs = AXIAL_QUBIT_STATES[_SOLVED_AXIAL]
    per_point = len(inputs) * len(scales)
    by_flavor: dict = {}
    for i, p in enumerate(points):
        by_flavor.setdefault(p.flavor, []).append(i)
    # Gate times of a pass -> the point indices of each of its chunks.
    by_t_gates: dict = {}
    for members in by_flavor.values():
        for chunk in point_chunks(len(members), noise.k, n_nodes):
            ids = [members[j] for j in chunk]
            by_t_gates.setdefault(tuple(points[i].t_gate for i in ids), []).append(ids)
    out: list = [None] * len(points)
    for t_gates, chunks in by_t_gates.items():
        lead = points[chunks[0][0]]
        order = [i for ids in chunks for i in ids]  # the index in points of each solved point, flavor by flavor
        rho0s = np.tile(inputs, (len(t_gates) * len(scales), 1, 1))
        amp_scales = np.tile(np.repeat(scales, len(inputs)), len(t_gates))
        flavors = [points[ids[0]].flavor for ids in chunks]
        with _failing_member(per_point, order):
            results = propagate_lindblad_batch(
                lead, make_envelopes(lead), noise, rho0s, cfg, amp_scales, np.repeat(t_gates, per_point), flavors
            )
        solved = np.stack([res.final_operator for res in results]).reshape(-1, len(inputs), 4, 4)
        plus_x, plus_y, zero, one = np.moveaxis(solved, 1, 0)
        minus_x, minus_y = zero + one - plus_x, zero + one - plus_y
        with _failing_member(2 * len(scales), order):
            density_diagnostics(np.stack([minus_x, minus_y], axis=1).reshape(-1, 4, 4), cfg.rel_tol)
        finals = np.stack([plus_x, minus_x, plus_y, minus_y, zero, one], axis=1).reshape(-1, 4, 4)
        fids = _axial_average(ideal_gate(lead.with_amp_scale(1.0))[:2, :2], finals)
        # Weights sum to 2 on [-1, 1]; uniform density cancels the interval width.
        for i, f in zip(order, fids.reshape(len(order), -1)):
            out[i] = (float(f[len(f) // 2]), float(np.dot(weights, f)) / 2.0)
    return out


def map_fidelity(params: ControlParams, env, noise: NoiseModel, cfg: IntegratorConfig = IntegratorConfig()) -> float:
    """Average fidelity of the realized qubit map against the nominal target:
    the nominal value of nominal_and_uncertainty_avg, from scale 1 alone.
    params must equal env.params."""
    if params != env.params:
        raise ValueError("params and env.params disagree")
    return nominal_and_uncertainty_avg([params], noise, 1, cfg)[0][0]


def map_fidelity_uncertainty_avg(
    params: ControlParams,
    noise: NoiseModel,
    n_nodes: int = 21,
    cfg: IntegratorConfig = IntegratorConfig(),
    shape: PulseShape | None = None,
) -> float:
    """Uniform average of map_fidelity over the Rabi amplitude interval: the
    averaged value of nominal_and_uncertainty_avg.  shape must fit params."""
    make_envelopes(params, shape)
    return nominal_and_uncertainty_avg([params], noise, n_nodes, cfg)[0][1]


def analytic_satd_dephasing_fidelity(
    params: ControlParams,
    shape: PulseShape,
    noise: NoiseModel,
) -> float:
    """First-order map-fidelity prediction for the accelerated gate under
    excited-state dephasing only, by 96-node Gauss-Legendre quadrature."""
    rates = noise.gamma_phi
    if any(g != 0.0 for g in rates[:3]):
        raise ValueError("analytic prediction covers excited-state dephasing only")
    gamma_e = rates[3]
    w2 = params.omega0 * params.omega0

    def frac(t: np.ndarray, power: int) -> np.ndarray:
        td2 = shape(t)[1] ** 2
        return td2 / (w2 + 4.0 * td2) ** power

    i1, i2 = (gauss_legendre(lambda t: frac(t, power), 0.0, 0.5 * params.t_gate, 96) for power in (1, 2))
    return 1.0 - (4.0 / 3.0) * gamma_e * i1 - (8.0 / 3.0) * gamma_e * w2 * i2


def clamp_error(eps: float, floor: float) -> float:
    """Zero out reported errors below the integrator tolerance."""
    return 0.0 if abs(eps) < floor else max(eps, 0.0)
