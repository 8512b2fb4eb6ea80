"""Tripod Hamiltonians, the analytic adiabatic frame, and closed-form target gates.

Lab basis ordering is (|0>, |1>, |a>, |e>); the adiabatic-frame ordering is
(|0t>, |d2>, |b->, |b+>) where |0t> is the decoupled qubit dark state.  All
frames use the analytic eigenbasis, never a numerical eigensolver, so the
gauge is fixed and frame-dependent phases are reproducible bit-for-bit.
"""

from __future__ import annotations

import math

import numpy as np

from .controls import ControlParams, DressingAngle, EnvelopeSet, Flavor, PulseShape, _satd_correction, make_envelopes
from .qmath import gauss_legendre_rule, su2_exponential

SQRT2 = math.sqrt(2.0)


def spin1_image(u: np.ndarray) -> np.ndarray:
    """1 (+) D1(u): the spin-1 image of a 2x2 matrix (or a stack (..., 2, 2))
    on the (d2, b-, b+) triplet, with 1 on |0t>.

    D1 is the symmetric square of u: b- = |m=+1>, d2 = |m=0>, b+ = |m=-1>.
    It is quadratic in the entries and multiplicative, and it maps
    exp(-i g.sigma/2) to exp(-i g.J), with J the spin-1 operators on the
    triplet in frame ordering."""
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


def _coupling(rabi) -> np.ndarray:
    """(1/2)[O_0e|0><e| + O_1e|1><e| + O_ae|a><e| + H.c.] of the Rabi
    frequencies rabi = (O_0e, O_1e, O_ae)."""
    h = np.zeros((4, 4), dtype=complex)
    for j, x in enumerate(rabi):
        h[j, 3] = 0.5 * x
        h[3, j] = 0.5 * x.conjugate()
    return h


def hamiltonian(env: EnvelopeSet, t: float) -> np.ndarray:
    """The tripod coupling of env's Rabi frequencies at time t."""
    return _coupling(env.evaluate(t))


def frame_change(params: ControlParams, theta: float, second_half: bool) -> np.ndarray:
    """Frame-change unitary S_ad at mixing angle theta: its columns are the
    instantaneous eigenbasis (|0t>, |d2>, |b->, |b+>) of the adiabatic flavor,
    |d2> = cos(theta)|1t> - p sin(theta)|a> and
    |b-+> = (-+sin(theta)|1t> -+ p cos(theta)|a> + |e>)/sqrt(2), with
    |1t> = cos(a)|0> + e^{i b} sin(a)|1> the STIRAP-active qubit state.  The
    a-e leg phase p is 1 on the first half-segment and e^{i gamma0} on the
    second."""
    a, b, g = params.alpha, params.beta, params.gamma0
    ph = complex(math.cos(g), math.sin(g)) if second_half else 1.0 + 0.0j
    coupled = np.array([math.cos(a), complex(math.cos(b), math.sin(b)) * math.sin(a), 0.0, 0.0])
    st, ct = math.sin(theta), math.cos(theta)
    s = np.empty((4, 4), dtype=complex)
    s[:, 0] = qubit_dark_state(a, b)
    s[:, 1] = ct * coupled
    s[2, 1] -= ph * st
    for col, sign in ((2, -1), (3, 1)):
        v = sign * st * coupled
        v[2] += sign * ph * ct
        v[3] += 1.0
        s[:, col] = v / SQRT2
    return s


def field_constants(params: list[ControlParams]) -> np.ndarray:
    """Rows (omega0, amp_scale, SATD flag, t_gate) of protocols params, as half_segment_field reads them."""
    return np.array([(p.omega0, p.amp_scale, p.flavor is Flavor.SATD, p.t_gate) for p in params])


def half_segment_field(constants: np.ndarray, x: np.ndarray) -> tuple:
    """Spin-1 components (c_x, c_y, c_z) of the adiabatic-frame Hamiltonian
    S_ad^dag H S_ad - i S_ad^dag dS_ad/dt = c.J of each member, the first
    half-segment of the protocol whose field_constants row is its row of
    constants, at the fractions x of a half-segment, shared by all: the
    unit-gate times tau = x/2.  Each component broadcasts against
    (len(constants), len(x)), all from one PulseShape.ramp(1, tau):
    theta_dot = theta'/t_gate, theta_ddot = theta''/t_gate^2.

    c = (r*omega0*kappa/2, theta_dot, -r*omega0/2) with r = amp_scale and
    kappa = controls._satd_correction at the nominal omega0 (0 for the
    adiabatic flavor, not formed without an SATD member).  |0t> decouples;
    the segmented frame change carries the a-e leg's phase step.
    An SATD member's field is that c _dressed by tan(nu) = 2*theta_dot/omega0,
    in closed form: ((r - 1)*omega0*kappa/2, (1 - r)*omega0*theta_dot/R,
    -(r*omega0^2 + 4*theta_dot^2)/(2R)) with R = sqrt(omega0^2 +
    4*theta_dot^2), the diagonal (0, 0, -R/2) at r = 1.  The second half
    needs no field: the ramp's mirror symmetry about t_gate/2 (theta even
    about tau = 1/2, theta' and nu odd, theta'' and R even) makes its field at
    x the P c(1 - x) of the first, P = diag(1, -1, 1), in either frame.
    """
    w, r, satd, tg = constants.T[..., None]
    _, d1, d2 = PulseShape.ramp(1.0, 0.5 * x)
    td = d1 / tg
    half_gap = 0.5 * r * w
    if not satd.any():
        return 0.0, td, -half_gap
    kappa = _satd_correction(td, d2 / (tg * tg), w * w)
    root = np.sqrt(w * w + 4.0 * td * td)
    dressed = half_gap * kappa - 0.5 * w * kappa, (1.0 - r) * w * td / root, -(r * w * w + 4.0 * td * td) / (2.0 * root)
    return tuple(np.where(satd, d, a) for d, a in zip(dressed, (0.0, td, -half_gap)))


def frame_ends(params: ControlParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(S(0, seg 2), S(pi/2, seg 2)^dag S(pi/2, seg 1), S(0, seg 1)) with S the
    frame_change at a mixing angle: the frame change out of the adiabatic
    frame at t_g, the junction that carries the geometric phase across t_g/2,
    and the frame change at the start.  The pulse shape gives theta exactly
    0, pi/2 and 0 at t = 0, t_g/2 and t_g, so the ends need no shape."""
    mid = 0.5 * math.pi
    return (
        frame_change(params, 0.0, True),
        frame_change(params, mid, True).conj().T @ frame_change(params, mid, False),
        frame_change(params, 0.0, False),
    )


def lab_operator(params: list[ControlParams], first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Lab-frame operators (n, 4, 4) S_out D(second) junction D(first) S_in^dag
    of protocols params whose adiabatic-frame half-segment propagators are
    the spin1_image D of the 2x2 stacks first and second, with (S_out,
    junction, S_in) = frame_ends, built once per distinct (alpha, beta, gamma0)."""
    keys = [(p.alpha, p.beta, p.gamma0) for p in params]
    ends = {key: frame_ends(p) for key, p in dict(zip(keys, params)).items()}
    s_out, junction, s_in = np.array([ends[key] for key in keys]).reshape(-1, 3, 4, 4).swapaxes(0, 1)
    return s_out @ spin1_image(second) @ junction @ spin1_image(first) @ np.swapaxes(s_in.conj(), -1, -2)


def _dressed(c: tuple, nu: DressingAngle, t: float | np.ndarray) -> tuple:
    """Spin components of the field c seen in the frame dressed by
    exp(-i*nu*J_x): a rotation about x by nu, less the nu_dot*J_x it costs."""
    n = nu.angle(t)
    sn, cn = np.sin(n), np.cos(n)
    return c[0] - nu.rate(t), c[1] * cn + c[2] * sn, c[2] * cn - c[1] * sn


def _geometric_gate(params: list[ControlParams], aux_half_angles) -> np.ndarray:
    """Block gates (n, 4, 4) of protocols that share (alpha, beta, gamma0): qubit
    rotation by gamma0 about the (alpha, beta) axis, auxiliary rotation
    parametrized by each accumulated bright-state half angle."""
    if len({(p.alpha, p.beta, p.gamma0) for p in params}) > 1:
        raise ValueError("the protocols must share alpha, beta and gamma0")
    p = params[0]
    g, a2 = p.gamma0, 2.0 * p.alpha
    n = np.array([math.sin(a2) * math.cos(p.beta), math.sin(a2) * math.sin(p.beta), math.cos(a2)])
    x_axes = np.outer(2.0 * np.asarray(aux_half_angles), (1.0, 0.0, 0.0))
    # One stacked call for the qubit and z factors and every x factor.
    factors = su2_exponential(np.concatenate([[g * n, (0.0, 0.0, -g)], x_axes]))
    phase = complex(math.cos(0.5 * g), math.sin(0.5 * g))
    u = np.zeros((len(params), 4, 4), dtype=complex)
    u[:, :2, :2] = phase.conjugate() * factors[0]
    u[:, 2:, 2:] = phase * factors[1] @ factors[2:]
    return u


def ideal_gate(params) -> np.ndarray:
    """Target gate in the adiabatic limit: auxiliary half angle omega0*t_g/2
    (a list of protocols: their stack)."""
    if isinstance(params, ControlParams):
        return ideal_gate([params])[0]
    return _geometric_gate(params, [0.5 * (p.omega0 * p.amp_scale) * p.t_gate for p in params])


def satd_gate(params, shape: PulseShape | None = None) -> np.ndarray:
    """Closed-form gate for the shortcut-corrected protocol (calibrated amp) at
    its satd_bright_half_angle; shape, if given, must be the quintic ramp of
    params.t_gate (a list of protocols: their stack)."""
    if isinstance(params, ControlParams):
        make_envelopes(params, shape)  # checks the shape
        return satd_gate([params])[0]
    return _geometric_gate(params, satd_bright_half_angle(params))


def satd_bright_half_angle(params: list[ControlParams]) -> np.ndarray:
    """Phi = int_0^{t_g/2} sqrt(omega0^2 + 4*theta_dot^2) dt of each protocol
    by 64-node Gauss-Legendre quadrature (half-length and midpoint t_g/4),
    summed left to right as qmath.gauss_legendre sums."""
    x, weights = gauss_legendre_rule(64)
    w, tg = np.array([(p.omega0 * p.amp_scale, p.t_gate) for p in params]).T[..., None]
    quarter = 0.25 * tg
    td = PulseShape.ramp(tg, quarter + quarter * x)[1]
    return quarter[:, 0] * np.cumsum(weights * np.sqrt(w * w + 4.0 * td**2), axis=-1)[:, -1]


def dressed_frame_fields(
    params: ControlParams, shape: PulseShape, nu: DressingAngle, t: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray, float | np.ndarray]:
    """Effective field B, the five non-spin couplings Xi, and the geometric
    phase rate sin^2(theta)*cos^2(nu), all at the nominal omega0, at a float
    or an array of times: B has shape (3,) + t.shape and Xi (5,) + t.shape.

    B is the nu-dressed half_segment_field of the adiabatic flavor at amp_scale 1."""
    th, td, _ = shape(t)
    b = np.array(np.broadcast_arrays(*_dressed((0.0, td, -0.5 * params.omega0), nu, t)))
    n = nu.angle(t)
    sn, cn = np.sin(n), np.cos(n)
    st, ct = np.sin(th), np.cos(th)
    s2t = np.sin(2.0 * th)
    xi = np.array(
        [
            ct * ct + st * st * sn * sn,
            -ct * ct + st * st * sn * sn,
            s2t * sn,
            s2t * cn / SQRT2,
            -st * st * np.sin(2.0 * n) / SQRT2,
        ]
    )
    return b, xi, st * st * cn * cn
