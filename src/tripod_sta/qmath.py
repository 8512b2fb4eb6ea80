"""Dense complex linear algebra, ODE stepping, SU(2) Magnus stepping, and
quadrature at 2x2/4x4 scale, on single matrices and stacks of them.

Everything here operates on plain numpy arrays of complex128 (ode_solve also
on float64).  All functions are pure; nothing keeps internal state, so values
can be shared freely between concurrent sweep workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

class NumericalError(RuntimeError):
    """Integration failed or produced a state outside its conservation
    tolerances; member is the index of the failing member of a batch, if known."""

    def __init__(self, message: str, member: int | None = None):
        super().__init__(message)
        self.member = member


class OdeStepUnderflow(NumericalError):
    """Raised when the adaptive stepper stalls; carries the failure time t,
    which the message names clock (tau on the scaled-time Lindblad path)."""

    stall = "step size underflow"

    def __init__(self, t: float, clock: str = "t", member: int | None = None):
        super().__init__(f"ODE {self.stall} at {clock} = {t!r}", member)
        self.t = t


class OdeStepLimit(OdeStepUnderflow):
    """Raised when a solve reaches ODE_MAX_STEPS attempted steps."""

    stall = "step limit (ODE_MAX_STEPS attempted steps) reached"


# Attempted steps per ode_solve call.  A noise-map half-segment attempts 63k
# at 1e5 cycles and 244k at 4e5 (rel_tol 1e-8), so gates from ~5e5 cycles stop.
ODE_MAX_STEPS = 300_000


# Smallest accepted abs_tol.  Near-zero state elements carry roundoff of
# about 1e-16 relative to the unit-scale ones, so a tighter abs_tol cannot be
# met: the stepper shrinks its steps toward underflow instead of converging.
ABS_TOL_FLOOR = 1e-16


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances of the adaptive Dormand-Prince 8(5,3) stepper in
    :func:`ode_solve`, of the Magnus step doubling in
    dynamics.propagate_unitary_batch and of the node doubling in
    oracles.dissipative_magnus_map.  Both lie below 1: every
    numerical gate or map error lies in [0, 1] and is zeroed below rel_tol
    (the leading-order predictions of metrics.closed_form_fidelities are not
    clamped above).
    abs_tol must be at least ABS_TOL_FLOOR."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if not all(math.isfinite(tol) and tol > 0.0 for tol in (self.rel_tol, self.abs_tol)):
            raise ValueError("rel_tol and abs_tol must be positive and finite")
        for name in ("rel_tol", "abs_tol"):
            if getattr(self, name) >= 1.0:
                raise ValueError(f"{name} must be < 1")
        if self.abs_tol < ABS_TOL_FLOOR:
            raise ValueError(f"abs_tol must be >= {ABS_TOL_FLOOR:g}")


@dataclass
class OdeResult:
    """Final state and step counts of one ode_solve call, summed over its
    groups; group_steps holds each group's (accepted, rejected) pair."""

    y: np.ndarray
    steps_accepted: int
    steps_rejected: int
    group_steps: tuple = ()


def hermitize(m: np.ndarray) -> np.ndarray:
    """(M + M^dag)/2, batched over leading axes."""
    return 0.5 * (m + np.conj(np.swapaxes(m, -1, -2)))


def max_abs(m: np.ndarray) -> float:
    return float(np.max(np.abs(m))) if np.asarray(m).size else 0.0


def unitarity_defect(u: np.ndarray):
    """max-norm of U^dag U - I, or the array of those of a stack (n, d, d)."""
    u = np.asarray(u)
    return np.abs(np.swapaxes(u.conj(), -1, -2) @ u - np.eye(u.shape[-1])).max(axis=(-2, -1))


def _cayley_klein(gx, gy, gz) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with exp(-i g.sigma/2) = [[a, b], [-b*, a*]] for a stack of real
    3-vectors g given by its components: a = cos(|g|/2) - i sin(|g|/2) g_z/|g|,
    b = -sin(|g|/2) (g_y + i g_x)/|g|."""
    angle = np.sqrt(gx * gx + gy * gy + gz * gz)
    # sin(|g|/2)/|g|, finite at g = 0.
    s = 0.5 * np.sinc(angle / (2.0 * math.pi))
    return np.cos(0.5 * angle) - 1.0j * s * gz, -s * (gy + 1.0j * gx)


def _su2_matrix(a, b) -> np.ndarray:
    return np.stack([np.stack([a, b], -1), np.stack([-b.conj(), a.conj()], -1)], -2)


def su2_exponential(g: np.ndarray) -> np.ndarray:
    """exp(-i g.sigma/2) for a stack of real 3-vectors g (..., 3), in closed form."""
    g = np.asarray(g, dtype=float)
    return _su2_matrix(*_cayley_klein(g[..., 0], g[..., 1], g[..., 2]))


def su2_ordered_product(a: np.ndarray, b: np.ndarray, lengths=None) -> tuple:
    """Cayley-Klein pair of U[n-1] ... U[1] U[0] for the SU(2) stack
    U[k] = [[a[..., k], b[..., k]], [-b[..., k]*, a[..., k]*]] along the last
    axis, n >= 1, as a pairwise tree of batched 2x2 products: log2(n)
    vectorized levels.  Leading axes are independent products.  Given
    lengths, the last axis holds stacks of those lengths back to back, and
    one tree returns each one's pair, bit for bit that of its own tree,
    stacked along a new first axis."""
    sizes = [a.shape[-1]] if lengths is None else list(lengths)
    products = []
    while sizes:
        if sizes[0] <= 1:
            products.append((a[..., 0], b[..., 0]))
            a, b, sizes = a[..., 1:], b[..., 1:], sizes[1:]
            continue
        ends = [end for end, size in zip(itertools.accumulate(sizes), sizes) if size % 2]
        if ends:
            a, b = np.insert(a, ends, 1.0, -1), np.insert(b, ends, 0.0, -1)
        sizes = [(size + 1) // 2 for size in sizes]
        a1, a0, b1, b0 = a[..., 1::2], a[..., 0::2], b[..., 1::2], b[..., 0::2]
        a, b = a1 * a0 - b1 * b0.conj(), a1 * b0 + b1 * a0.conj()
    return products[0] if lengths is None else tuple(np.stack(part) for part in zip(*products))


# Two-point Gauss-Legendre nodes of a step [t, t+h]: t + h/2 -+ h*_GL2_OFFSET.
_GL2_OFFSET = math.sqrt(3.0) / 6.0
# Member-steps per vectorized field call of magnus_su2, and steps per block of
# one member: memory stays bounded at any step count and batch size.  It also
# keeps every product of a tree below 12288 elements: from 16384 on, numpy
# 2.4 rounds a complex product of strided row stacks unlike each row alone.
MAGNUS_BLOCK = 4096


def magnus_su2(field: Callable, spans: np.ndarray, n) -> np.ndarray:
    """SU(2) propagators of i dU/dt = (c(t).sigma/2) U over intervals of the
    lengths spans[j] for a stack of M members, each from n uniform
    fourth-order Magnus steps on two Gauss-Legendre nodes (Blanes, Casas,
    Oteo & Ros, Phys. Rep. 470, 151 (2009)): shape (M, 2, 2).  For a
    sequence n of step counts: shape (len(n), M, 2, 2), each count's
    propagators bit for bit those of its own call.

    field(rows, x) maps the member indices rows and the nodes x of m steps as
    fractions of an interval, shared by every member (the m first nodes, then
    the second ones), to the components (c_x, c_y, c_z), each broadcasting
    against (len(rows), 2m).  With c1, c2 at the nodes of a step of length h,
    the step is exp(-i g.sigma/2), g = h(c1+c2)/2 + (sqrt(3) h^2/12) (c2 x c1).
    Each member multiplies blocks of MAGNUS_BLOCK steps; one field call covers
    whole blocks of at most MAGNUS_BLOCK member-steps in all, so a member's
    arithmetic does not depend on the batch it runs in.  Several counts whose
    steps fit one block share its field calls and product tree.
    """
    counts = np.atleast_1d(n)
    total = int(counts.sum())
    if np.ndim(n) and total > MAGNUS_BLOCK:
        return np.array([magnus_su2(field, spans, int(count)) for count in counts])
    spans = np.asarray(spans, dtype=float)
    per_call = max(1, MAGNUS_BLOCK // total)
    # The steps k + 1/2 of every count as fractions of their count: all in one block, or blocks of one count.
    if np.ndim(n):
        columns = [(np.concatenate([np.arange(count) + 0.5 for count in counts]), np.repeat(counts, counts))]
    else:
        columns = [(np.arange(s, min(n, s + MAGNUS_BLOCK)) + 0.5, n) for s in range(0, n, MAGNUS_BLOCK)]
    blocks = []
    for steps, divisor in columns:
        m = len(steps)
        x = np.concatenate([(steps - _GL2_OFFSET) / divisor, (steps + _GL2_OFFSET) / divisor])
        pairs = []
        for first in range(0, len(spans), per_call):
            rows = np.arange(first, min(len(spans), first + per_call))
            hr = spans[rows, None] / divisor
            c = [np.broadcast_to(v, (len(rows), 2 * m)) for v in field(rows, x)]
            (x1, y1, z1), (x2, y2, z2) = [v[:, :m] for v in c], [v[:, m:] for v in c]
            h_mean, h_cross = 0.5 * hr, (math.sqrt(3.0) / 12.0) * hr * hr
            g = (
                h_mean * (x1 + x2) + h_cross * (y2 * z1 - z2 * y1),
                h_mean * (y1 + y2) + h_cross * (z2 * x1 - x2 * z1),
                h_mean * (z1 + z2) + h_cross * (x2 * y1 - y2 * x1),
            )
            pairs.append(su2_ordered_product(*_cayley_klein(*g), counts if np.ndim(n) else None))
        blocks.append([np.concatenate(part, -1) for part in zip(*pairs)])
    return _su2_matrix(*su2_ordered_product(*np.moveaxis(np.array(blocks), 0, -1)))


# Dormand-Prince 8(5,3) pair, the DOP853 constants (Hairer, Norsett & Wanner,
# Solving Ordinary Differential Equations I, 2nd ed., Sec. II.10); row i of
# _DP_A weighs stages 0..i-1, and the last node is the FSAL stage's.
_DP_C = (
    0.0, 0.526001519587677318785587544488e-1, 0.789002279381515978178381316732e-1, 0.118350341907227396726757197510,
    0.281649658092772603273242802490, 0.333333333333333333333333333333, 0.25, 0.307692307692307692307692307692,
    0.651282051282051282051282051282, 0.6, 0.857142857142857142857142857142, 1.0, 1.0,
)
# The nodes of stages 1-12, whose stage times t + c_i*h ode_solve forms as one array.
_DP_NODES = np.array(_DP_C[1:])
_DP_A = (
    (),
    (5.26001519587677318785587544488e-2,),
    (1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2),
    (2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2),
    (
        2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
        9.24834003261792003115737966543e-1,
    ),
    (
        3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
        1.25467687566822425016691814123e-1,
    ),
    (
        3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1, 6.02165389804559606850219397283e-2,
        -1.7578125e-2,
    ),
    (
        3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
        1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
        8.27378916381402288758473766002e-3,
    ),
    (
        6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
        -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
        2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1,
    ),
    (
        4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
        -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
        1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
        -2.03312017085086261358222928593e-2,
    ),
    (
        -9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
        1.09143734899672957818500254654, -8.14978701074692612513997267357, -1.85200656599969598641566180701e1,
        2.27394870993505042818970056734e1, 2.49360555267965238987089396762, -3.0467644718982195003823669022,
    ),
    (
        2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
        -2.00087205822486249909675718444, -1.79589318631187989172765950534e1, 2.79488845294199600508499808837e1,
        -2.85899827713502369474065508674, -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
        6.43392746015763530355970484046e-1,
    ),
)
# Eighth-order weights; the new state is also the FSAL stage's argument.
_DP_B = np.array((
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0, 4.45031289275240888144113950566,
    1.89151789931450038304281599044, -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1, 4.47106157277725905176885569043e-2,
))
# Row i of the (13, 12) stage tableau weighs stages 0..i-1 into the argument
# of stage i: the rows of _DP_A, then _DP_B for the FSAL stage, zero-padded.
_DP_STAGES = np.array([np.pad(row, (0, 12 - len(row))) for row in (*_DP_A, _DP_B)])
# Rows of the fifth-order error estimate (b8 - b5) and the third-order one
# (b8 - bhh, bhh nonzero on stages 0, 8 and 11).
_DP_E = np.array((
    (
        0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0, -0.1225156446376204440720569753e1,
        -0.4957589496572501915214079952, 0.1664377182454986536961530415e1, -0.3503288487499736816886487290,
        0.3341791187130174790297318841, 0.8192320648511571246570742613e-1, -0.2235530786388629525884427845e-1,
    ),
    _DP_B - np.array((
        0.244094488188976377952755905512, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.733846688281611857341361741547, 0.0,
        0.0, 0.220588235294117647058823529412e-1,
    )),
))
# What each step scales by h in one pass: the stage tableau, then the error rows.
_DP_TABLEAU = np.concatenate([_DP_STAGES, _DP_E])


def ode_solve(
    rhs: Callable,
    y0: np.ndarray,
    t0: float,
    t1: float,
    cfg: IntegratorConfig = IntegratorConfig(),
    *,
    stage_times: Callable[[np.ndarray], None] | None = None,
    groups: int = 1,
) -> OdeResult:
    """Integrate dy/dt = rhs(times, y) from t0 to t1 with the adaptive
    Dormand-Prince 8(5,3) stepper (DOP853), in float64 for a real y0 (whose
    rhs must not return a complex array: ValueError at the first that does),
    complex128 for any other.

    y0's first axis holds `groups` independent systems as equal consecutive
    parts (default one), integrated in lockstep: each group has its own t,
    step size, error norm, accept/reject decision and step count, so it gets
    bit for bit its own solve, while the groups share every stage's numpy
    calls and rhs call.  A group that finishes first rides along with h = 0.

    Local error is controlled per entry, real or complex, against
    abs_tol + rel_tol*max(|y|, |y_new|): with e5 and e3 the max norms of the
    scaled fifth- and third-order error estimates, a step is accepted when
    e5^2/sqrt(e5^2 + 0.01*e3^2) <= 1, and the next step size scales with
    that ratio to the power -1/8.  The last stage of an accepted step is the
    first of the next (FSAL): rhs is called 1 + 12*n times, n the attempted
    steps of the group that attempts most.

    rhs gets a tuple of one Python float per group, its stage time, and the
    stage argument in y0's shape: that stage's own row of the solve, a buffer
    it must not keep.  rhs may overwrite the argument with its result and
    return it, which saves a copy; any other array it returns is copied into
    the row before the next call, so it may also return a buffer it reuses.
    The state itself is never handed to rhs.
    stage_times, if given, gets a float array (groups, 1) holding t0 before
    the first stage and (groups, 12) of each group's stage times t + c_i*h
    before the stages of each attempted step: column i is exactly the tuple
    rhs then gets at stage i.

    steps_accepted and steps_rejected sum over the groups, and group_steps
    gives each group's pair.  A group whose step size underflows raises
    OdeStepUnderflow, one that reaches ODE_MAX_STEPS attempts OdeStepLimit,
    each with member set to the group's index.
    """
    if t1 < t0:
        raise ValueError("t1 must be >= t0")
    t0, t1 = float(t0), float(t1)  # numpy endpoints would make every stage time a numpy scalar
    y = np.array(y0, dtype=float if np.isrealobj(y0) else complex)
    if groups < 1 or (groups > 1 and (y.ndim == 0 or len(y) % groups)):
        raise ValueError("groups must be >= 1 and split y0's first axis into equal parts")
    if t1 == t0:
        return OdeResult(y, 0, 0, ((0, 0),) * groups)
    shape, y = y.shape, y.reshape(groups, -1)
    span, size = t1 - t0, y.shape[1]
    announce = stage_times or (lambda times: None)
    ks = np.empty((13, groups, size), dtype=y.dtype)
    # Each stage row in y0's shape, the shape rhs takes and returns.
    k_shaped = [k.reshape(shape) for k in ks]

    def evaluate(times, k):
        # rhs writes its result into the stage row k, or returns one to copy there.
        result = rhs(times, k)
        if result is not k:
            if np.iscomplexobj(result) and not np.iscomplexobj(k):
                raise ValueError("rhs returned a complex array for a real y0")
            k[...] = result

    announce(np.full((groups, 1), t0))
    ks[0] = y
    evaluate((t0,) * groups, k_shaped[0])
    # Crude but safe first step guess; the controller fixes it quickly.
    h = []
    for k0, yg in zip(ks[0], y):
        scale = max_abs(k0)
        guess = 0.01 * (max_abs(yg) + cfg.abs_tol) / scale if scale > 0.0 else span
        h.append(max(min(guess, span), span * 1e-10))

    t, accepted, rejected = [t0] * groups, [0] * groups, [0] * groups
    # Buffers of one step: h times the tableau per group, the new state (the
    # FSAL stage's argument) and its moduli, the tolerance, and the two error
    # estimates per group, complex and scaled by the tolerance.
    hs = np.empty((groups, *_DP_TABLEAU.shape))
    y8, errs = np.empty_like(y), np.empty((groups, 2, size), dtype=y.dtype)
    abs_y, abs_y8, tol, scaled = np.abs(y), np.empty(y.shape), np.empty(y.shape), np.empty(errs.shape)
    yf = y.view(float)[:, None]
    # Per stage i: its rows of hs, the stages it weighs (groups, i, n) and its
    # own row of ks, where its argument is formed, as float (groups, 1, n) and
    # rhs-shaped views made once; then the same for the error estimates.
    k_float = ks.view(float).swapaxes(0, 1)
    stages = [(hs[:, i : i + 1, :i], k_float[:, :i], k_float[:, i : i + 1], k_shaped[i]) for i in range(1, 13)]
    error_weights, error_stages, error_out = hs[:, 13:], k_float[:, :12], errs.view(float)
    while True:
        live = [g for g in range(groups) if t[g] < t1]
        if not live:
            break
        for g in live:
            h[g] = min(h[g], t1 - t[g])
            if h[g] <= max(abs(t[g]), span) * 1e-15:
                raise OdeStepUnderflow(t[g], member=g)
            if accepted[g] + rejected[g] == ODE_MAX_STEPS:
                raise OdeStepLimit(t[g], member=g)
        step = np.array([h[g] if t[g] < t1 else 0.0 for g in range(groups)])[:, None]
        np.multiply(_DP_TABLEAU, step[:, :, None], out=hs)
        times = np.array(t)[:, None] + _DP_NODES * step
        announce(times)
        for ts, (weights, earlier, arg, k) in zip(zip(*times.tolist()), stages):
            np.matmul(weights, earlier, out=arg)
            arg += yf
            if k is k_shaped[12]:
                y8[...] = ks[12]  # the new state, before rhs may overwrite it
            evaluate(ts, k)
        np.matmul(error_weights, error_stages, out=error_out)
        np.abs(y8, out=abs_y8)
        np.maximum(abs_y, abs_y8, out=tol)
        tol *= cfg.rel_tol
        tol += cfg.abs_tol
        np.divide(np.abs(errs, out=scaled), tol[:, None], out=scaled)
        # Floats, so h and every stage time handed to rhs stay numpy-free.
        norms = scaled.max(axis=2).tolist()
        for g in live:
            e5, e3 = norms[g]
            # At e3 = 0 the combined estimate is e5 (and 0/0 when both vanish).
            ratio = e5 * e5 / math.sqrt(e5 * e5 + 0.01 * e3 * e3) if e3 > 0.0 else e5
            if ratio <= 1.0:
                t[g] += h[g]
                accepted[g] += 1
                y[g], abs_y[g], ks[0, g] = y8[g], abs_y8[g], ks[12, g]
            else:
                rejected[g] += 1
            fac = 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.125))
            h[g] *= fac
    return OdeResult(y.reshape(shape), sum(accepted), sum(rejected), tuple(zip(accepted, rejected)))


def gauss_legendre(f: Callable[[np.ndarray], np.ndarray], a: float, b: float, n_nodes: int) -> float:
    """n-node Gauss-Legendre estimate of the integral of f over [a, b], from
    one call of f on the array of all nodes.  The weighted values are summed
    left to right, which a BLAS dot would regroup."""
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    if b < a:
        raise ValueError("b must be >= a")
    if b == a:
        return 0.0
    x, w = gauss_legendre_rule(n_nodes)
    half = 0.5 * (b - a)
    mid = 0.5 * (b + a)
    return float(half * sum((w * f(mid + half * x)).tolist()))


@lru_cache(maxsize=32)
def gauss_legendre_rule(n_nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only nodes and weights of the n-node Gauss-Legendre rule on
    [-1, 1], built once per n."""
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w
