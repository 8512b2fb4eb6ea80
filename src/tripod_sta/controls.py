"""Control-field synthesis for the four-level tripod protocol.

Builds the double-STIRAP mixing angle, the plain (adiabatic) envelope set, the
shortcut-corrected envelope set, the generic single-bright-state dressing, and
amplitude/energy-cost diagnostics.  All evaluators are immutable after
construction and safe to share between sweep workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable

import numpy as np

SQRT2 = math.sqrt(2.0)


class Flavor(Enum):
    ADIABATIC = "adiabatic"
    SATD = "satd"


class GenericDressingSingular(RuntimeError):
    """The single-bright-state dressing angle ran into a pole."""


@dataclass(frozen=True)
class ControlParams:
    """Static pulse parameters for one protocol run.

    omega0 sets the gap scale, (alpha, beta) the rotation axis, gamma0 the
    target geometric phase, t_gate the protocol duration.  amp_scale models a
    mis-calibrated Rabi amplitude: the realized fields are amp_scale times the
    fields designed at the nominal omega0.
    """

    omega0: float
    alpha: float
    beta: float
    gamma0: float
    t_gate: float
    flavor: Flavor = Flavor.ADIABATIC
    amp_scale: float = 1.0

    def __post_init__(self):
        for name in ("omega0", "t_gate", "amp_scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite")
        if not math.isfinite(self.omega0 * self.amp_scale):
            raise ValueError("omega0 * amp_scale must be finite")
        if not 0.0 <= self.alpha <= 0.5 * math.pi:
            raise ValueError("alpha must lie in [0, pi/2]")
        if not 0.0 <= self.beta < 2.0 * math.pi:
            raise ValueError("beta must lie in [0, 2*pi)")
        if not -2.0 * math.pi < self.gamma0 <= 2.0 * math.pi:
            raise ValueError("gamma0 must lie in (-2*pi, 2*pi]")

    def with_amp_scale(self, r: float) -> "ControlParams":
        return replace(self, amp_scale=r)


@dataclass(frozen=True)
class PulseShape:
    """Mixing angle theta of time for a double-STIRAP run of duration t_gate.

    theta ramps 0 -> pi/2 over the first half using the quintic ramp
    P(u) = 6u^5 - 15u^4 + 10u^3 and mirrors back over the second half, so
    theta and its first two derivatives vanish at t = 0, t_gate/2 (for the
    derivatives), and t_gate.
    """

    t_gate: float

    def __post_init__(self):
        if not (math.isfinite(self.t_gate) and self.t_gate > 0.0):
            raise ValueError("t_gate must be positive and finite")

    def __call__(self, t: float | np.ndarray) -> tuple:
        """(theta, theta_dot, theta_ddot) at a float or an array of times in
        [0, t_gate]."""
        return self.ramp(self.t_gate, t)

    @staticmethod
    def ramp(tg, t) -> tuple:
        """(theta, theta_dot, theta_ddot) of the ramp of duration tg at times t.
        Plain arithmetic only, so floats and arrays take the same lines, and a
        (members, 1) column tg evaluates one row of t per member."""
        half = 0.5 * tg
        second = t > half
        u = (t - half * second) / half
        sign = 1.0 - 2.0 * second
        v = u * u * u * (10.0 + u * (-15.0 + 6.0 * u))
        d1 = 30.0 * u * u * (1.0 - u) * (1.0 - u)
        d2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
        theta = 0.5 * math.pi * (second + sign * v)
        return theta, sign * math.pi * d1 / tg, sign * 2.0 * math.pi * d2 / (tg * tg)


def make_pulse_shape(t_gate: float) -> PulseShape:
    return PulseShape(t_gate)


def _satd_correction(d1, d2, gap_sq):
    """SATD envelope correction kappa for ramp derivatives d1, d2: gap_sq is
    omega0^2 in t, or (omega0*t_gate)^2 for the unit-gate ramp in t/t_gate."""
    return 4.0 * d2 / (gap_sq + 4.0 * d1 * d1)


def _gap_sq(flavor: Flavor, w):
    """gap_sq of _satd_correction at the gap w (omega0, or omega0*t_gate for the
    unit-gate ramp), on a float or an array: w^2 for SATD, infinite for the
    adiabatic flavor, where kappa = 0.  Products, so nothing raises OverflowError."""
    return w * w if flavor is Flavor.SATD else w * math.inf


def _satd_reshape(s, c, kappa) -> tuple:
    """SATD profile factors (f_s, f_c) from the adiabatic legs (sin, cos) of theta."""
    return s + kappa * c, c - kappa * s


@lru_cache(maxsize=8)
def _unit_ramp_table(end: float, n: int) -> tuple:
    """Read-only (sin theta, cos theta, theta', theta'') of the unit-gate ramp at n uniform tau in [0, end]."""
    theta, d1, d2 = PulseShape.ramp(1.0, np.linspace(0.0, end, n))
    table = np.sin(theta), np.cos(theta), d1, d2
    for column in table:
        column.flags.writeable = False
    return table


@lru_cache(maxsize=8)
def _simpson_weights(n: int) -> np.ndarray:
    """Read-only composite-Simpson weights 1, 4, 2, ..., 2, 4, 1 of n (odd) uniform points."""
    weights = np.ones(n)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    weights.flags.writeable = False
    return weights


def _peak(table: tuple, alpha: float, gap_sq: float) -> float:
    """Largest of max(cos alpha, sin alpha)*|f_s| and |f_c| on a unit-gate table, gap_sq = (omega0*t_gate)^2."""
    fs, fc = _satd_reshape(table[0], table[1], _satd_correction(table[2], table[3], gap_sq))
    return max(max(math.cos(alpha), math.sin(alpha)) * float(np.max(np.abs(fs))), float(np.max(np.abs(fc))))


def _cost_mean(table: tuple, gap_sq: float, scale: float) -> float:
    """Composite-Simpson mean of scale*sqrt(f_s^2 + f_c^2) = scale*sqrt(1 + kappa^2) on an odd-sized unit-gate table."""
    kappa = _satd_correction(table[2], table[3], gap_sq)
    total = float(np.dot(_simpson_weights(len(kappa)), scale * np.sqrt(1.0 + kappa * kappa)))
    return total * (1.0 / (len(kappa) - 1)) / 3.0


class EnvelopeSet:
    """The three complex control envelopes of one protocol run, on the quintic
    ramp at params.t_gate.  The shape argument is only checked, here and
    nowhere else: it must be the quintic PulseShape (the only shape) of that
    gate time.

    profile(t) gives the factors (f_s, f_c) = _satd_reshape(sin theta,
    cos theta, kappa) by one expression for floats, arrays and both flavors:
    the adiabatic flavor is the infinite gap of _gap_sq, where kappa = +-0 and
    the factors are sin theta and cos theta bit for bit.  evaluate(t) returns
    (Omega_0e, Omega_1e, Omega_ae) at a float or an array of times:
    amp_scale*omega0 times (w0*f_s, w1*f_s, f_c) for the qubit_weights
    (w0, w1).  The relative phase of the a-e leg jumps by gamma0 at t_gate/2
    (the factor phase_jump on the second half); that leg's amplitude and the
    SATD dressing vanish there, so the two half-segments join continuously.
    """

    def __init__(self, params: ControlParams, shape: PulseShape):
        if type(shape) is not PulseShape:
            raise ValueError("the pulse shape must be the quintic PulseShape")
        if abs(params.t_gate - shape.t_gate) > 1e-12 * params.t_gate:
            raise ValueError("params.t_gate and shape.t_gate disagree")
        self.params = params
        p = params
        self.qubit_weights = (math.cos(p.alpha), math.sin(p.alpha) * complex(math.cos(p.beta), math.sin(p.beta)))
        self.phase_jump = complex(math.cos(p.gamma0), math.sin(p.gamma0))

    def profile(self, t: float | np.ndarray) -> tuple:
        """Dimensionless (sin-leg, cos-leg) factors of the two Raman legs at a
        float or an array of times."""
        p = self.params
        th, td, tdd = PulseShape.ramp(p.t_gate, t)
        # Counter-diabatic reshaping, designed at the nominal omega0.
        return _satd_reshape(np.sin(th), np.cos(th), _satd_correction(td, tdd, _gap_sq(p.flavor, p.omega0)))

    def evaluate(self, t: float | np.ndarray) -> tuple:
        p = self.params
        fs, fc = self.profile(t)
        scale = p.amp_scale * p.omega0
        w0, w1 = self.qubit_weights
        # jump ** bool: the jump on the second half only.
        oa = scale * fc * self.phase_jump ** (t >= 0.5 * p.t_gate)
        return scale * w0 * fs, scale * w1 * fs, oa

    @property
    def max_amplitude(self) -> float:
        """Largest single-envelope magnitude, on 4001 points of the first half: magnitudes mirror about t_gate/2."""
        p = self.params
        gap_sq = _gap_sq(p.flavor, p.omega0 * p.t_gate)
        return p.amp_scale * p.omega0 * _peak(_unit_ramp_table(0.5, 4001), p.alpha, gap_sq)


def make_envelopes(params: ControlParams, shape: PulseShape | None = None) -> EnvelopeSet:
    """Envelope set of params' flavor (default shape: the quintic ramp)."""
    return EnvelopeSet(params, make_pulse_shape(params.t_gate) if shape is None else shape)


TimeFunction = Callable[[float | np.ndarray], float | np.ndarray]


@dataclass(frozen=True)
class DressingAngle:
    """A dressing angle evaluator together with its time derivative."""

    angle: TimeFunction
    rate: TimeFunction


def satd_dressing_angle(params: ControlParams, shape: PulseShape) -> DressingAngle:
    """nu(t) = arctan(2*theta_dot/omega0), the transitionless spin dressing."""
    w = params.omega0

    def nu(t):
        return np.arctan2(2.0 * shape(t)[1], w)

    def nu_dot(t):
        _, td, tdd = shape(t)
        return 2.0 * w * tdd / (w * w + 4.0 * td * td)

    return DressingAngle(nu, nu_dot)


def generic_dressing(params: ControlParams, shape: PulseShape, gamma_dot: TimeFunction) -> DressingAngle:
    """Single-bright-state dressing angle mu for the phase rate gamma_dot.

    mu solves mu_dot = sin(2*theta)*gamma_dot/sqrt(2) with mu(0) = 0, by the
    trapezoid rule on 16001 uniform points; the caller checks mu(t_gate) for
    the boundary condition.
    """
    tg = params.t_gate
    ts = np.linspace(0.0, tg, 16001)
    theta, _, _ = shape(ts)
    mu_rate = np.sin(2.0 * theta) * gamma_dot(ts) / SQRT2
    dt = ts[1] - ts[0]
    mu_table = np.concatenate(([0.0], np.cumsum(0.5 * (mu_rate[1:] + mu_rate[:-1]) * dt)))
    if float(np.max(np.abs(mu_table))) >= 0.5 * math.pi - 1e-9:
        raise GenericDressingSingular("generic dressing singular: |mu| reached pi/2")

    def mu(t):
        return np.interp(t, ts, mu_table)

    def mu_dot(t):
        return np.sin(2.0 * shape(t)[0]) * gamma_dot(t) / SQRT2

    return DressingAngle(mu, mu_dot)


def energy_cost(env: EnvelopeSet, params: ControlParams) -> float:
    """Time-averaged operator 2-norm of the control Hamiltonian, whose spectrum is
    {0, 0, +-|Omega|/2}: the mean of |Omega|/2 = 0.5*amp_scale*omega0*sqrt(1 + kappa^2)
    on 1001 points of the unit-gate ramp.  params must equal env.params."""
    if params != env.params:
        raise ValueError("params and env.params disagree")
    gap_sq = _gap_sq(params.flavor, params.omega0 * params.t_gate)
    return _cost_mean(_unit_ramp_table(1.0, 1001), gap_sq, 0.5 * params.amp_scale * params.omega0)


def _interpolated_root(points: list) -> float:
    """x at f = 0 of the inverse quadratic through the three latest points
    (x, f), or of the line through the two latest if f repeats among the
    three; nan if the two latest do not differ in f."""
    if len(points) > 2:
        (x1, f1), (x2, f2), (x3, f3) = points[-3:]
        if f1 != f2 and f1 != f3 and f2 != f3:
            return (
                x1 * f2 * f3 / ((f1 - f2) * (f1 - f3))
                + x2 * f1 * f3 / ((f2 - f1) * (f2 - f3))
                + x3 * f1 * f2 / ((f3 - f1) * (f3 - f2))
            )
    if len(points) > 1 and points[-1][1] != points[-2][1]:
        (x2, f2), (x3, f3) = points[-2:]
        return x3 - f3 * (x3 - x2) / (f3 - f2)
    return math.nan


def _bisect_decreasing(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of a decreasing f with f(lo) > 0 >= f(hi), expanding hi if needed:
    the float that bisection to adjacent floats returns, for fewer calls of f.

    The bracket [lo, hi] keeps f(lo) > 0 >= f(hi).  Inverse quadratic
    interpolation through the three latest points with f != 0 estimates the
    root (an f of exactly 0 carries no slope: the amplitude excess is 0 on
    the whole side above its threshold).  An estimate outside the bracket,
    or one that would not halve the step before last, is replaced by the
    midpoint; an estimate that repeats, having met f = 0, steps back from
    itself, 8 times farther each time.  Once an estimate lies within 16 ulps
    of the latest point, margins of 4 ulps (of hi), 8 times wider on each
    miss, bracket it on both sides.  Bisection then runs until lo and hi are
    adjacent floats, where the midpoint no longer moves the bracket; for an
    f that is monotone in floating point, that pair, and so the result, is
    the one bisection alone reaches.
    """
    xs, points = [], []  # every point evaluated, and those with f != 0

    def probe(x: float) -> float:
        fx = f(x)
        xs.append(x)
        if fx != 0.0:
            points.append((x, fx))
        return fx

    flo, fhi = probe(lo), probe(hi)
    grow = 0
    while fhi > 0.0 and grow < 20:
        lo, flo = hi, fhi
        hi *= 2.0
        fhi = probe(hi)
        grow += 1
    if flo <= 0.0 or fhi > 0.0:
        raise ValueError("bisection bracket not found")
    last, back = None, 0.0
    while hi - lo > 8.0 * math.ulp(hi):
        margin = 4.0 * math.ulp(hi)
        x = _interpolated_root(points)
        if abs(x - points[-1][0]) <= 4.0 * margin:
            x = min(max(x, lo + margin), hi - margin)
            for sign in (1.0, -1.0):
                d = margin
                while lo < x + sign * d < hi:
                    y = x + sign * d
                    above = probe(y) > 0.0
                    lo, hi = (y, hi) if above else (lo, y)
                    if above is (sign < 0.0):
                        break
                    d *= 8.0
            break
        if x == last:
            if not back:
                step, before = abs(x - points[-1][0]), abs(points[-1][0] - points[-2][0])
                back = max(margin, step * min(0.125, step / before)) / 8.0
            back *= 8.0
            x -= back
        else:
            last, back = x, 0.0
        if not lo < x < hi or (not back and len(xs) > 2 and abs(x - xs[-1]) > 0.5 * abs(xs[-2] - xs[-3])):
            x = 0.5 * (lo + hi)
        if probe(x) > 0.0:
            lo = x
        else:
            hi = x
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    return mid


def amplitude_threshold_time(params: ControlParams) -> float:
    """Shortest t_gate whose SATD envelopes stay within the nominal omega0:
    the root of max_amplitude(t_gate) - omega0 at unit amp_scale, bit for bit
    the float of a bisection to adjacent floats, by _bisect_decreasing in
    about 17 evaluations instead of 56.  Each evaluation scans one table of
    the unit-gate ramp in tau = t/t_gate.  Above the threshold the excess is
    exactly 0 (the peak is |f_c(0)| = 1), so only its side below carries slope.
    """
    w = params.omega0
    table = _unit_ramp_table(0.5, 4001)

    def excess(tg: float) -> float:
        return w * _peak(table, params.alpha, _gap_sq(Flavor.SATD, w * tg)) - w

    lo = 0.05 * 2.0 * math.pi / params.omega0
    hi = 4.0 * 2.0 * math.pi / params.omega0
    return _bisect_decreasing(excess, lo, hi)


def cost_threshold_time(params: ControlParams, multiple: float) -> float:
    """t_gate at which the SATD energy cost is multiple*(omega0/2): the root of
    energy_cost's mean, taken over a 501-point unit-gate ramp table, minus
    that target, bit for bit the float of a bisection to adjacent floats, by
    _bisect_decreasing in about 16 evaluations instead of 56."""
    if multiple <= 1.0:
        raise ValueError("multiple must exceed 1 (the adiabatic cost)")
    w = params.omega0
    target = multiple * 0.5 * w
    table = _unit_ramp_table(1.0, 501)

    def excess(tg: float) -> float:
        return _cost_mean(table, _gap_sq(Flavor.SATD, w * tg), 0.5 * w) - target

    lo = 0.02 * 2.0 * math.pi / params.omega0
    hi = 2.0 * 2.0 * math.pi / params.omega0
    return _bisect_decreasing(excess, lo, hi)


def envelope_rows(env: EnvelopeSet, n_samples: int) -> list[tuple[float, ...]]:
    """(t, Re/Im of the three envelopes) rows at uniform sampling."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    ts = np.linspace(0.0, env.params.t_gate, n_samples)
    o0, o1, oa = env.evaluate(ts)
    return list(zip(*(x.tolist() for x in (ts, o0.real, o0.imag, o1.real, o1.imag, oa.real, oa.imag))))
