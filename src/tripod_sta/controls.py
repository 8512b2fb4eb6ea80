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
from functools import cached_property
from typing import Callable

import numpy as np

SQRT2 = math.sqrt(2.0)


class Flavor(Enum):
    ADIABATIC = "adiabatic"
    SATD = "satd"
    GENERIC_DRESSED = "generic"


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
        if not 0.0 <= self.alpha <= 0.5 * math.pi:
            raise ValueError("alpha must lie in [0, pi/2]")
        if not 0.0 <= self.beta < 2.0 * math.pi:
            raise ValueError("beta must lie in [0, 2*pi)")
        if not -2.0 * math.pi < self.gamma0 <= 2.0 * math.pi:
            raise ValueError("gamma0 must lie in (-2*pi, 2*pi]")

    def with_amp_scale(self, r: float) -> "ControlParams":
        return replace(self, amp_scale=r)


def _ramp(u: float) -> float:
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def _ramp_d1(u: float) -> float:
    return 30.0 * u * u * (1.0 - u) * (1.0 - u)


def _ramp_d2(u: float) -> float:
    return 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)


@dataclass(frozen=True)
class PulseShape:
    """Mixing angle theta(t) for a double-STIRAP run of duration t_gate.

    theta ramps 0 -> pi/2 over the first half using the quintic ramp
    P(u) = 6u^5 - 15u^4 + 10u^3 and mirrors back over the second half, so
    theta and its first two derivatives vanish at t = 0, t_gate/2 (for the
    derivatives), and t_gate.
    """

    t_gate: float

    def __post_init__(self):
        if self.t_gate <= 0.0:
            raise ValueError("t_gate must be positive")

    def _u(self, t: float) -> tuple[float, float]:
        """Ramp coordinate in [0, 1] and the mirror sign for derivatives."""
        half = 0.5 * self.t_gate
        if t <= half:
            u = t / half
            sign = 1.0
        else:
            u = (t - half) / half
            sign = -1.0
        return min(max(u, 0.0), 1.0), sign

    def p(self, t: float) -> float:
        """Ramp value P on the first half (mirrored argument on the second)."""
        u, _ = self._u(t)
        return _ramp(u)

    def theta(self, t: float) -> float:
        u, sign = self._u(t)
        v = _ramp(u)
        return 0.5 * math.pi * (v if sign > 0 else 1.0 - v)

    def theta_dot(self, t: float) -> float:
        u, sign = self._u(t)
        return sign * math.pi * _ramp_d1(u) / self.t_gate

    def theta_ddot(self, t: float) -> float:
        u, sign = self._u(t)
        return sign * 2.0 * math.pi * _ramp_d2(u) / (self.t_gate * self.t_gate)

    def grid(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Vectorized (theta, theta_dot, theta_ddot) over an array of times."""
        ts = np.asarray(ts, dtype=float)
        half = 0.5 * self.t_gate
        second = ts > half
        u = np.where(second, ts - half, ts) / half
        u = np.clip(u, 0.0, 1.0)
        v = u**3 * (10.0 + u * (-15.0 + 6.0 * u))
        d1 = 30.0 * u**2 * (1.0 - u) ** 2
        d2 = 60.0 * u * (1.0 - u) * (1.0 - 2.0 * u)
        sign = np.where(second, -1.0, 1.0)
        theta = 0.5 * math.pi * np.where(second, 1.0 - v, v)
        theta_dot = sign * math.pi * d1 / self.t_gate
        theta_ddot = sign * 2.0 * math.pi * d2 / self.t_gate**2
        return theta, theta_dot, theta_ddot


def make_pulse_shape(t_gate: float) -> PulseShape:
    return PulseShape(t_gate)


class EnvelopeSet:
    """The three complex control envelopes of one protocol run.

    evaluate(t) returns (Omega_0e, Omega_1e, Omega_ae).  The relative phase of
    the a-e leg jumps by gamma0 at t_gate/2; that leg's amplitude vanishes
    there, so the two half-segments join continuously.
    """

    def __init__(self, params: ControlParams, shape: PulseShape):
        if abs(params.t_gate - shape.t_gate) > 1e-12 * params.t_gate:
            raise ValueError("params.t_gate and shape.t_gate disagree")
        self.params = params
        self.shape = shape
        p = params
        self._qubit_weights = (math.cos(p.alpha), math.sin(p.alpha) * complex(math.cos(p.beta), math.sin(p.beta)))
        self._phase_jump = complex(math.cos(p.gamma0), math.sin(p.gamma0))

    @property
    def segment_boundary(self) -> float:
        return 0.5 * self.params.t_gate

    def _profile(self, t: float) -> tuple[float, float]:
        """Dimensionless (sin-leg, cos-leg) factors of the two Raman legs."""
        p = self.params
        th = self.shape.theta(t)
        s, c = math.sin(th), math.cos(th)
        if p.flavor is Flavor.ADIABATIC:
            return s, c
        # Counter-diabatic reshaping, designed at the nominal omega0.
        td = self.shape.theta_dot(t)
        tdd = self.shape.theta_ddot(t)
        corr = 4.0 * tdd / (p.omega0 * p.omega0 + 4.0 * td * td)
        return s + c * corr, c - s * corr

    def evaluate(self, t: float) -> tuple[complex, complex, complex]:
        p = self.params
        fs, fc = self._profile(t)
        scale = p.amp_scale * p.omega0
        w0, w1 = self._qubit_weights
        oa = scale * fc
        if t >= self.segment_boundary:
            oa *= self._phase_jump
        return scale * w0 * fs, scale * w1 * fs, oa

    def profile_grid(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized dimensionless profile factors, for scans and export."""
        p = self.params
        theta, td, tdd = self.shape.grid(ts)
        s, c = np.sin(theta), np.cos(theta)
        if p.flavor is Flavor.ADIABATIC:
            return s, c
        corr = 4.0 * tdd / (p.omega0**2 + 4.0 * td**2)
        return s + c * corr, c - s * corr

    @cached_property
    def max_amplitude(self) -> float:
        """Largest single-envelope magnitude over the run (dense scan)."""
        p = self.params
        # Magnitudes are mirror-symmetric about t_gate/2; scan one half.
        ts = np.linspace(0.0, 0.5 * p.t_gate, 4001)
        fs, fc = self.profile_grid(ts)
        qmax = max(math.cos(p.alpha), math.sin(p.alpha))
        peak = max(float(np.max(np.abs(fs))) * qmax, float(np.max(np.abs(fc))))
        return p.amp_scale * p.omega0 * peak

    @cached_property
    def cost(self) -> float:
        return energy_cost(self, self.params)


def adiabatic_envelopes(params: ControlParams, shape: PulseShape) -> EnvelopeSet:
    if params.flavor is not Flavor.ADIABATIC:
        raise ValueError("adiabatic_envelopes requires flavor ADIABATIC")
    return EnvelopeSet(params, shape)


def satd_envelopes(params: ControlParams, shape: PulseShape) -> EnvelopeSet:
    if params.flavor is not Flavor.SATD:
        raise ValueError("satd_envelopes requires flavor SATD")
    # The phase jump at t_gate/2 is only legal if the dressing vanishes there.
    if abs(shape.theta_dot(0.5 * shape.t_gate)) > 1e-10 / shape.t_gate:
        raise ValueError("SATD phase-preservation constraint violated: theta_dot(t_gate/2) != 0")
    return EnvelopeSet(params, shape)


def make_envelopes(params: ControlParams, shape: PulseShape | None = None) -> EnvelopeSet:
    """Flavor-dispatching envelope factory."""
    if shape is None:
        shape = make_pulse_shape(params.t_gate)
    if params.flavor is Flavor.ADIABATIC:
        return adiabatic_envelopes(params, shape)
    if params.flavor is Flavor.SATD:
        return satd_envelopes(params, shape)
    raise ValueError(f"no envelope factory for flavor {params.flavor}")


@dataclass(frozen=True)
class DressingAngle:
    """A dressing angle evaluator together with its time derivative."""

    angle: Callable[[float], float]
    rate: Callable[[float], float]


def satd_dressing_angle(params: ControlParams, shape: PulseShape) -> DressingAngle:
    """nu(t) = arctan(2*theta_dot/omega0), the transitionless spin dressing."""
    w = params.omega0

    def nu(t: float) -> float:
        return math.atan2(2.0 * shape.theta_dot(t), w)

    def nu_dot(t: float) -> float:
        td = shape.theta_dot(t)
        return 2.0 * w * shape.theta_ddot(t) / (w * w + 4.0 * td * td)

    return DressingAngle(nu, nu_dot)


def generic_dressing(
    params: ControlParams,
    shape: PulseShape,
    gamma_dot: Callable[[float], float],
    n_grid: int = 16001,
) -> tuple[DressingAngle, Callable[[float], tuple[float, float, float]]]:
    """Single-bright-state dressing angle mu and its control fields.

    mu solves mu_dot = sin(2*theta)*gamma_dot/sqrt(2) with mu(0) = 0; the
    caller checks mu(t_gate) for the boundary condition.  The W evaluator
    returns (W_x, W_y, W_z); W_z contains a cot(2*mu) term and evaluates to
    +/-inf where mu vanishes while theta still moves.
    """
    tg = params.t_gate
    ts = np.linspace(0.0, tg, n_grid)
    theta, theta_dot, _ = shape.grid(ts)
    gd = np.array([gamma_dot(t) for t in ts])
    mu_rate = np.sin(2.0 * theta) * gd / SQRT2
    dt = ts[1] - ts[0]
    mu_table = np.concatenate(([0.0], np.cumsum(0.5 * (mu_rate[1:] + mu_rate[:-1]) * dt)))
    if float(np.max(np.abs(mu_table))) >= 0.5 * math.pi - 1e-9:
        raise GenericDressingSingular("generic dressing singular: |mu| reached pi/2")

    def mu(t: float) -> float:
        return float(np.interp(t, ts, mu_table))

    def mu_dot(t: float) -> float:
        return math.sin(2.0 * shape.theta(t)) * gamma_dot(t) / SQRT2

    def w_fields(t: float) -> tuple[float, float, float]:
        th = shape.theta(t)
        td = shape.theta_dot(t)
        gdt = gamma_dot(t)
        m = mu(t)
        s2t = math.sin(2.0 * th)
        c2t = math.cos(2.0 * th)
        cm = math.cos(m)
        if abs(cm) < 1e-12:
            raise GenericDressingSingular("generic dressing singular: |mu| reached pi/2")
        wx = s2t * gdt
        wy = SQRT2 * (math.cos(th) ** 2 * math.tan(m) * gdt + SQRT2 * td)
        s2m = math.sin(2.0 * m)
        if s2m == 0.0:
            cot_term = 0.0 if td == 0.0 else math.copysign(math.inf, td)
        else:
            cot_term = 4.0 * SQRT2 * td * math.cos(2.0 * m) / s2m
        wz = -params.omega0 + cot_term + 0.5 * gdt * (1.0 + 5.0 * c2t - 2.0 * math.cos(th) ** 2 / (cm * cm))
        return wx, wy, wz

    return DressingAngle(mu, mu_dot), w_fields


def default_antisymmetric_gamma_rate(params: ControlParams) -> Callable[[float], float]:
    """Smooth test profile gamma_dot(t) = (pi*gamma0/t_gate)*sin(2*pi*t/t_gate).

    Antisymmetric about t_gate/2 and normalized so the phase ramps to gamma0
    by mid-protocol.
    """
    tg = params.t_gate
    amp = math.pi * params.gamma0 / tg

    def rate(t: float) -> float:
        return amp * math.sin(2.0 * math.pi * t / tg)

    return rate


def energy_cost(env: EnvelopeSet, params: ControlParams, n_samples: int = 1001) -> float:
    """Time-averaged operator 2-norm of the control Hamiltonian.

    Composite Simpson over n_samples points.  The tripod Hamiltonian has the
    spectrum {0, 0, +-|Omega|/2} with |Omega|^2 = |O_0e|^2 + |O_1e|^2 + |O_ae|^2,
    so the norm at each sample is 0.5*amp_scale*omega0*sqrt(fs^2 + fc^2) in
    terms of the profile factors.
    """
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError("n_samples must be odd and >= 3")
    tg = params.t_gate
    ts = np.linspace(0.0, tg, n_samples)
    fs, fc = env.profile_grid(ts)
    vals = 0.5 * env.params.amp_scale * env.params.omega0 * np.sqrt(fs * fs + fc * fc)
    h = tg / (n_samples - 1)
    weights = np.ones(n_samples)
    weights[1:-1:2] = 4.0
    weights[2:-1:2] = 2.0
    return float(np.dot(weights, vals)) * h / 3.0 / tg


def _bisect_decreasing(f: Callable[[float], float], lo: float, hi: float, iters: int = 80) -> float:
    """Root of a decreasing f with f(lo) > 0 > f(hi), expanding hi if needed."""
    flo = f(lo)
    fhi = f(hi)
    grow = 0
    while fhi > 0.0 and grow < 20:
        lo, flo = hi, fhi
        hi *= 2.0
        fhi = f(hi)
        grow += 1
    if flo <= 0.0 or fhi > 0.0:
        raise ValueError("bisection bracket not found")
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def amplitude_threshold_time(params: ControlParams) -> float:
    """Shortest t_gate whose SATD envelopes stay within the nominal omega0.

    Found by bisection on max_amplitude(t_gate) = omega0 at unit amp_scale.
    """
    base = replace(params, flavor=Flavor.SATD, amp_scale=1.0)

    def excess(tg: float) -> float:
        p = replace(base, t_gate=tg)
        env = satd_envelopes(p, make_pulse_shape(tg))
        return env.max_amplitude - params.omega0

    lo = 0.05 * 2.0 * math.pi / params.omega0
    hi = 4.0 * 2.0 * math.pi / params.omega0
    return _bisect_decreasing(excess, lo, hi)


def cost_threshold_time(params: ControlParams, multiple: float) -> float:
    """t_gate at which the SATD energy cost is multiple*(omega0/2) (bisection)."""
    if multiple <= 1.0:
        raise ValueError("multiple must exceed 1 (the adiabatic cost)")
    base = replace(params, flavor=Flavor.SATD, amp_scale=1.0)
    target = multiple * 0.5 * params.omega0

    def excess(tg: float) -> float:
        p = replace(base, t_gate=tg)
        env = satd_envelopes(p, make_pulse_shape(tg))
        return energy_cost(env, p, 501) - target

    lo = 0.02 * 2.0 * math.pi / params.omega0
    hi = 2.0 * 2.0 * math.pi / params.omega0
    return _bisect_decreasing(excess, lo, hi)


def envelope_rows(env: EnvelopeSet, n_samples: int) -> list[tuple[float, ...]]:
    """(t, Re/Im of the three envelopes) rows at uniform sampling."""
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    rows = []
    for t in np.linspace(0.0, env.params.t_gate, n_samples):
        o0, o1, oa = env.evaluate(float(t))
        rows.append((float(t), o0.real, o0.imag, o1.real, o1.imag, oa.real, oa.imag))
    return rows
