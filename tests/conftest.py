"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np
import pytest

from tripod_sta.controls import ControlParams, EnvelopeSet, Flavor
from tripod_sta.qmath import IntegratorConfig, ode_solve
from tripod_sta.tripod import hamiltonian

# Units with omega0/(2*pi) = 1: gate times are in cycles, rates in omega0/2pi.
OMEGA0 = 2.0 * math.pi


def params(cycles, flavor=Flavor.ADIABATIC, gamma0=math.pi, alpha=math.pi / 4, beta=0.0, amp_scale=1.0):
    return ControlParams(OMEGA0, alpha, beta, gamma0, cycles, flavor, amp_scale)


def dopri5_unitary(env: EnvelopeSet, cfg: IntegratorConfig) -> np.ndarray:
    """Reference propagator: the lab-frame 4x4 i dU/dt = H(t) U integrated
    with the adaptive Dormand-Prince stepper, one solve per half-segment."""

    def rhs(t, u):
        return -1.0j * (hamiltonian(env, t) @ u)

    half = env.segment_boundary
    first = ode_solve(rhs, np.eye(4, dtype=complex), 0.0, half, cfg)
    return ode_solve(rhs, first.y, half, env.params.t_gate, cfg).y


def series_expm(a: np.ndarray, terms: int = 30) -> np.ndarray:
    """Matrix exponential by scaled Taylor series; independent of eigh."""
    a = np.asarray(a, dtype=complex)
    norm = float(np.max(np.abs(a)))
    squarings = max(0, int(math.ceil(math.log2(norm / 0.25))) if norm > 0.25 else 0)
    b = a / (2.0**squarings)
    out = np.eye(a.shape[0], dtype=complex)
    term = np.eye(a.shape[0], dtype=complex)
    for n in range(1, terms + 1):
        term = term @ b / n
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def leak_lindblad_rhs(monkeypatch, leak: np.ndarray) -> None:
    """Add the constant matrix leak to every Lindblad right-hand side that
    tripod_sta.dynamics builds, for forcing conservation breaches."""
    from tripod_sta import dynamics

    lindblad_rhs = dynamics._lindblad_rhs

    def leaky_rhs(*args):
        rhs = lindblad_rhs(*args)
        return lambda t, rho: rhs(t, rho) + leak

    monkeypatch.setattr(dynamics, "_lindblad_rhs", leaky_rhs)


def random_hermitian(rng: np.random.Generator, dim: int, scale: float = 1.0) -> np.ndarray:
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (m + m.conj().T)


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    return series_expm(-1j * random_hermitian(rng, dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
