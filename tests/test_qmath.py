import math

import numpy as np
import pytest

from conftest import random_hermitian, random_unitary, series_expm
from tripod_sta.qmath import (
    ABS_TOL_FLOOR,
    IntegratorConfig,
    OdeStepUnderflow,
    gauss_legendre,
    gauss_legendre_rule,
    magnus_su2,
    ode_solve,
    su2_exponential,
    su2_ordered_product,
    unitarity_defect,
)

SIGMA = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def test_su2_exponential_matches_series(rng):
    gs = np.concatenate([rng.normal(scale=4.0, size=(8, 3)), np.zeros((1, 3))])
    for g, u in zip(gs, su2_exponential(gs)):
        expected = series_expm(-0.5j * np.einsum("k,kij->ij", g, SIGMA))
        assert np.max(np.abs(u - expected)) < 1e-13
        assert unitarity_defect(u) < 1e-15


def test_unitarity_defect_of_a_stack_is_that_of_each_matrix(rng):
    us = rng.normal(size=(6, 4, 4)) + 1j * rng.normal(size=(6, 4, 4))
    assert unitarity_defect(us).tolist() == [unitarity_defect(u) for u in us]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 13])
def test_su2_ordered_product_matches_loop(rng, n):
    mats = su2_exponential(rng.normal(scale=2.0, size=(n, 3)))
    expected = np.eye(2)
    for m in mats:
        expected = m @ expected
    a, b = su2_ordered_product(mats[:, 0, 0], mats[:, 0, 1])
    assert np.max(np.abs(np.array([[a, b], [-np.conj(b), np.conj(a)]]) - expected)) < 1e-14


def test_magnus_su2_is_exact_for_a_constant_field():
    c = np.array([0.7, -1.2, 2.0])
    [u] = magnus_su2(lambda rows, t: tuple(c), np.array([0.5]), np.array([2.0]), 5)
    assert np.max(np.abs(u - su2_exponential(1.5 * c))) < 1e-14


def test_magnus_su2_blocks_match_one_block(monkeypatch):
    # A rotating field, so the order of the factors matters.
    def field(rows, t):
        return np.cos(3.0 * t), np.sin(3.0 * t), 0.4

    t0, t1 = np.array([0.0]), np.array([1.0])
    whole = magnus_su2(field, t0, t1, 96)
    monkeypatch.setattr("tripod_sta.qmath.MAGNUS_BLOCK", 10)
    assert np.max(np.abs(magnus_su2(field, t0, t1, 96) - whole)) < 1e-14


@pytest.mark.parametrize("n, block", [(4, 10), (96, 10), (96, 4096)])
def test_magnus_su2_stack_matches_one_member_calls(monkeypatch, n, block):
    # Three members with their own spans; block 10 packs two 4-step members
    # per field call, and splits 96 steps into ten blocks per member.
    def field(rows, t):
        w = np.array([1.0, 3.0, -2.0])[rows, None]
        return np.cos(w * t), np.sin(w * t), 0.4

    monkeypatch.setattr("tripod_sta.qmath.MAGNUS_BLOCK", block)
    t0, t1 = np.array([0.0, 0.5, -1.0]), np.array([1.0, 0.75, 2.0])
    stack = magnus_su2(field, t0, t1, n)
    for j in range(3):
        alone = magnus_su2(lambda rows, t: field(rows + j, t), t0[j : j + 1], t1[j : j + 1], n)
        assert np.array_equal(stack[j : j + 1], alone)


def test_gauss_legendre_rule_is_cached_and_read_only():
    x, w = gauss_legendre_rule(7)
    assert gauss_legendre_rule(7)[0] is x
    assert np.array_equal((x, w), np.polynomial.legendre.leggauss(7))
    with pytest.raises(ValueError):
        x[0] = 0.0


def test_ode_zero_rhs():
    y0 = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    res = ode_solve(lambda t, y: 0.0 * y, y0, 0.0, 5.0)
    assert np.allclose(res.y, y0)
    assert res.steps_rejected == 0


def test_ode_constant_generator_vs_expm(rng):
    h = random_hermitian(rng, 4, 2.0)
    y0 = random_unitary(rng, 4)
    span = 2.3
    res = ode_solve(lambda t, y: -1j * (h @ y), y0, 0.0, span)
    expected = series_expm(-1j * span * h) @ y0
    assert np.max(np.abs(res.y - expected)) < 1e-9
    assert res.steps_accepted > 0


def test_ode_convergence_with_tolerance(rng):
    h = random_hermitian(rng, 4, 2.0)
    y0 = np.eye(4, dtype=complex)
    expected = series_expm(-3j * h)
    errors = []
    for rel in (1e-5, 1e-7, 1e-9):
        cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
        res = ode_solve(lambda t, y: -1j * (h @ y), y0, 0.0, 3.0, cfg)
        errors.append(np.max(np.abs(res.y - expected)))
    assert errors[0] > errors[1] > errors[2]


def test_ode_reuses_the_last_stage():
    # First stage once, then twelve per attempted step: the FSAL stage
    # carries over from each accepted step, also across rejected ones.
    evals = []

    def rhs(t, y):
        evals.append(t)
        return -1j * (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * y

    res = ode_solve(rhs, np.eye(2, dtype=complex), 0.0, 2.0, IntegratorConfig(1e-8, 1e-10))
    assert res.steps_rejected > 0
    assert len(evals) == 1 + 12 * (res.steps_accepted + res.steps_rejected)


def test_ode_stage_times_are_python_floats():
    # The step size and every stage time stay Python floats, also after a
    # rejected step, so the Lindblad rhs does its scalar ramp arithmetic
    # without numpy scalars.
    types = set()

    def rhs(t, y):
        types.add(type(t))
        return -1j * (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * y

    res = ode_solve(rhs, np.eye(2, dtype=complex), 0.0, 2.0, IntegratorConfig(1e-8, 1e-10))
    assert res.steps_rejected > 0
    assert types == {float}


def test_ode_empty_span_returns_y0():
    y0 = np.array([[1.0, 2.0j]])
    res = ode_solve(lambda t, y: pytest.fail("rhs called"), y0, 0.5, 0.5)
    assert np.array_equal(res.y, y0)
    assert (res.steps_accepted, res.steps_rejected) == (0, 0)


def test_ode_backwards_time_rejected():
    with pytest.raises(ValueError):
        ode_solve(lambda t, y: y, np.eye(2, dtype=complex), 1.0, 0.0)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_underflow_reports_time():
    # A rhs whose magnitude explodes forces the controller to shrink h forever.
    def rhs(t, y):
        return y / (0.5 - t) ** 2

    with pytest.raises(OdeStepUnderflow) as err:
        ode_solve(rhs, np.ones((1, 1), dtype=complex), 0.0, 1.0)
    assert 0.0 <= err.value.t <= 1.0


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=math.nan)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=math.inf)
    # Every reported error lies in [0, 1]: a tolerance of 1 would zero them all.
    for tol in (1.0, 2.0):
        with pytest.raises(ValueError, match="rel_tol must be < 1"):
            IntegratorConfig(rel_tol=tol)
        with pytest.raises(ValueError, match="abs_tol must be < 1"):
            IntegratorConfig(abs_tol=tol)
    with pytest.raises(ValueError, match="abs_tol must be >= 1e-16"):
        IntegratorConfig(abs_tol=0.5 * ABS_TOL_FLOOR)
    assert IntegratorConfig(abs_tol=ABS_TOL_FLOOR).abs_tol == ABS_TOL_FLOOR


@pytest.mark.parametrize("n", [1, 3, 11, 21, 1023])
def test_gauss_legendre_rule_has_an_exact_zero_in_the_middle(n):
    # Odd uncertainty rules put the nominal amplitude scale 1 + k*0 there.
    assert gauss_legendre_rule(n)[0][n // 2] == 0.0


def test_gauss_legendre_constant():
    assert gauss_legendre(lambda x: 1.0, 0.0, 1.0, 1) == pytest.approx(1.0, abs=1e-15)


def test_gauss_legendre_cubic_two_nodes():
    # Two nodes integrate degree-3 polynomials exactly.
    assert gauss_legendre(lambda x: x**3, 0.0, 1.0, 2) == pytest.approx(0.25, abs=1e-15)


def test_gauss_legendre_sine():
    assert gauss_legendre(np.sin, 0.0, math.pi, 21) == pytest.approx(2.0, abs=1e-12)


def test_gauss_legendre_polynomial_exactness(rng):
    # n nodes integrate any polynomial of degree <= 2n-1 exactly.
    for n in range(1, 7):
        coeffs = rng.normal(size=2 * n)
        poly = np.polynomial.Polynomial(coeffs)
        exact = poly.integ()(2.0) - poly.integ()(-0.5)
        got = gauss_legendre(poly, -0.5, 2.0, n)
        assert got == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_gauss_legendre_calls_the_integrand_once_on_all_nodes():
    calls = []

    def f(t):
        calls.append(np.array(t))
        return t * t

    assert gauss_legendre(f, 0.0, 3.0, 7) == pytest.approx(9.0, rel=1e-14)
    [nodes] = calls
    assert np.array_equal(nodes, 1.5 + 1.5 * gauss_legendre_rule(7)[0])


def test_gauss_legendre_empty_interval_is_zero():
    assert gauss_legendre(lambda x: pytest.fail("integrand called"), 1.5, 1.5, 5) == 0.0


def test_gauss_legendre_validation():
    with pytest.raises(ValueError):
        gauss_legendre(lambda x: x, 0.0, 1.0, 0)
    with pytest.raises(ValueError):
        gauss_legendre(lambda x: x, 1.0, 0.0, 3)
