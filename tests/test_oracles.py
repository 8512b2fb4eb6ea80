import math

import numpy as np
import pytest

from conftest import (
    J_X,
    OMEGA0,
    default_antisymmetric_gamma_rate,
    dopri5_dissipative_superop,
    frame_at,
    params,
    series_expm,
    unvec,
    vec,
)
from tripod_sta.controls import (
    DressingAngle,
    Flavor,
    make_envelopes,
    make_pulse_shape,
)
from tripod_sta.dynamics import NoiseModel, propagate_unitary, propagate_unitary_batch
from tripod_sta.metrics import AXIAL_QUBIT_STATES, analytic_satd_dephasing_fidelity, avg_gate_fidelity
from tripod_sta.oracles import (
    A1,
    A2,
    B1,
    B2,
    C1,
    C2,
    dissipative_magnus_map,
    generic_dressing_phase,
    magnus_coefficients,
    magnus_full_gate,
    oracle_b_map_fidelity,
)
from tripod_sta.qmath import IntegratorConfig, gauss_legendre, unitarity_defect
from tripod_sta.tripod import ideal_gate

CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
ORACLE_CFG = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)


class TestMagnusCoefficients:
    def test_constants_closed_forms(self):
        pi = math.pi
        assert A1 == pytest.approx(-5.0 * pi**2 / 7.0, rel=1e-15)
        assert A2 == pytest.approx(4500.0 * pi**4 / 2431.0 - 960.0 * pi**2 / 7.0, rel=1e-15)
        assert B1 == pytest.approx(3840.0 * pi, rel=1e-15)
        assert B2 == pytest.approx(960.0 * pi * (336.0 + 5.0 * pi**2) / 7.0, rel=1e-15)
        assert C1 == pytest.approx(-1920.0 * pi, rel=1e-15)
        assert C2 == pytest.approx(-1920.0 * pi * (336.0 + 5.0 * pi**2) / 7.0, rel=1e-15)

    def test_detuning_arithmetic_at_ten_pi(self):
        # Direct evaluation at omega0*tg = 10*pi.
        co = magnus_coefficients(OMEGA0, 5.0)
        pi = math.pi
        expected = (-5.0 * pi**2 / 7.0) / (10.0 * pi) + (
            4500.0 * pi**4 / 2431.0 - 960.0 * pi**2 / 7.0
        ) / (1000.0 * pi**3)
        assert co.delta == pytest.approx(expected, rel=1e-13)

    def test_fields_vanish_when_slow(self):
        co = magnus_coefficients(OMEGA0, 1e4)
        assert abs(co.delta) < 2e-4  # leading term is A1/(omega0*tg)
        assert abs(co.omega_x) < 1e-10
        assert abs(co.omega_y) < 1e-10


class TestMagnusOracle:
    def test_rejects_wrong_flavor(self):
        with pytest.raises(ValueError):
            magnus_full_gate(params(2.0, Flavor.SATD))

    def test_full_gate_is_unitary(self):
        for cyc in (0.5, 4.0, 30.0):
            assert unitarity_defect(magnus_full_gate(params(cyc, gamma0=1.3, alpha=0.6, beta=0.8))) < 1e-13

    def test_stack_equals_one_point_calls(self):
        ps = [params(c, gamma0=1.3, alpha=0.6, beta=0.8, amp_scale=r) for c in (0.5, 4.0, 30.0) for r in (0.9, 1.0)]
        for p, gate in zip(ps, magnus_full_gate(ps)):
            assert np.array_equal(gate, magnus_full_gate(p))
        with pytest.raises(ValueError):
            magnus_full_gate([ps[0], params(2.0, Flavor.SATD)])

    def test_slow_limit_recovers_adiabatic_gate(self):
        # The residual detuning scales as 1/(omega0*tg).
        devs = []
        for cyc in (30.0, 300.0):
            p = params(cyc)
            devs.append(np.max(np.abs(magnus_full_gate(p) - ideal_gate(p))))
        assert devs[1] < 0.15 * devs[0]
        assert devs[1] < 1e-2

    def test_operator_deviation_decreases_with_gate_time(self):
        devs = []
        for cyc in (3.0, 6.0, 12.0, 24.0):
            p = params(cyc)
            u_num = propagate_unitary(p, make_envelopes(p), CFG).final_operator
            devs.append(np.max(np.abs(magnus_full_gate(p) - u_num)))
        assert all(a > b for a, b in zip(devs, devs[1:]))
        assert devs[-1] < 1e-4


def _eps_full(ps: list) -> np.ndarray:
    """Numeric full-space gate error of each adiabatic protocol of ps."""
    us = [res.final_operator for res in propagate_unitary_batch(ps, CFG)]
    return np.array([1.0 - avg_gate_fidelity(ideal_gate(p).conj().T @ u, 4) for p, u in zip(ps, us)])


def _leading_order_law(cycles):
    return 40.0 * math.pi**4 / (49.0 * (OMEGA0 * cycles) ** 2)


class TestLeadingOrderLaw:
    """Where acceptance criterion 01's law 40 pi^4/(49 (omega0 t_g)^2) holds,
    with that criterion's deviation |eps_full - law|/law."""

    def test_oracle_a_tracks_the_numerics_better_at_short_gates(self):
        # Measured eps_full 0.557/0.208/0.076: the law gives 0.126/0.081/0.056,
        # oracle A 0.683/0.271/0.067.
        cycles = (4.0, 5.0, 6.0)
        ps = [params(c) for c in cycles]
        for c, p, eps in zip(cycles, ps, _eps_full(ps)):
            oracle = 1.0 - avg_gate_fidelity(ideal_gate(p).conj().T @ magnus_full_gate(p), 4)
            assert abs(oracle - eps) < abs(_leading_order_law(c) - eps), c

    def test_law_holds_within_ten_percent_from_a_bisected_gate_time_on(self):
        def deviation(cycles):
            law = _leading_order_law(np.asarray(cycles))
            return np.abs(_eps_full([params(float(c)) for c in cycles]) - law) / law

        lo, hi = 9.0, 12.0  # deviations 25% and 7%
        while hi - lo > 1e-3:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if deviation([mid])[0] > 0.1 else (lo, mid)
        assert 9.7 < hi < 9.9  # measured 9.80 cycles
        # The deviation is not monotone past it: a local peak of 9.47% at 10.53.
        assert np.all(deviation(np.linspace(hi, 30.0, 221)) <= 0.1)


class TestDissipativeOracle:
    def test_rejects_bad_inputs(self):
        shape = make_pulse_shape(2.0)
        with pytest.raises(ValueError):
            dissipative_magnus_map(params(2.0), shape, NoiseModel((0, 0, 0, 1e-3)), AXIAL_QUBIT_STATES)
        with pytest.raises(ValueError):
            dissipative_magnus_map(
                params(2.0, Flavor.SATD), shape, NoiseModel((1e-3, 0, 0, 1e-3)), AXIAL_QUBIT_STATES
            )
        with pytest.raises(ValueError):
            dissipative_magnus_map(
                params(2.0, Flavor.SATD, amp_scale=1.1), shape, NoiseModel((0, 0, 0, 1e-3)), AXIAL_QUBIT_STATES
            )

    def test_collapse_amplitudes_normalized(self):
        from tripod_sta.oracles import _collapse_vector

        p = params(1.5, Flavor.SATD)
        shape = make_pulse_shape(1.5)
        for t in np.linspace(0.0, 1.5, 17):
            c = _collapse_vector(p, shape, float(t))
            assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, rel=1e-12)

    def test_collapse_vector_matches_frame_rotation(self):
        # The analytic amplitudes are the dressed-frame image of |e><e|.
        from tripod_sta.controls import satd_dressing_angle
        from tripod_sta.oracles import _collapse_vector

        p = params(1.5, Flavor.SATD)
        shape = make_pulse_shape(1.5)
        nu = satd_dressing_angle(p, shape)
        e_ket = np.array([0.0, 0.0, 0.0, 1.0], dtype=complex)
        for t in (0.2, 0.7, 1.1):
            frame = (frame_at(p, shape, t) @ series_expm(-1j * nu.angle(t) * J_X)).conj().T @ e_ket
            assert np.max(np.abs(frame - _collapse_vector(p, shape, t))) < 1e-12

    def test_zero_rate_reduces_to_unitary_map(self):
        p = params(2.0, Flavor.SATD)
        shape = make_pulse_shape(2.0)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 0.25
        rho0[1, 1] = 0.75
        out = dissipative_magnus_map(p, shape, NoiseModel(), rho0[None], ORACLE_CFG)[0]
        u = propagate_unitary(p, make_envelopes(p, shape), CFG).final_operator
        assert np.max(np.abs(out - u @ rho0 @ u.conj().T)) < 1e-8

    def test_first_order_trace_preservation(self):
        p = params(3.0, Flavor.SATD)
        shape = make_pulse_shape(3.0)
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[:2, :2] = 0.5
        out = dissipative_magnus_map(p, shape, noise, rho0[None], ORACLE_CFG)[0]
        assert abs(np.trace(out).real - 1.0) < 1e-4

    def test_matches_dopri5_reference(self):
        # The dressed-frame quadrature against the superoperator ODE it replaced.
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2))
        for cyc in (2.0, 5.0, 10.0):
            p = params(cyc, Flavor.SATD)
            shape = make_pulse_shape(cyc)
            superop = dopri5_dissipative_superop(p, shape, noise, ORACLE_CFG)
            expected = np.array([unvec(superop @ vec(rho)) for rho in AXIAL_QUBIT_STATES])
            got = dissipative_magnus_map(p, shape, noise, AXIAL_QUBIT_STATES, ORACLE_CFG)
            assert np.max(np.abs(got - expected)) < 1e-10

    def test_matches_first_order_analytics(self):
        # Six-state average against the closed-form prediction at a weak rate.
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-3))
        for cyc in (2.0, 6.0):
            p = params(cyc, Flavor.SATD)
            shape = make_pulse_shape(cyc)
            eps_oracle = 1.0 - oracle_b_map_fidelity(p, shape, noise, ORACLE_CFG)
            eps_pred = 1.0 - analytic_satd_dephasing_fidelity(p, shape, noise)
            assert abs(eps_oracle - eps_pred) / eps_pred < 0.01


class TestGenericDressingPhase:
    def test_zero_rate_zero_dressing(self):
        p = params(2.0)
        shape = make_pulse_shape(2.0)
        assert generic_dressing_phase(p, shape, lambda t: 0.0) == pytest.approx(0.0, abs=1e-14)

    def test_antisymmetric_profiles_accumulate_nothing(self):
        tg = 3.0
        p = params(tg)
        shape = make_pulse_shape(tg)
        profiles = [
            default_antisymmetric_gamma_rate(p),
            lambda t: np.sin(4.0 * math.pi * t / tg),
            lambda t: (t / tg) * (1.0 - t / tg) * (1.0 - 2.0 * t / tg),
        ]
        for rate in profiles:
            assert abs(generic_dressing_phase(p, shape, rate)) < 1e-8

    def test_undressed_limit_recovers_dark_state_phase(self):
        # With mu frozen at zero the integrand collapses to sin^2(theta)*rate.
        tg = 3.0
        p = params(tg)
        shape = make_pulse_shape(tg)
        rate = lambda t: np.exp(-((t - 0.5 * tg) ** 2) / 0.1)
        zero_mu = DressingAngle(lambda t: 0.0, lambda t: 0.0)
        got = generic_dressing_phase(p, shape, rate, mu=zero_mu)
        expected = gauss_legendre(lambda t: np.sin(shape(t)[0]) ** 2 * rate(t), 0.0, tg, 201)
        assert got == pytest.approx(expected, abs=1e-10)
