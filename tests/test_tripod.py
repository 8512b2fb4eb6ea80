import math
from dataclasses import replace

import numpy as np
import pytest

from conftest import OMEGA0, params, random_unitary
from tripod_sta.controls import (
    DressingAngle,
    Flavor,
    make_envelopes,
    make_pulse_shape,
    satd_dressing_angle,
)
from tripod_sta.tripod import (
    J_X,
    J_Y,
    J_Z,
    FrameBasis,
    adiabatic_frame_generators,
    decompose_block_unitary,
    dressed_frame_fields,
    dressed_frame_hamiltonian,
    hamiltonian,
    ideal_gate,
    magnus_gate,
    qubit_dark_state,
    satd_bright_half_angle,
    satd_gate,
    s_nu,
)

SQRT2 = math.sqrt(2.0)


class _StubEnv:
    def __init__(self, values):
        self.values = values

    def evaluate(self, t):
        return self.values


class TestHamiltonian:
    def test_zero_envelopes(self):
        h = hamiltonian(_StubEnv((0.0, 0.0, 0.0)), 0.0)
        assert np.all(h == 0.0)

    def test_adiabatic_spectrum(self):
        env = make_envelopes(params(3.0, alpha=0.6, beta=0.4, gamma0=1.7))
        for t in (0.2, 1.0, 1.5, 2.4):
            evals = np.sort(np.linalg.eigvalsh(hamiltonian(env, t)))
            expected = np.array([-0.5 * OMEGA0, 0.0, 0.0, 0.5 * OMEGA0])
            assert np.max(np.abs(evals - expected)) < 1e-12 * OMEGA0

    def test_qubit_dark_state_decoupled_for_both_flavors(self):
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            p = params(1.5, flavor, alpha=0.8, beta=2.2)
            env = make_envelopes(p)
            dark = qubit_dark_state(p.alpha, p.beta)
            for t in (0.1, 0.75, 1.2):
                assert np.max(np.abs(hamiltonian(env, t) @ dark)) < 1e-13


class TestFrameBasis:
    def test_orthonormal_and_unitary(self):
        fb = FrameBasis(params(2.0, gamma0=2.1, alpha=0.5, beta=0.3), make_pulse_shape(2.0))
        for t in (0.0, 0.4, 1.0, 1.6, 2.0):
            s = fb.s_ad(t)
            assert np.max(np.abs(s.conj().T @ s - np.eye(4))) < 1e-12

    def test_dark_states_have_no_excited_amplitude(self):
        fb = FrameBasis(params(2.0), make_pulse_shape(2.0))
        for t in (0.1, 0.9, 1.7):
            assert abs(fb.dark2(t)[3]) == 0.0

    def test_instantaneous_eigenvectors(self):
        p = params(2.0, gamma0=0.9, alpha=0.7, beta=1.9)
        env = make_envelopes(p)
        fb = FrameBasis(p, make_pulse_shape(2.0))
        for t in (0.3, 1.4):
            h = hamiltonian(env, t)
            assert np.max(np.abs(h @ fb.dark2(t))) < 1e-12
            for sign, energy in ((-1, -0.5 * OMEGA0), (+1, 0.5 * OMEGA0)):
                b = fb.bright(t, sign)
                assert np.max(np.abs(h @ b - energy * b)) < 1e-12

    def test_geometric_phase_at_segment_junction(self):
        g0 = 1.3
        fb = FrameBasis(params(2.0, gamma0=g0), make_pulse_shape(2.0))
        jump = fb.s_ad(1.0, segment=2).conj().T @ fb.s_ad(1.0, segment=1)
        expected = np.diag([1.0, np.exp(-1j * g0), 1.0, 1.0])
        assert np.max(np.abs(jump - expected)) < 1e-12

    def test_s_ad_dot_matches_finite_difference(self):
        fb = FrameBasis(params(2.0, gamma0=0.7), make_pulse_shape(2.0))
        h = 1e-5
        for t in (0.3, 0.8, 1.6):
            seg = fb.segment(t)
            fd = (
                -fb.s_ad(t + 2 * h, seg) + 8 * fb.s_ad(t + h, seg)
                - 8 * fb.s_ad(t - h, seg) + fb.s_ad(t - 2 * h, seg)
            ) / (12 * h)
            assert np.max(np.abs(fb.s_ad_dot(t, seg) - fd)) < 1e-9


class TestAdiabaticFrameGenerators:
    def test_error_term_structure(self):
        p = params(2.0)
        shape = make_pulse_shape(2.0)
        t = 0.37
        h0, verr = adiabatic_frame_generators(p, shape, t)
        td = shape(t)[1]
        assert abs(verr[1, 2]) == pytest.approx(abs(td) / SQRT2, rel=1e-12)
        assert abs(verr[1, 3]) == pytest.approx(abs(td) / SQRT2, rel=1e-12)
        assert np.allclose(np.diag(h0), [0.0, 0.0, -0.5 * OMEGA0, 0.5 * OMEGA0])

    def test_vanishes_where_theta_is_stationary(self):
        p = params(2.0)
        shape = make_pulse_shape(2.0)
        _, verr = adiabatic_frame_generators(p, shape, 1.0)
        assert np.max(np.abs(verr)) < 1e-12

    def test_matches_finite_difference_frame_change(self):
        # S^dag H S - i S^dag dS/dt == H0 + V_err, with dS/dt from a stencil.
        p = params(2.0, gamma0=1.9, alpha=0.6, beta=0.8)
        shape = make_pulse_shape(2.0)
        env = make_envelopes(p)
        fb = FrameBasis(p, shape)
        h = 2e-4
        for t in (0.31, 0.77, 1.43, 1.88):
            seg = fb.segment(t)
            s = fb.s_ad(t, seg)
            fd = (
                -fb.s_ad(t + 2 * h, seg) + 8 * fb.s_ad(t + h, seg)
                - 8 * fb.s_ad(t - h, seg) + fb.s_ad(t - 2 * h, seg)
            ) / (12 * h)
            frame = s.conj().T @ hamiltonian(env, t) @ s - 1j * (s.conj().T @ fd)
            h0, verr = adiabatic_frame_generators(p, shape, t)
            assert np.max(np.abs(frame - (h0 + verr))) < 1e-10


class TestSpinOperators:
    def test_algebra(self):
        assert np.max(np.abs((J_X @ J_Y - J_Y @ J_X) - 1j * J_Z)) < 1e-14
        assert np.max(np.abs((J_Y @ J_Z - J_Z @ J_Y) - 1j * J_X)) < 1e-14
        for j in (J_X, J_Y, J_Z):
            assert np.max(np.abs(j @ j @ j - j)) < 1e-14  # spin-1 identity

    def test_s_nu_closed_form(self):
        from tripod_sta.qmath import expm_hermitian_generator

        for nu in (-1.1, 0.0, 0.4, 2.0):
            assert np.max(np.abs(s_nu(nu) - expm_hermitian_generator(J_X, nu))) < 1e-12


class TestGateDecomposition:
    def test_round_trip(self, rng):
        for _ in range(6):
            u = np.zeros((4, 4), dtype=complex)
            u[:2, :2] = random_unitary(rng, 2)
            u[2:, 2:] = random_unitary(rng, 2)
            dec = decompose_block_unitary(u)
            assert np.max(np.abs(dec.full_matrix() - u)) < 1e-12
            assert np.linalg.norm(dec.qubit_axis) == pytest.approx(1.0, abs=1e-12)

    def test_zero_rotation_convention(self):
        dec = decompose_block_unitary(np.eye(4, dtype=complex))
        assert dec.qubit_axis == (0.0, 0.0, 1.0)
        assert dec.qubit_angle == pytest.approx(0.0, abs=1e-12)

    def test_leakage_rejected(self):
        u = np.eye(4, dtype=complex)
        u[0, 2] = 1e-3
        with pytest.raises(ValueError, match="block-diagonal"):
            decompose_block_unitary(u)


class TestTargetGates:
    def test_identity_qubit_block_at_zero_phase(self):
        dec = ideal_gate(params(2.0, gamma0=1e-300))
        assert np.max(np.abs(dec.qubit_block() - np.eye(2))) < 1e-12

    def test_x_type_gate(self):
        # alpha = pi/4, beta = 0, gamma0 = pi gives a pi rotation about x.
        dec = ideal_gate(params(2.0, gamma0=math.pi, alpha=math.pi / 4, beta=0.0))
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert np.max(np.abs(dec.qubit_block() + sx)) < 1e-12  # -sigma_x overall
        assert dec.qubit_angle == pytest.approx(math.pi, abs=1e-12)
        assert np.allclose(dec.qubit_axis, (1.0, 0.0, 0.0), atol=1e-12)

    def test_aux_angle_at_full_winding(self):
        # cos(omega0*tg/2) = 1 makes the auxiliary angle collapse to gamma0.
        g0 = 1.1
        for k2 in (0, 1):
            tg = 2.0 * (1 + 2 * k2)  # omega0*tg = 4pi(1+2k)
            dec = ideal_gate(params(tg, gamma0=g0))
            assert dec.aux_angle == pytest.approx(g0, abs=1e-10)

    def test_magnus_gate_correction_arithmetic(self):
        # At omega0*tg = 10*pi the auxiliary half angle shifts by pi/7.
        p = params(5.0)
        shifted_tg = 5.0 + 2.0 * (math.pi / 7.0) / OMEGA0
        expected = ideal_gate(replace(p, t_gate=shifted_tg)).aux_block()
        got = magnus_gate(p).aux_block()
        assert np.max(np.abs(got - expected)) < 1e-12

    def test_magnus_reduces_to_ideal_when_slow(self):
        p = params(2000.0)
        assert np.max(np.abs(magnus_gate(p).full_matrix() - ideal_gate(p).full_matrix())) < 2e-3

    def test_magnus_qubit_block_is_geometric(self):
        for tg in (0.7, 3.0, 21.0):
            p = params(tg, gamma0=2.2, alpha=0.3, beta=1.0)
            assert np.max(np.abs(magnus_gate(p).qubit_block() - ideal_gate(p).qubit_block())) < 1e-12

    def test_satd_bright_half_angle(self):
        # Quadrature against a dense trapezoid oracle.
        tg = 4.0  # omega0*tg = 8*pi
        p = params(tg, Flavor.SATD)
        shape = make_pulse_shape(tg)
        phi = satd_bright_half_angle(p, shape)
        ts = np.linspace(0.0, 0.5 * tg, 1_000_001)
        _, td, _ = shape(ts)
        vals = np.sqrt(OMEGA0**2 + 4.0 * td**2)
        oracle = float(np.trapezoid(vals, ts))
        assert phi == pytest.approx(oracle, abs=1e-9)
        assert phi >= 0.5 * OMEGA0 * tg  # integrand is bounded below by omega0

    def test_satd_gate_qubit_angle_is_time_independent(self):
        g0 = 2.4
        for tg in np.geomspace(4.0 / OMEGA0, 400.0 / OMEGA0, 7):
            p = params(float(tg), Flavor.SATD, gamma0=g0)
            dec = satd_gate(p, make_pulse_shape(float(tg)))
            assert dec.qubit_angle == pytest.approx(g0, abs=1e-12)

    def test_satd_gate_slow_limit(self):
        # The bright half angle exceeds omega0*tg/2 by O(1/tg), so the gate
        # approaches the adiabatic target at that rate.
        devs = []
        for tg in (50.0, 500.0):
            p = params(tg, Flavor.SATD)
            shape = make_pulse_shape(tg)
            devs.append(np.max(np.abs(satd_gate(p, shape).full_matrix() - ideal_gate(p).full_matrix())))
        assert devs[1] < devs[0] / 5.0
        assert devs[1] < 1e-2


class TestDressedFrame:
    def test_fields_without_dressing(self):
        p = params(2.0)
        shape = make_pulse_shape(2.0)
        zero = DressingAngle(lambda t: 0.0, lambda t: 0.0)
        for t in (0.3, 1.0, 1.6):
            b, xi, rate = dressed_frame_fields(p, shape, zero, t)
            th, td, _ = shape(t)
            assert b[0] == 0.0
            assert b[1] == pytest.approx(td, abs=1e-14)
            assert b[2] == pytest.approx(-0.5 * OMEGA0, abs=1e-12)
            expected_xi = (
                math.cos(th) ** 2,
                -math.cos(th) ** 2,
                0.0,
                math.sin(2 * th) / SQRT2,
                0.0,
            )
            assert np.allclose(xi, expected_xi, atol=1e-13)
            assert rate == pytest.approx(math.sin(th) ** 2, abs=1e-13)

    def test_transitionless_field_with_satd_angle(self):
        tg = 1.3
        p = params(tg, Flavor.SATD)
        shape = make_pulse_shape(tg)
        nu = satd_dressing_angle(p, shape)
        for t in np.linspace(0.0, tg, 37):
            b, _, _ = dressed_frame_fields(p, shape, nu, float(t))
            assert abs(b[1]) < 1e-12 * OMEGA0

    def test_nonspin_couplings_vanish_at_midpoint(self):
        tg = 2.0
        p = params(tg, Flavor.SATD)
        shape = make_pulse_shape(tg)
        nu = satd_dressing_angle(p, shape)
        _, xi, _ = dressed_frame_fields(p, shape, nu, 0.5 * tg)
        assert np.max(np.abs(xi)) < 1e-12

    def test_dressed_hamiltonian_confines_the_dark_state(self):
        # With the transitionless dressing the dressed dark state has zero
        # energy and no coupling to the dressed bright states.
        tg = 1.5
        p = params(tg, Flavor.SATD)
        shape = make_pulse_shape(tg)
        env = make_envelopes(p, shape)
        nu = satd_dressing_angle(p, shape)
        for t in np.linspace(0.02, tg - 0.02, 23):
            hdr = dressed_frame_hamiltonian(p, shape, env, nu, float(t))
            assert abs(hdr[1, 1]) < 1e-12 * OMEGA0
            assert abs(hdr[1, 2]) < 1e-10 * OMEGA0
            assert abs(hdr[1, 3]) < 1e-10 * OMEGA0

    def test_frame_consistency_without_dressing(self):
        # nu == 0 must reproduce the adiabatic-frame generators.
        p = params(2.0)
        shape = make_pulse_shape(2.0)
        env = make_envelopes(p)
        zero = DressingAngle(lambda t: 0.0, lambda t: 0.0)
        for t in (0.4, 1.2, 1.9):
            hdr = dressed_frame_hamiltonian(p, shape, env, zero, t)
            h0, verr = adiabatic_frame_generators(p, shape, t)
            assert np.max(np.abs(hdr - (h0 + verr))) < 1e-12
