import itertools
import math

import numpy as np
import pytest

from conftest import (
    J_X,
    J_Y,
    J_Z,
    OMEGA0,
    decompose_block_unitary,
    dressed_frame_hamiltonian,
    frame_at,
    frame_field,
    frame_field_at,
    params,
    random_unitary,
    series_expm,
    undressed_frame_field,
)
from tripod_sta.qmath import gauss_legendre, su2_exponential
from tripod_sta.controls import (
    DressingAngle,
    Flavor,
    make_envelopes,
    make_pulse_shape,
    satd_dressing_angle,
)
from tripod_sta.tripod import (
    _dressed,
    dressed_frame_fields,
    frame_change,
    frame_ends,
    hamiltonian,
    ideal_gate,
    lab_operator,
    qubit_dark_state,
    satd_bright_half_angle,
    satd_gate,
    spin1_image,
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
        p = params(2.0, gamma0=2.1, alpha=0.5, beta=0.3)
        for t in (0.0, 0.4, 1.0, 1.6, 2.0):
            s = frame_at(p, make_pulse_shape(2.0), t)
            assert np.max(np.abs(s.conj().T @ s - np.eye(4))) < 1e-12

    def test_dark_states_have_no_excited_amplitude(self):
        for t in (0.1, 0.9, 1.7):
            assert abs(frame_at(params(2.0), make_pulse_shape(2.0), t)[3, 1]) == 0.0

    def test_instantaneous_eigenvectors(self):
        p = params(2.0, gamma0=0.9, alpha=0.7, beta=1.9)
        env = make_envelopes(p)
        for t in (0.3, 1.4):
            h = hamiltonian(env, t)
            s = frame_at(p, make_pulse_shape(2.0), t)
            assert np.max(np.abs(h @ s[:, 1])) < 1e-12
            for col, energy in ((2, -0.5 * OMEGA0), (3, 0.5 * OMEGA0)):
                b = s[:, col]
                assert np.max(np.abs(h @ b - energy * b)) < 1e-12

    def test_geometric_phase_at_segment_junction(self):
        g0 = 1.3
        _, jump, _ = frame_ends(params(2.0, gamma0=g0))
        expected = np.diag([1.0, np.exp(-1j * g0), 1.0, 1.0])
        assert np.max(np.abs(jump - expected)) < 1e-12

    def test_ends_are_the_frame_changes_at_the_pulse_ends(self):
        # frame_ends reads no pulse shape: theta is exactly 0, pi/2 and 0 at
        # t = 0, t_g/2 and t_g, so the ends match the shape's angles bit for bit.
        for tg, flavor in itertools.product((1e-6, 0.37, 3.7, 30.0, 1e3), (Flavor.ADIABATIC, Flavor.SATD)):
            p = params(tg, flavor, gamma0=1.9, alpha=0.6, beta=0.8, amp_scale=1.07)
            shape = make_pulse_shape(tg)
            s_out, junction, s_in = frame_ends(p)
            mid = shape(0.5 * tg)[0]
            assert np.array_equal(s_out, frame_change(p, shape(tg)[0], True))
            assert np.array_equal(junction, frame_change(p, mid, True).conj().T @ frame_change(p, mid, False))
            assert np.array_equal(s_in, frame_change(p, shape(0.0)[0], False))


def _spin1(c):
    return c[0] * J_X + c[1] * J_Y + c[2] * J_Z


class TestAdiabaticFrameGenerators:
    """frame_field: S_ad^dag H S_ad - i S_ad^dag dS_ad/dt in spin-1 components."""

    def test_error_term_structure(self):
        # Adiabatic flavor: H0 = -(omega/2) J_Z plus V_err = theta_dot J_Y.
        p = params(2.0)
        shape = make_pulse_shape(2.0)
        t = 0.37
        c = frame_field_at(p, t)
        assert c == (0.0, shape(t)[1], -0.5 * OMEGA0)
        verr = _spin1((0.0, c[1], 0.0))
        assert abs(verr[1, 2]) == pytest.approx(abs(c[1]) / SQRT2, rel=1e-12)
        assert abs(verr[1, 3]) == pytest.approx(abs(c[1]) / SQRT2, rel=1e-12)
        assert np.allclose(np.diag(_spin1(c)), [0.0, 0.0, -0.5 * OMEGA0, 0.5 * OMEGA0])

    def test_vanishes_where_theta_is_stationary(self):
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            cx, cy, _ = frame_field_at(params(2.0, flavor), 1.0)
            assert abs(cx) < 1e-12 and abs(cy) < 1e-12

    def test_matches_finite_difference_frame_change(self):
        # S^dag H S - i S^dag dS/dt == frame_field . J for both flavors and a
        # mis-scaled amplitude, with dS/dt from a fourth-order stencil inside
        # each half-segment.
        shape = make_pulse_shape(2.0)
        h = 2e-4
        for flavor, amp_scale in itertools.product((Flavor.ADIABATIC, Flavor.SATD), (1.0, 1.13)):
            p = params(2.0, flavor, gamma0=1.9, alpha=0.6, beta=0.8, amp_scale=amp_scale)
            env = make_envelopes(p)
            for t in (0.07, 0.31, 0.77, 0.99, 1.01, 1.43, 1.88, 1.99):
                seg = 1 if t < 0.5 * p.t_gate else 2
                s = frame_at(p, shape, t, seg)
                fd = (
                    -frame_at(p, shape, t + 2 * h, seg) + 8 * frame_at(p, shape, t + h, seg)
                    - 8 * frame_at(p, shape, t - h, seg) + frame_at(p, shape, t - 2 * h, seg)
                ) / (12 * h)
                frame = s.conj().T @ hamiltonian(env, t) @ s - 1j * (s.conj().T @ fd)
                assert np.max(np.abs(frame - _spin1(frame_field_at(p, t)))) < 1e-9
                assert np.max(np.abs(frame[0, :])) < 1e-9 and np.max(np.abs(frame[:, 0])) < 1e-9


class TestSpinOperators:
    def test_algebra(self):
        assert np.max(np.abs((J_X @ J_Y - J_Y @ J_X) - 1j * J_Z)) < 1e-14
        assert np.max(np.abs((J_Y @ J_Z - J_Z @ J_Y) - 1j * J_X)) < 1e-14
        for j in (J_X, J_Y, J_Z):
            assert np.max(np.abs(j @ j @ j - j)) < 1e-14  # spin-1 identity

    def test_spin1_image_of_su2_exponential(self, rng):
        # D1(exp(-i g.sigma/2)) == exp(-i g.J), stacked and one at a time.
        gs = rng.normal(scale=3.0, size=(20, 3))
        images = spin1_image(su2_exponential(gs))
        for g, image in zip(gs, images):
            expected = series_expm(-1j * _spin1(g))
            assert np.max(np.abs(image - expected)) < 1e-13
            assert np.array_equal(spin1_image(su2_exponential(g)), image)

    def test_spin1_image_is_multiplicative(self, rng):
        # Any 2x2 matrices, unitary or not: D1 is the symmetric square.
        for _ in range(10):
            a, b = (rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)) for _ in range(2))
            assert np.max(np.abs(spin1_image(a @ b) - spin1_image(a) @ spin1_image(b))) < 1e-12
        assert np.array_equal(spin1_image(np.eye(2)), np.eye(4))


class TestGateDecomposition:
    def test_round_trip(self, rng):
        for _ in range(6):
            u = np.zeros((4, 4), dtype=complex)
            u[:2, :2] = random_unitary(rng, 2)
            u[2:, 2:] = random_unitary(rng, 2)
            dec = decompose_block_unitary(u)
            rebuilt = np.zeros((4, 4), dtype=complex)
            rebuilt[:2, :2] = np.exp(1j * dec.qubit_phase) * su2_exponential(dec.qubit_angle * np.array(dec.qubit_axis))
            rebuilt[2:, 2:] = np.exp(1j * dec.aux_phase) * su2_exponential(dec.aux_angle * np.array(dec.aux_axis))
            assert np.max(np.abs(rebuilt - u)) < 1e-12
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
        u = ideal_gate(params(2.0, gamma0=1e-300))
        assert np.max(np.abs(u[:2, :2] - np.eye(2))) < 1e-12

    def test_x_type_gate(self):
        # alpha = pi/4, beta = 0, gamma0 = pi gives a pi rotation about x.
        u = ideal_gate(params(2.0, gamma0=math.pi, alpha=math.pi / 4, beta=0.0))
        sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
        assert np.max(np.abs(u[:2, :2] + sx)) < 1e-12  # -sigma_x overall
        dec = decompose_block_unitary(u)
        assert dec.qubit_angle == pytest.approx(math.pi, abs=1e-12)
        assert np.allclose(dec.qubit_axis, (1.0, 0.0, 0.0), atol=1e-12)

    def test_aux_angle_at_full_winding(self):
        # cos(omega0*tg/2) = 1 makes the auxiliary angle collapse to gamma0.
        g0 = 1.1
        for k2 in (0, 1):
            tg = 2.0 * (1 + 2 * k2)  # omega0*tg = 4pi(1+2k)
            dec = decompose_block_unitary(ideal_gate(params(tg, gamma0=g0)))
            assert dec.aux_angle == pytest.approx(g0, abs=1e-10)

    def test_satd_bright_half_angle(self):
        # Quadrature against a dense trapezoid oracle.
        tg = 4.0  # omega0*tg = 8*pi
        p = params(tg, Flavor.SATD)
        shape = make_pulse_shape(tg)
        [phi] = satd_bright_half_angle([p])
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
            dec = decompose_block_unitary(satd_gate(p, make_pulse_shape(float(tg))))
            assert dec.qubit_angle == pytest.approx(g0, abs=1e-12)

    def test_satd_gate_slow_limit(self):
        # The bright half angle exceeds omega0*tg/2 by O(1/tg), so the gate
        # approaches the adiabatic target at that rate.
        devs = []
        for tg in (50.0, 500.0):
            p = params(tg, Flavor.SATD)
            shape = make_pulse_shape(tg)
            devs.append(np.max(np.abs(satd_gate(p, shape) - ideal_gate(p))))
        assert devs[1] < devs[0] / 5.0
        assert devs[1] < 1e-2


# Protocols of one (alpha, beta, gamma0) at gate times from 1e-3 to 30 cycles
# and three amplitude scales, as a gate-error batch holds them.
_STACK = [
    params(tg, Flavor.SATD, gamma0=1.9, alpha=0.6, beta=0.8, amp_scale=r)
    for tg in (1e-3, 0.7, 5.0, 30.0)
    for r in (0.87, 1.0, 1.13)
]


class TestStackedForms:
    """Each stacked form equals its one-point call bit for bit."""

    def test_targets(self):
        for p, target in zip(_STACK, ideal_gate(_STACK)):
            assert np.array_equal(target, ideal_gate(p))

    def test_satd_gates(self):
        for p, gate in zip(_STACK, satd_gate(_STACK)):
            assert np.array_equal(gate, satd_gate(p, make_pulse_shape(p.t_gate)))
        for p, phi in zip(_STACK, satd_bright_half_angle(_STACK)):
            # The one-point quadrature it replaces, on the same nodes in the same order.
            w, shape = OMEGA0 * p.amp_scale, make_pulse_shape(p.t_gate)
            assert phi == gauss_legendre(lambda t: np.sqrt(w * w + 4.0 * shape(t)[1] ** 2), 0.0, 0.5 * p.t_gate, 64)

    def test_lab_operators(self, rng):
        mixed = _STACK + [params(2.0, alpha=0.3, beta=2.0, gamma0=-1.0)]  # two frame-end triples
        first, second = (su2_exponential(rng.normal(size=(len(mixed), 3))) for _ in range(2))
        for p, u1, u2, u in zip(mixed, first, second, lab_operator(mixed, first, second)):
            assert np.array_equal(u, lab_operator([p], u1[None], u2[None])[0])
            s_out, junction, s_in = frame_ends(p)
            assert np.array_equal(u, s_out @ spin1_image(u2) @ junction @ spin1_image(u1) @ s_in.conj().T)

    def test_gates_of_a_stack_must_share_axis_and_phase(self):
        with pytest.raises(ValueError, match="share"):
            ideal_gate([params(2.0), params(2.0, gamma0=1.0)])


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

    def test_satd_field_is_diagonal_in_the_dressed_frame(self):
        # The dissipative oracle's premise: at the nominal amplitude the SATD
        # field seen in the transitionless dressed frame is (0, 0, -E) with
        # E = sqrt(omega0^2/4 + theta_dot^2); a mis-scaled amplitude breaks it.
        for tg in (0.7, 2.0, 5.0):
            p = params(tg, Flavor.SATD)
            shape = make_pulse_shape(tg)
            nu = satd_dressing_angle(p, shape)
            for t in np.linspace(0.0, tg, 41):
                t = float(t)
                e = math.sqrt(0.25 * OMEGA0**2 + shape(t)[1] ** 2)
                dressed = _dressed(frame_field_at(p, t), nu, t)
                assert np.max(np.abs(np.subtract(dressed, (0.0, 0.0, -e)))) < 1e-13
        p = params(2.0, Flavor.SATD, amp_scale=1.1)
        shape = make_pulse_shape(2.0)
        nu = satd_dressing_angle(p, shape)
        xy = [_dressed(frame_field_at(p, float(t)), nu, float(t))[:2] for t in np.linspace(0.0, 2.0, 41)]
        assert np.max(np.abs(xy)) > 1e-3

    def test_dressed_frame_field_is_the_dressing_in_closed_form(self):
        # frame_field: the undressed field _dressed by the SATD angle for SATD
        # members, the undressed field, bit for bit, for adiabatic ones.
        ps = [params(tg, flavor, amp_scale=r) for tg in (0.01, 2.0) for flavor in Flavor for r in (0.87, 1.0, 1.13)]
        ts = np.array([np.linspace(0.0, p.t_gate, 41) for p in ps])
        fields = np.array(np.broadcast_arrays(*frame_field(ps, ts)))
        for j, p in enumerate(ps):
            if p.flavor is Flavor.ADIABATIC:
                undressed = np.array(np.broadcast_arrays(*undressed_frame_field(p, ts[j])))
                assert np.array_equal(fields[:, j], undressed)
                continue
            nu = satd_dressing_angle(p, make_pulse_shape(p.t_gate))
            for k, t in enumerate(ts[j]):
                expected = _dressed(frame_field_at(p, float(t)), nu, float(t))
                assert np.max(np.abs(fields[:, j, k] - expected)) < 1e-13 * max(1.0, np.max(np.abs(expected)))

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
        nu = satd_dressing_angle(p, shape)
        for t in np.linspace(0.02, tg - 0.02, 23):
            hdr = dressed_frame_hamiltonian(p, nu, float(t))
            assert abs(hdr[1, 1]) < 1e-12 * OMEGA0
            assert abs(hdr[1, 2]) < 1e-10 * OMEGA0
            assert abs(hdr[1, 3]) < 1e-10 * OMEGA0

    def test_frame_consistency_without_dressing(self):
        # nu == 0 must reproduce the adiabatic-frame field exactly.
        p = params(2.0)
        zero = DressingAngle(lambda t: 0.0, lambda t: 0.0)
        for t in (0.4, 1.2, 1.9):
            hdr = dressed_frame_hamiltonian(p, zero, t)
            assert np.max(np.abs(hdr - _spin1(frame_field_at(p, t)))) < 1e-12

    def test_dressing_matches_rotated_frame(self):
        # The closed-form dressing equals S_nu^dag H_ad S_nu - nu_dot J_X with
        # S_nu = exp(-i nu J_X), for both flavors and a mis-scaled amplitude.
        tg = 1.3
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            p = params(tg, flavor, amp_scale=1.13)
            shape = make_pulse_shape(tg)
            nu = satd_dressing_angle(p, shape)
            for t in np.linspace(0.05, tg - 0.05, 9):
                s_nu = series_expm(-1j * nu.angle(t) * J_X)
                h_ad = _spin1(frame_field_at(p, t))
                expected = s_nu.conj().T @ h_ad @ s_nu - nu.rate(t) * J_X
                assert np.max(np.abs(dressed_frame_hamiltonian(p, nu, t) - expected)) < 1e-12
