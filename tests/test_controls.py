import math

import numpy as np
import pytest

from conftest import (
    OMEGA0,
    bisect_decreasing_reference,
    default_antisymmetric_gamma_rate,
    energy_cost_reference,
    max_amplitude_reference,
    params,
)
from tripod_sta import controls
from tripod_sta.controls import (
    ControlParams,
    DressingAngle,
    Flavor,
    GenericDressingSingular,
    PulseShape,
    _bisect_decreasing,
    amplitude_threshold_time,
    cost_threshold_time,
    energy_cost,
    envelope_rows,
    generic_dressing,
    make_envelopes,
    make_pulse_shape,
    satd_dressing_angle,
)
from tripod_sta.tripod import dressed_frame_fields

SQRT2 = math.sqrt(2.0)


class TestPulseShape:
    def test_ramp_midpoint(self):
        shape = make_pulse_shape(4.0)
        # P(1/2) = 6/32 - 15/16 + 10/8 = 1/2 at the quarter point
        assert shape(1.0)[0] == pytest.approx(math.pi / 4, abs=1e-15)

    def test_boundary_values(self):
        # Exact: tripod.frame_ends builds the frame changes at these angles.
        for tg in (1e-6, 0.37, 3.7, 30.0, 1e3):
            shape = make_pulse_shape(tg)
            assert shape(0.0)[0] == 0.0
            assert shape(0.5 * tg)[0] == 0.5 * math.pi
            assert shape(tg)[0] == 0.0
            for t in (0.0, 0.5 * tg, tg):
                _, td, tdd = shape(t)
                assert td == pytest.approx(0.0, abs=1e-13)
                assert tdd == pytest.approx(0.0, abs=1e-13)

    def test_mirror_symmetry(self):
        tg = 5.0
        shape = make_pulse_shape(tg)
        for t in np.linspace(0.0, tg, 41):
            th, td, _ = shape(float(t))
            th_m, td_m, _ = shape(tg - float(t))
            assert th_m == pytest.approx(th, abs=1e-13)
            assert td_m == pytest.approx(-td, abs=1e-13)

    def test_peak_rate(self):
        # max theta_dot = (pi/2)*(15/8)*(2/tg), attained at tg/4.
        tg = 2.5
        shape = make_pulse_shape(tg)
        ts = np.linspace(0.0, tg, 20001)
        rates = np.array([shape(float(t))[1] for t in ts])
        peak = 0.5 * math.pi * (15.0 / 8.0) * 2.0 / tg
        assert np.max(rates) == pytest.approx(peak, rel=1e-8)
        assert ts[int(np.argmax(rates))] == pytest.approx(0.25 * tg, abs=2e-4 * tg)

    def test_grid_matches_scalar(self):
        # One code path: an array call equals the float calls element by
        # element, bit for bit, at the segment boundary t_g/2 and at t_g too.
        tg = 1.8
        shape = make_pulse_shape(tg)
        ts = np.linspace(0.0, tg, 17)
        assert 0.5 * tg in ts and ts[-1] == tg
        grid = shape(ts)
        for i, t in enumerate(ts):
            assert tuple(a[i] for a in grid) == shape(float(t))

        def bits(*values):
            return np.asarray(values, dtype=complex).tobytes()

        for flavor in Flavor:
            p = params(tg, flavor)
            env = make_envelopes(p, shape)
            fs, fc = env.profile(ts)
            for i, t in enumerate(ts):
                assert bits(fs[i], fc[i]) == bits(*env.profile(float(t)))
            if flavor is Flavor.ADIABATIC:
                # The infinite gap gives kappa = +-0: the plain legs, bit for bit.
                theta = grid[0]
                assert bits(*env.profile(ts)) == bits(np.sin(theta), np.cos(theta))
            envelopes = env.evaluate(ts)
            for i, t in enumerate(ts):
                assert bits(*(o[i] for o in envelopes)) == bits(*env.evaluate(float(t)))
            for nu in (satd_dressing_angle(p, shape), generic_dressing(p, shape, default_antisymmetric_gamma_rate(p))):
                angle, rate = nu.angle(ts), nu.rate(ts)
                b, xi, phase_rate = dressed_frame_fields(p, shape, nu, ts)
                for i, t in enumerate(ts):
                    assert bits(angle[i], rate[i]) == bits(nu.angle(float(t)), nu.rate(float(t)))
                    b_t, xi_t, phase_rate_t = dressed_frame_fields(p, shape, nu, float(t))
                    assert bits(*b[:, i], *xi[:, i], phase_rate[i]) == bits(*b_t, *xi_t, phase_rate_t)


def test_gap_sq_is_infinite_only_for_the_adiabatic_flavor():
    # 1e200: a product, where ** would raise OverflowError on a float.
    for gap in (np.array([0.5, 3.0]), 3.0, 1e200):
        assert np.array_equal(controls._gap_sq(Flavor.SATD, gap), gap * gap)
        assert np.all(controls._gap_sq(Flavor.ADIABATIC, gap) == math.inf)


class TestControlParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ControlParams(-1.0, 0.1, 0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            ControlParams(1.0, 2.0, 0.0, 0.1, 1.0)  # alpha out of range
        with pytest.raises(ValueError, match="beta"):
            ControlParams(1.0, 0.1, 2.0 * math.pi, 0.1, 1.0)  # beta out of [0, 2*pi)
        with pytest.raises(ValueError):
            ControlParams(1.0, 0.1, 0.0, 7.0, 1.0)  # gamma0 out of range
        with pytest.raises(ValueError):
            ControlParams(1.0, 0.1, 0.0, 0.1, 1.0, amp_scale=0.0)
        with pytest.raises(ValueError, match="omega0 \\* amp_scale"):
            ControlParams(OMEGA0, 0.1, 0.0, 0.1, 1.0, amp_scale=1e308)  # amp_scale*omega0 overflows
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError):
                ControlParams(bad, 0.1, 0.0, 0.1, 1.0)
            with pytest.raises(ValueError):
                ControlParams(1.0, 0.1, 0.0, 0.1, bad)
            with pytest.raises(ValueError):
                make_pulse_shape(bad)

    def test_flavor_factory_dispatch(self):
        assert make_envelopes(params(2.0, Flavor.ADIABATIC)).params.flavor is Flavor.ADIABATIC
        assert make_envelopes(params(2.0, Flavor.SATD)).params.flavor is Flavor.SATD

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_rejects_any_shape_but_the_quintic_ramp(self, flavor):
        # Every propagation path evaluates the quintic ramp from params alone,
        # so a subclass that reshapes theta would be silently ignored there.
        class Linear(PulseShape):
            def __call__(self, t):
                return 0.5 * math.pi * t / self.t_gate, 0.5 * math.pi / self.t_gate, 0.0 * t

        with pytest.raises(ValueError, match="quintic PulseShape"):
            make_envelopes(params(1.0, flavor), Linear(1.0))


class TestAdiabaticEnvelopes:
    def test_endpoints(self):
        p = params(3.0)
        env = make_envelopes(p, make_pulse_shape(3.0))
        o0, o1, oa = env.evaluate(0.0)
        assert abs(o0) < 1e-14 and abs(o1) < 1e-14
        assert oa == pytest.approx(OMEGA0, abs=1e-12)
        o0, o1, oa = env.evaluate(1.5)
        assert abs(oa) < 1e-12
        assert abs(o0) ** 2 + abs(o1) ** 2 == pytest.approx(OMEGA0**2, rel=1e-12)

    def test_equal_legs_at_alpha_pi4(self):
        env = make_envelopes(params(2.0, alpha=math.pi / 4, beta=0.0))
        for t in np.linspace(0.0, 2.0, 21):
            o0, o1, _ = env.evaluate(float(t))
            assert o0 == pytest.approx(o1, abs=1e-13)

    def test_constant_gap(self):
        env = make_envelopes(params(1.3, alpha=0.9, beta=1.1))
        for t in np.linspace(0.0, 1.3, 29):
            o0, o1, oa = env.evaluate(float(t))
            total = abs(o0) ** 2 + abs(o1) ** 2 + abs(oa) ** 2
            assert total == pytest.approx(OMEGA0**2, rel=1e-12)

    def test_amp_scale_multiplies_everything(self):
        env1 = make_envelopes(params(2.0))
        env2 = make_envelopes(params(2.0, amp_scale=1.3))
        for t in (0.3, 1.0, 1.7):
            for a, b in zip(env1.evaluate(t), env2.evaluate(t)):
                assert b == pytest.approx(1.3 * a, abs=1e-13)

    def test_phase_jump_on_second_half(self):
        g0 = 1.2
        env = make_envelopes(params(2.0, gamma0=g0))
        _, _, oa = env.evaluate(1.7)
        assert math.atan2(oa.imag, oa.real) == pytest.approx(g0, abs=1e-12)

    def test_max_amplitude_and_cost(self):
        p = params(2.0)
        env = make_envelopes(p)
        assert env.max_amplitude == pytest.approx(OMEGA0, rel=1e-9)
        assert energy_cost(env, p) == pytest.approx(0.5 * OMEGA0, rel=1e-9)


class TestSatdEnvelopes:
    def test_slow_limit_reduces_to_adiabatic(self):
        # Bracket deviation is bounded by 4*max|theta_ddot|/omega0^2.
        tg = 60.0
        p = params(tg, Flavor.SATD)
        shape = make_pulse_shape(tg)
        env = make_envelopes(p, shape)
        env_ad = make_envelopes(params(tg), shape)
        ts = np.linspace(0.0, tg, 101)
        bound = 4.0 * 2.0 * math.pi * (10.0 / math.sqrt(3.0)) / tg**2 / OMEGA0**2
        for t in ts:
            for a, b in zip(env.evaluate(float(t)), env_ad.evaluate(float(t))):
                assert abs(a - b) <= OMEGA0 * bound * (1.0 + 1e-9)

    def test_midpoint_a_leg_vanishes(self):
        env = make_envelopes(params(1.0, Flavor.SATD), make_pulse_shape(1.0))
        assert abs(env.evaluate(0.5)[2]) < 1e-12

    def test_corrections_designed_at_nominal(self):
        # Mis-calibration must scale the whole set, not re-derive corrections.
        shape = make_pulse_shape(2.0)
        env1 = make_envelopes(params(2.0, Flavor.SATD), shape)
        env2 = make_envelopes(params(2.0, Flavor.SATD, amp_scale=0.8), shape)
        for t in (0.4, 0.9, 1.6):
            for a, b in zip(env1.evaluate(t), env2.evaluate(t)):
                assert b == pytest.approx(0.8 * a, abs=1e-13)

    def test_amplitude_threshold_bisection(self):
        p = params(1.0, Flavor.SATD)
        t_star = amplitude_threshold_time(p)
        assert 1.5 < t_star < 2.5
        below = make_envelopes(params(0.97 * t_star, Flavor.SATD), make_pulse_shape(0.97 * t_star))
        above = make_envelopes(params(1.03 * t_star, Flavor.SATD), make_pulse_shape(1.03 * t_star))
        # Above threshold the peak sits at t = 0 where the correction vanishes,
        # so the maximum equals omega0 exactly; below it the interior exceeds it.
        assert below.max_amplitude > OMEGA0 * (1.0 + 1e-6)
        assert above.max_amplitude == pytest.approx(OMEGA0, rel=1e-12)

    def test_bisection_stops_at_adjacent_floats(self):
        calls = []

        def f(x):
            calls.append(x)
            return 1.3 - x

        root = _bisect_decreasing(f, 0.1, 4.0)
        assert abs(root - 1.3) <= math.ulp(1.3)
        assert len(calls) <= 60


class TestDressingAngles:
    def test_satd_angle_zeros_and_sign(self):
        tg = 2.0
        shape = make_pulse_shape(tg)
        nu = satd_dressing_angle(params(tg, Flavor.SATD), shape)
        for t in (0.0, 0.5 * tg, tg):
            assert nu.angle(t) == pytest.approx(0.0, abs=1e-12)
        for t in np.linspace(0.05, tg - 0.05, 19):
            td = shape(float(t))[1]
            if abs(td) > 1e-12:
                assert math.copysign(1.0, nu.angle(float(t))) == math.copysign(1.0, td)

    def test_satd_angle_shrinks_with_gate_time(self):
        peaks = []
        for tg in (1.0, 4.0, 16.0):
            shape = make_pulse_shape(tg)
            nu = satd_dressing_angle(params(tg, Flavor.SATD), shape)
            ts = np.linspace(0.0, tg, 101)
            peaks.append(max(abs(nu.angle(float(t))) for t in ts))
        assert peaks[0] > peaks[1] > peaks[2]

    def test_satd_rate_matches_finite_difference(self):
        tg = 2.0
        shape = make_pulse_shape(tg)
        nu = satd_dressing_angle(params(tg, Flavor.SATD), shape)
        h = 1e-6
        for t in (0.3, 0.8, 1.4):
            fd = (nu.angle(t + h) - nu.angle(t - h)) / (2.0 * h)
            assert nu.rate(t) == pytest.approx(fd, rel=1e-6, abs=1e-8)


class TestGenericDressing:
    def test_zero_phase_rate(self):
        tg = 3.0
        p = params(tg)
        shape = make_pulse_shape(tg)
        mu = generic_dressing(p, shape, lambda t: 0.0)
        ts = np.linspace(0.0, tg, 11)
        assert max(abs(mu.angle(float(t))) for t in ts) < 1e-15
        assert max(abs(mu.rate(float(t))) for t in ts) == 0.0

    def test_antisymmetric_rate_closes_the_loop(self):
        tg = 3.0
        p = params(tg)
        shape = make_pulse_shape(tg)
        profiles = [
            default_antisymmetric_gamma_rate(p),
            lambda t: np.sin(4.0 * math.pi * t / tg),
            lambda t: (t / tg) * (1.0 - t / tg) * (1.0 - 2.0 * t / tg),
        ]
        for rate in profiles:
            mu = generic_dressing(p, shape, rate)
            assert abs(mu.angle(tg)) < 1e-10

    def test_rate_evaluator_is_analytic(self):
        tg = 2.0
        p = params(tg)
        shape = make_pulse_shape(tg)
        rate = default_antisymmetric_gamma_rate(p)
        mu = generic_dressing(p, shape, rate)
        for t in (0.3, 1.1, 1.8):
            expected = math.sin(2.0 * shape(t)[0]) * rate(t) / SQRT2
            assert mu.rate(t) == pytest.approx(expected, abs=1e-14)

    def test_singular_dressing_raises(self):
        tg = 4.0
        p = params(tg)
        shape = make_pulse_shape(tg)
        with pytest.raises(GenericDressingSingular):
            generic_dressing(p, shape, lambda t: 40.0 * np.sin(2.0 * math.pi * t / tg))


class TestEnergyCost:
    def test_adiabatic_cost_is_half_gap(self):
        for tg in (0.7, 2.0, 11.0):
            p = params(tg)
            env = make_envelopes(p)
            assert energy_cost(env, p) == pytest.approx(0.5 * OMEGA0, rel=1e-10)

    def test_satd_cost_dominates_and_decays(self):
        costs = []
        for tg in (0.8, 1.5, 3.0, 8.0):
            p = params(tg, Flavor.SATD)
            c = energy_cost(make_envelopes(p), p)
            assert c >= 0.5 * OMEGA0 - 1e-12
            costs.append(c)
        assert all(a >= b for a, b in zip(costs, costs[1:]))
        assert costs[-1] == pytest.approx(0.5 * OMEGA0, rel=1e-3)

    def test_cost_thresholds(self):
        p = params(1.0, Flavor.SATD)
        # 1.001 lies at 7.61 cycles, past the initial bracket of 2 cycles.
        for mult in (1.001, 2.0, 3.0):
            t_star = cost_threshold_time(p, mult)
            p_star = params(t_star, Flavor.SATD)
            c = energy_cost_reference(make_envelopes(p_star), 501)
            assert c == pytest.approx(mult * 0.5 * OMEGA0, rel=1e-6)
        assert cost_threshold_time(p, 1.001) == pytest.approx(7.61, abs=0.005)
        t2 = cost_threshold_time(p, 2.0)
        t3 = cost_threshold_time(p, 3.0)
        assert t3 < t2  # higher cost budget admits faster gates
        with pytest.raises(ValueError, match="must exceed 1"):
            cost_threshold_time(p, 1.0)
        # Beyond the cost at the shortest gate time searched.
        with pytest.raises(ValueError, match="bisection bracket not found"):
            cost_threshold_time(p, 1e6)

    def test_closed_form_matches_spectrum(self):
        # Simpson sum of max |eigvalsh(H(t))|, the definition the closed form
        # replaces; energy_cost matches this reference in TestThresholdScans.
        from tripod_sta.tripod import hamiltonian

        n = 201
        weights = np.ones(n)
        weights[1:-1:2] = 4.0
        weights[2:-1:2] = 2.0
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            for tg in (0.7, 2.0, 6.0):
                p = params(tg, flavor, alpha=0.5, beta=1.0, amp_scale=1.1)
                env = make_envelopes(p)
                norms = [np.max(np.abs(np.linalg.eigvalsh(hamiltonian(env, t)))) for t in np.linspace(0.0, tg, n)]
                reference = float(np.dot(weights, norms)) / (3.0 * (n - 1))
                assert energy_cost_reference(env, n) == pytest.approx(reference, rel=1e-14)

    def test_rejects_params_of_other_envelopes(self):
        # Envelopes at 2 cycles costed over a 3-cycle gate used to give 3.649
        # where the matching pair gives 3.249.
        p2, p3 = params(2.0, Flavor.SATD), params(3.0, Flavor.SATD)
        with pytest.raises(ValueError, match="params and env.params disagree"):
            energy_cost(make_envelopes(p2), p3)
        with pytest.raises(ValueError, match="params and env.params disagree"):
            energy_cost(make_envelopes(p2), p2.with_amp_scale(1.1))


class TestThresholdScans:
    """EnvelopeSet.max_amplitude, energy_cost and the threshold searches
    read scaled-time tables of the unit-gate ramp; max_amplitude_reference
    and energy_cost_reference in conftest are their t-domain definitions."""

    @staticmethod
    def excess_and_bracket(monkeypatch, search):
        seen = []
        monkeypatch.setattr(controls, "_bisect_decreasing", lambda f, lo, hi: seen.append((f, lo, hi)) or 1.0)
        search()
        monkeypatch.undo()
        return seen[0]

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.2])
    def test_excess_matches_the_t_domain_definitions(self, monkeypatch, alpha):
        p = params(1.0, Flavor.SATD, alpha=alpha)
        f, lo, hi = self.excess_and_bracket(monkeypatch, lambda: amplitude_threshold_time(p))
        for tg in np.linspace(lo, hi, 20).tolist():
            peak = max_amplitude_reference(make_envelopes(params(tg, Flavor.SATD, alpha=alpha)))
            assert abs(f(tg) - (peak - OMEGA0)) <= 1e-13 * peak
        for mult in (2.0, 3.0):
            f, lo, hi = self.excess_and_bracket(monkeypatch, lambda: cost_threshold_time(p, mult))
            for tg in np.linspace(lo, hi, 20).tolist():
                q = params(tg, Flavor.SATD, alpha=alpha)
                cost = energy_cost_reference(make_envelopes(q), 501)
                assert abs(f(tg) - (cost - mult * 0.5 * OMEGA0)) <= 1e-13 * cost

    @pytest.mark.parametrize(
        "omega0, multiple, t_domain_hex",
        [
            # The thresholds of the t-domain scans the tables replaced.
            (OMEGA0, None, "0x1.daf35d210f048p+0"),
            (OMEGA0, 2.0, "0x1.cb248c63c4fcap-1"),
            (OMEGA0, 3.0, "0x1.34c56a89bedeep-1"),
            (37.0, None, "0x1.429dd4c2fbb1cp-2"),
            (37.0, 1.5, "0x1.aea379a4f6432p-3"),
        ],
    )
    def test_thresholds_within_8_ulp_of_the_t_domain_scans(self, omega0, multiple, t_domain_hex):
        p = ControlParams(omega0, math.pi / 4, 0.0, math.pi, 1.0, Flavor.SATD)
        t_star = amplitude_threshold_time(p) if multiple is None else cost_threshold_time(p, multiple)
        reference = float.fromhex(t_domain_hex)
        assert abs(t_star - reference) <= 8 * math.ulp(reference)

    @pytest.mark.parametrize("flavor", list(Flavor))
    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.2])
    @pytest.mark.parametrize("amp_scale", [0.87, 1.0, 1.13])
    def test_diagnostics_match_the_t_domain_definitions(self, flavor, alpha, amp_scale):
        # 1e200 cycles: (omega0*t_gate)^2 leaves the float range, so kappa = 0.
        for tg in np.geomspace(1e-3, 300.0, 25).tolist() + [1e200]:
            p = params(tg, flavor, alpha=alpha, beta=0.5, amp_scale=amp_scale)
            env = make_envelopes(p)
            assert env.max_amplitude == pytest.approx(max_amplitude_reference(env), rel=1e-13)
            assert energy_cost(env, p) == pytest.approx(energy_cost_reference(env), rel=1e-13)

    def test_each_table_is_built_once_and_read_only(self, monkeypatch):
        # No diagnostic evaluates the envelope profile in physical time, and
        # the searches build no envelope sets.  A call builds its one
        # unit-gate table unless that table exists already, a repeat call
        # builds none and returns the same value, and tables and Simpson
        # weights are read-only.
        ramps = []
        ramp = controls.PulseShape.ramp

        def counted(tg, t):
            ramps.append(np.size(t))
            return ramp(tg, t)

        def forbidden(*args, **kwargs):
            raise AssertionError("pulse diagnostics scan unit-gate tables, not envelope sets")

        p = params(1.0, Flavor.SATD)
        envs = [make_envelopes(params(1.0, flavor)) for flavor in Flavor]
        monkeypatch.setattr(controls.PulseShape, "ramp", staticmethod(counted))
        monkeypatch.setattr(controls.EnvelopeSet, "profile", forbidden)
        monkeypatch.setattr(controls, "make_envelopes", forbidden)
        monkeypatch.setattr(controls, "energy_cost", forbidden)
        calls = [(lambda: amplitude_threshold_time(p), 4001), (lambda: cost_threshold_time(p, 2.0), 501)]
        for env in envs:
            calls += [(lambda env=env: env.max_amplitude, 4001), (lambda env=env: energy_cost(env, env.params), 1001)]
        for call, size in calls:
            controls._unit_ramp_table.cache_clear()
            results = []
            for built in ([size], []):
                ramps.clear()
                results.append(call())
                assert ramps == built
            assert results[0] == results[1]
        for n in (501, 1001):
            assert not any(column.flags.writeable for column in controls._unit_ramp_table(1.0, n))
            assert not controls._simpson_weights(n).flags.writeable


class TestThresholdSearch:
    """_bisect_decreasing against bisect_decreasing_reference, the bisection
    to adjacent floats it replaced: the same float from fewer evaluations."""

    @staticmethod
    def searches(monkeypatch):
        """(f, lo, hi) of the amplitude and cost threshold searches over a
        grid of omega0 with seeded alpha (both ends included) and cost
        multiples, and of seeded synthetic hockey sticks: smooth and
        decreasing below a root x0, exactly 0 above it (like the amplitude
        excess), convex or concave, some past the first bracket."""
        rng = np.random.default_rng(20261022)
        seen = []
        monkeypatch.setattr(controls, "_bisect_decreasing", lambda f, lo, hi: seen.append((f, lo, hi)) or 1.0)
        for omega0 in (OMEGA0, 1.0, 7.3, 37.0, 1e3, 1e-3):
            for alpha in [0.0, 0.5 * math.pi] + rng.uniform(0.0, 0.5 * math.pi, 8).tolist():
                amplitude_threshold_time(ControlParams(omega0, alpha, 0.0, math.pi, 1.0, Flavor.SATD))
            for multiple in (1.001, 1.05, 1.5, 2.0, 3.0, 10.0):
                cost_threshold_time(ControlParams(omega0, math.pi / 4, 0.0, math.pi, 1.0, Flavor.SATD), multiple)
        monkeypatch.undo()
        for _ in range(110):
            x0 = 10.0 ** rng.uniform(math.log10(0.11), math.log10(30.0))
            curvature, scale = rng.uniform(-0.45 / x0, 5.0), 10.0 ** rng.uniform(-6.0, 6.0)

            def hockey_stick(x, x0=x0, curvature=curvature, scale=scale):
                return scale * (x0 - x) * (1.0 + curvature * (x0 - x)) if x < x0 else 0.0

            seen.append((hockey_stick, 0.1, 4.0))
        return seen

    def test_same_float_as_bisection_from_at_most_24_evaluations(self, monkeypatch):
        searches = self.searches(monkeypatch)
        assert len(searches) >= 200
        evaluations = []
        for f, lo, hi in searches:
            calls = []

            def counted(x, f=f):
                calls.append(x)
                return f(x)

            assert controls._bisect_decreasing(counted, lo, hi) == bisect_decreasing_reference(f, lo, hi)
            evaluations.append(len(calls))
        assert max(evaluations) <= 24
        # Bisection alone takes about 56.
        assert sum(evaluations) / len(evaluations) < 18.0

    def test_thresholds_are_those_of_bisection(self, monkeypatch):
        # The public searches return the reference's float.
        p = ControlParams(OMEGA0, 0.7, 0.0, math.pi, 1.0, Flavor.SATD)
        values = [amplitude_threshold_time(p), cost_threshold_time(p, 2.0), cost_threshold_time(p, 3.0)]
        monkeypatch.setattr(controls, "_bisect_decreasing", bisect_decreasing_reference)
        assert values == [amplitude_threshold_time(p), cost_threshold_time(p, 2.0), cost_threshold_time(p, 3.0)]


def test_envelope_rows_layout():
    p = params(2.0, amp_scale=1.25)
    rows = envelope_rows(make_envelopes(p), 5)
    assert len(rows) == 5
    t, re0, im0, re1, im1, rea, ima = rows[0]
    assert t == 0.0
    assert (re0, im0, re1, im1) == (0.0, 0.0, 0.0, 0.0)
    assert rea == pytest.approx(1.25 * OMEGA0, rel=1e-12)
    assert ima == 0.0
    with pytest.raises(ValueError):
        envelope_rows(make_envelopes(p), 1)
