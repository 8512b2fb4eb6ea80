import math

import numpy as np
import pytest

from conftest import axial_average_reference, params, random_hermitian, random_unitary
from tripod_sta import metrics
from tripod_sta.controls import Flavor, amplitude_threshold_time, make_envelopes, make_pulse_shape
from tripod_sta.dynamics import (
    NoiseModel, NumericalError, PropagationResult, propagate_lindblad_batch, propagate_unitary_batch,
)
from tripod_sta.metrics import (
    AXIAL_QUBIT_STATES,
    analytic_satd_dephasing_fidelity,
    avg_gate_fidelity,
    clamp_error,
    closed_form_fidelities,
    map_fidelity,
    map_fidelity_uncertainty_avg,
    nominal_and_uncertainty_avg,
    point_chunks,
    qubit_overlap_operator,
)
from tripod_sta.tripod import ideal_gate
from tripod_sta.qmath import IntegratorConfig

CFG = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-11)
FAST = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)


class TestAvgGateFidelity:
    def test_identity(self):
        assert avg_gate_fidelity(np.eye(4, dtype=complex), 4) == pytest.approx(1.0, abs=1e-15)

    def test_opposite_phases(self):
        o = np.diag([1.0, np.exp(1j * math.pi)])
        assert avg_gate_fidelity(o, 2) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_phase_times_identity_is_perfect(self, rng):
        for _ in range(5):
            phase = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
            assert avg_gate_fidelity(phase * np.eye(4), 4) == pytest.approx(1.0, abs=1e-12)

    def test_dimension_checked(self):
        with pytest.raises(ValueError):
            avg_gate_fidelity(np.eye(4), 2)

    def test_stack_equals_one_point_calls(self, rng):
        for d in (2, 4):
            os = rng.normal(size=(2, 5, d, d)) + 1j * rng.normal(size=(2, 5, d, d))
            fids = avg_gate_fidelity(os, d)
            assert fids.shape == (2, 5)
            for o, f in zip(os.reshape(-1, d, d), fids.ravel()):
                assert f == avg_gate_fidelity(o, d)


class TestClosedForms:
    def test_full_space_value(self):
        # omega0*tg = 20*pi gives 1 - pi^2/490 exactly.
        f_full, _ = closed_form_fidelities(params(10.0))
        assert f_full == pytest.approx(1.0 - math.pi**2 / 490.0, abs=1e-14)

    def test_qubit_formula_zeros(self):
        for cyc in (4.0, 8.0):  # first special-time family
            _, f_qubit = closed_form_fidelities(params(cyc, gamma0=0.7))
            assert f_qubit == pytest.approx(1.0, abs=1e-12)
        for cyc in (2.0, 6.0):  # second family exists only for gamma0 = pi
            _, f_qubit = closed_form_fidelities(params(cyc, gamma0=math.pi))
            assert f_qubit == pytest.approx(1.0, abs=1e-12)

    def test_slow_limit(self):
        f_full, f_qubit = closed_form_fidelities(params(3000.0))
        assert f_full == pytest.approx(1.0, abs=1e-6)
        assert f_qubit == pytest.approx(1.0, abs=1e-12)


class TestMapFidelity:
    def test_axial_states_are_normalized(self):
        for rho in AXIAL_QUBIT_STATES:
            assert np.trace(rho).real == pytest.approx(1.0, abs=1e-15)
            assert np.max(np.abs(rho - rho.conj().T)) == 0.0

    def test_noiseless_accelerated_gate_is_perfect(self):
        p = params(2.0, Flavor.SATD)
        f = map_fidelity(p, make_envelopes(p), NoiseModel(), CFG)
        assert 1.0 - f < 1e-6

    def test_noiseless_adiabatic_improves_with_time(self):
        # The error is oscillatory (refocusing dips), so compare points away
        # from the dips; the envelope falls by orders of magnitude.
        errs = []
        for cyc in (3.0, 5.0, 12.3):
            p = params(cyc)
            errs.append(1.0 - map_fidelity(p, make_envelopes(p), NoiseModel(), FAST))
        assert errs[0] > 5.0 * errs[1]
        assert errs[1] > 10.0 * errs[2]

    def test_rejects_envelopes_of_other_params(self):
        # Envelopes at 2 cycles integrated over a 3-cycle gate used to give
        # 0.3336 where the matching pair gives 0.9984.
        p2, p3 = params(2.0, Flavor.SATD), params(3.0, Flavor.SATD)
        with pytest.raises(ValueError, match="params and env.params disagree"):
            map_fidelity(p3, make_envelopes(p2), NoiseModel(), FAST)

    def test_dephasing_lifts_special_time_dips(self):
        # At a refocusing dip the noiseless map error nearly vanishes, but
        # excited-state dephasing keeps the gate imperfect.
        p = params(7.1)
        env = make_envelopes(p)
        clean = 1.0 - map_fidelity(p, env, NoiseModel(), FAST)
        noisy = 1.0 - map_fidelity(p, env, NoiseModel((0.0, 0.0, 0.0, 1e-2)), FAST)
        assert clean < 1e-4
        assert noisy > 10.0 * clean


class TestUncertaintyAverage:
    def test_zero_width_reduces_to_nominal(self):
        p = params(2.0, Flavor.SATD)
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2), k=0.0)
        direct = map_fidelity(p, make_envelopes(p), noise, FAST)
        averaged = map_fidelity_uncertainty_avg(p, noise, 7, FAST)
        assert averaged == pytest.approx(direct, abs=1e-12)

    def test_uncertainty_is_irrelevant_when_slow(self):
        # Amplitude miscalibration barely matters deep in the adiabatic regime.
        p = params(20.0)
        noise = NoiseModel(k=0.2)
        eps = 1.0 - map_fidelity_uncertainty_avg(p, noise, 11, FAST)
        assert eps < 2e-3

    def test_uncertainty_hurts_fast_accelerated_gates(self):
        p = params(2.0, Flavor.SATD)
        nominal = 1.0 - map_fidelity(p, make_envelopes(p), NoiseModel(), FAST)
        averaged = 1.0 - map_fidelity_uncertainty_avg(p, NoiseModel(k=0.2), 11, FAST)
        assert nominal < 1e-6
        assert averaged > 1e-3

    def test_batched_nodes_match_explicit_quadrature(self):
        # One shared-mesh solve over all nodes against a loop of map_fidelity
        # calls, each on envelopes rebuilt at the node's amplitude.
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2), k=0.2)
        nodes, weights = np.polynomial.legendre.leggauss(11)
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            for tg in (2.0, 5.0):
                p = params(tg, flavor)
                loop = 0.0
                for x, w in zip(nodes, weights):
                    p_r = p.with_amp_scale(1.0 + noise.k * x)
                    loop += w * map_fidelity(p_r, make_envelopes(p_r), noise, FAST)
                batched = map_fidelity_uncertainty_avg(p, noise, 11, FAST)
                assert abs(batched - 0.5 * loop) < 10.0 * FAST.rel_tol

    def test_nominal_member_matches_map_fidelity(self):
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2), k=0.2)
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            p = params(2.0, flavor)
            [(nominal, averaged)] = nominal_and_uncertainty_avg([p], noise, 11, FAST)
            assert abs(nominal - map_fidelity(p, make_envelopes(p), noise, FAST)) < 10.0 * FAST.rel_tol
            assert averaged == map_fidelity_uncertainty_avg(p, noise, 11, FAST)

    def test_continuous_in_k_at_a_mis_scaled_amplitude(self):
        # Every member carries params.amp_scale, so k -> 0 meets the k = 0 path.
        p = params(3.0, Flavor.SATD, amp_scale=1.1)
        at_zero, near_zero = (
            nominal_and_uncertainty_avg([p], NoiseModel((0.0, 0.0, 0.0, 0.01), k), 11, FAST)[0] for k in (0.0, 1e-9)
        )
        assert np.max(np.abs(np.subtract(at_zero, near_zero))) < 10.0 * FAST.rel_tol

    def test_node_count_validated(self):
        # Odd counts only: the nominal scale 1 is then the middle node.
        for n_nodes in (0, 2, 4, metrics.MAX_UNCERTAINTY_NODES + 1, metrics.MAX_UNCERTAINTY_NODES + 2):
            with pytest.raises(ValueError):
                map_fidelity_uncertainty_avg(params(2.0), NoiseModel(k=0.1), n_nodes, FAST)
            with pytest.raises(ValueError):
                nominal_and_uncertainty_avg([params(2.0)], NoiseModel(), n_nodes, FAST)

    def test_rejects_a_shape_of_another_gate_time(self):
        with pytest.raises(ValueError, match="disagree"):
            map_fidelity_uncertainty_avg(params(3.0), NoiseModel(k=0.1), 3, FAST, make_pulse_shape(2.0))

    def test_solves_only_the_members_it_uses(self, monkeypatch):
        # The average solves the four independent axial inputs per node.  The
        # nominal map is the middle node x = 0 of the odd rule, and at k = 0
        # the only one, so it adds no group of its own; map_fidelity solves
        # scale 1 alone at any k.
        solved = []
        batch = metrics.propagate_lindblad_batch

        def counting_batch(params, env, noise, rho0s, *args):
            solved.append(len(rho0s))
            return batch(params, env, noise, rho0s, *args)

        monkeypatch.setattr(metrics, "propagate_lindblad_batch", counting_batch)
        p = params(2.0, Flavor.SATD)
        for k, n_nodes, expected in ((0.2, 5, [20, 20, 4]), (0.0, 5, [4, 4, 4])):
            solved.clear()
            noise = NoiseModel((0.0, 0.0, 0.0, 1e-2), k)
            map_fidelity_uncertainty_avg(p, noise, n_nodes, FAST)
            nominal_and_uncertainty_avg([p], noise, n_nodes, FAST)
            map_fidelity(p, make_envelopes(p), noise, FAST)
            assert solved == expected


class TestFourInputMaps:
    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_four_inputs_match_the_six_state_solve(self, flavor):
        # The -x and -y images rebuilt by linearity against a solve of all
        # six axial states at every node.
        noise = NoiseModel((0.0, 0.01, 0.0, 0.02), k=0.2)
        p = params(2.0, flavor)
        nodes, weights = np.polynomial.legendre.leggauss(7)
        scales = np.repeat(1.0 + noise.k * nodes, 6)
        rho0s = np.tile(AXIAL_QUBIT_STATES, (len(nodes), 1, 1))
        results = propagate_lindblad_batch(p, make_envelopes(p), noise, rho0s, FAST, scales)
        fids = metrics._axial_average(ideal_gate(p)[:2, :2], [res.final_operator for res in results])
        six_state = float(np.dot(weights, fids)) / 2.0
        assert abs(map_fidelity_uncertainty_avg(p, noise, 7, FAST) - six_state) < 10.0 * FAST.rel_tol

    def test_batched_average_equals_the_per_state_loop(self, rng):
        # Bit for bit, for a stack and for a list of final states.
        target = random_unitary(rng, 2)
        finals = np.stack([random_hermitian(rng, 4) for _ in range(6 * 7)])
        expected = axial_average_reference(target, finals)
        for given in (finals, list(finals)):
            got = metrics._axial_average(target, given)
            assert got.shape == (7,)
            assert np.array_equal(got, expected)

    def test_rebuilt_images_are_checked(self, monkeypatch):
        # Solved images that pass the checks, but whose rebuilt -y image of
        # the second point, |0><0| + |1><1| - |a><a|, has eigenvalue -1.
        def fake_batch(params, env, noise, rho0s, cfg, amp_scales, t_gates):
            finals = np.array(rho0s)
            finals[5] = np.diag([0.0, 0.0, 1.0, 0.0])
            return [PropagationResult(rho, 1, 0) for rho in finals]

        monkeypatch.setattr(metrics, "propagate_lindblad_batch", fake_batch)
        points = [params(tg) for tg in (2.0, 2.5, 3.0)]
        with pytest.raises(NumericalError, match="minimum eigenvalue") as info:
            nominal_and_uncertainty_avg(points, NoiseModel(), 1, FAST)
        assert info.value.member == 1

    def test_step_failure_names_the_longest_gate_of_its_chunk(self, monkeypatch):
        # The longest gate sets the shared mesh; a stalled step is tied to
        # no member, so it names that point, here the second of three.
        from tripod_sta import qmath

        monkeypatch.setattr(qmath, "ODE_MAX_STEPS", 5)
        points = [params(tg) for tg in (2.0, 3.0, 2.5)]
        with pytest.raises(qmath.OdeStepLimit, match="at tau = ") as info:
            nominal_and_uncertainty_avg(points, NoiseModel(), 1, FAST)
        assert info.value.member == 1

    def test_points_share_one_solve_and_match_their_own(self, monkeypatch):
        solved = []
        batch = metrics.propagate_lindblad_batch

        def counting_batch(params, env, noise, rho0s, *args):
            solved.append(len(rho0s))
            return batch(params, env, noise, rho0s, *args)

        monkeypatch.setattr(metrics, "propagate_lindblad_batch", counting_batch)
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2), k=0.2)
        points = [params(tg, Flavor.SATD) for tg in (1.5, 2.0, 3.0)]
        together = nominal_and_uncertainty_avg(points, noise, 3, FAST)
        assert solved == [36]
        for p, pair in zip(points, together):
            [alone] = nominal_and_uncertainty_avg([p], noise, 3, FAST)
            assert np.max(np.abs(np.subtract(pair, alone))) < 10.0 * FAST.rel_tol

    def test_rejects_no_points(self):
        # It used to end in an IndexError at points[0].
        with pytest.raises(ValueError, match="at least one protocol"):
            nominal_and_uncertainty_avg([], NoiseModel(), 1, FAST)

    def test_points_must_differ_in_gate_time_alone(self):
        points = [params(2.0), params(3.0, Flavor.SATD)]
        with pytest.raises(ValueError, match="t_gate alone"):
            nominal_and_uncertainty_avg(points, NoiseModel(k=0.1), 3, FAST)

    @pytest.mark.parametrize("n_points", [1, 43, 100])
    @pytest.mark.parametrize("k, n_nodes", [(0.0, 21), (0.2, 11), (0.2, 1023)])
    def test_chunks_are_contiguous_and_capped(self, n_points, k, n_nodes):
        # Four states per node, one node at k = 0; at 1023 nodes one point
        # alone exceeds MAX_SOLVE_STATES.
        per_point = 4 * (1 if k == 0.0 else n_nodes)
        chunks = point_chunks(n_points, k, n_nodes)
        assert [i for chunk in chunks for i in chunk] == list(range(n_points))
        assert all(len(chunk) * per_point <= metrics.MAX_SOLVE_STATES or len(chunk) == 1 for chunk in chunks)
        # Nearly equal: as few chunks as the cap allows, their sizes within one.
        cap = max(1, metrics.MAX_SOLVE_STATES // per_point)
        assert len(chunks) == -(-n_points // cap)
        assert max(map(len, chunks)) - min(map(len, chunks)) <= 1


class TestAnalyticSatdDephasing:
    def test_rejects_ground_state_rates(self):
        p = params(2.0, Flavor.SATD)
        with pytest.raises(ValueError):
            analytic_satd_dephasing_fidelity(p, make_pulse_shape(2.0), NoiseModel((1e-3, 0, 0, 1e-2)))

    def test_error_scales_linearly_in_rate(self):
        p = params(3.0, Flavor.SATD)
        shape = make_pulse_shape(3.0)
        e1 = 1.0 - analytic_satd_dephasing_fidelity(p, shape, NoiseModel((0, 0, 0, 1e-3)))
        e2 = 1.0 - analytic_satd_dephasing_fidelity(p, shape, NoiseModel((0, 0, 0, 2e-3)))
        assert e2 == pytest.approx(2.0 * e1, rel=1e-12)

    def test_slow_gates_decouple(self):
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2))
        eps_10 = 1.0 - analytic_satd_dephasing_fidelity(params(10.0, Flavor.SATD), make_pulse_shape(10.0), noise)
        eps_20 = 1.0 - analytic_satd_dephasing_fidelity(params(20.0, Flavor.SATD), make_pulse_shape(20.0), noise)
        assert eps_20 == pytest.approx(0.5 * eps_10, rel=0.2)

    def test_agrees_with_lindblad_numerics(self):
        noise = NoiseModel((0.0, 0.0, 0.0, 1e-2))
        p = params(4.0, Flavor.SATD)
        shape = make_pulse_shape(4.0)
        eps_pred = 1.0 - analytic_satd_dephasing_fidelity(p, shape, noise)
        eps_num = 1.0 - map_fidelity(p, make_envelopes(p, shape), noise, CFG)
        assert abs(eps_num - eps_pred) / eps_pred < 0.1


def test_satd_optimum_is_the_amplitude_threshold_on_criterion_08_sampling():
    # Criterion 08's SATD sampling: 10 gate times from 1.001 times the
    # amplitude threshold to the 10-cycle budget, k = 0.05, 3 nodes and all
    # four levels at rate s.  The smallest averaged error sits at the first
    # point for every rate from 3e-4 on; at 1e-4 it moves inside the window
    # (the seventh point), so that rate is left out.
    sweep = IntegratorConfig(rel_tol=5e-8, abs_tol=1e-10)
    t_thr = amplitude_threshold_time(params(1.0, Flavor.SATD))
    assert t_thr == pytest.approx(1.8553, abs=1e-4)
    grid = np.geomspace(1.001 * t_thr, 10.0, 10)
    for s in (3e-4, 1e-3, 3e-3, 1e-2):
        noise = NoiseModel((s, s, s, s), k=0.05)
        eps = [1.0 - map_fidelity_uncertainty_avg(params(float(tg), Flavor.SATD), noise, 3, sweep) for tg in grid]
        assert int(np.argmin(eps)) == 0, s


def test_criterion_02a_zeros_sit_at_shifted_gate_times():
    # Criterion 02a samples the qubit error at the refocusing times of the
    # leading-order theory (4, 6 and 8 cycles).  At finite gate time the
    # zeros near 6 and 8 cycles have moved to 5.855 and 7.085 cycles, so the
    # nominal 6 cycles reads the 5.46e-4 the criterion prints.
    cfg = IntegratorConfig(rel_tol=1e-12)

    def eps_qubit(tgs):
        ps = [params(float(tg)) for tg in tgs]
        us = [res.final_operator for res in propagate_unitary_batch(ps, cfg)]
        return np.array([1.0 - avg_gate_fidelity(qubit_overlap_operator(ideal_gate(p), u), 2) for p, u in zip(ps, us)])

    for lo, hi, zero in ((5.80, 5.90, 5.855), (7.03, 7.13, 7.085)):
        grid = np.linspace(lo, hi, 101)
        eps = eps_qubit(grid)
        i = int(np.argmin(eps))
        assert eps[i] < 1e-6, (grid[i], eps[i])
        assert grid[i] == pytest.approx(zero, abs=0.005)
    assert eps_qubit([6.0])[0] == pytest.approx(5.46e-4, rel=2e-3)


def test_qubit_overlap_operator_projects():
    target = np.eye(4, dtype=complex)
    realized = np.zeros((4, 4), dtype=complex)
    realized[:2, :2] = np.diag([1.0, 0.5])  # deliberate norm loss
    o_q = qubit_overlap_operator(target, realized)
    assert o_q.shape == (2, 2)
    assert avg_gate_fidelity(o_q, 2) < 1.0


def test_clamp_error():
    assert clamp_error(5e-12, 1e-10) == 0.0
    assert clamp_error(-3e-12, 1e-10) == 0.0
    assert clamp_error(2e-3, 1e-10) == 2e-3
