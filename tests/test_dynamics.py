import math

import numpy as np
import pytest

from conftest import (
    OMEGA0,
    dissipator_superoperator,
    dopri5_solve,
    dopri5_unitary,
    fourth_order_unitary,
    frame_field,
    hamiltonian_superoperator,
    leak_lindblad_rhs,
    lindblad_rhs_reference,
    lindblad_two_half_reference,
    params,
    random_hermitian,
    series_expm,
    two_generator_stage_reference,
    unvec,
    vec,
)
from tripod_sta import dynamics, metrics, tripod
from tripod_sta.controls import Flavor, PulseShape, _satd_correction, _satd_reshape, make_envelopes
from tripod_sta.dynamics import (
    MAGNUS_MIN_STEPS,
    ROUNDOFF_ESTIMATE,
    NoiseModel,
    NumericalError,
    propagate_lindblad,
    propagate_lindblad_batch,
    propagate_unitary,
    propagate_unitary_batch,
)
from tripod_sta.metrics import (
    AXIAL_QUBIT_STATES, avg_gate_fidelity, nominal_and_uncertainty_avg, qubit_overlap_operator,
)
from tripod_sta.qmath import (
    ABS_TOL_FLOOR,
    MAGNUS_BLOCK,
    IntegratorConfig,
    gauss_legendre_rule,
    hermitize,
    magnus_su2,
    max_abs,
    ode_solve,
)
from tripod_sta.tripod import field_constants, half_segment_field, ideal_gate, qubit_dark_state

CFG = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)


class _StubEnv:
    """Constant envelopes standing in for those of params, for closed-form
    comparisons."""

    def __init__(self, params, values):
        self.params = params
        self.values = values

    def evaluate(self, t):
        return self.values


def _scaled_time_solve(generator, noise, rho0, t_gate):
    """rho0 through the packed right-hand side of a constant commutator
    generator over a gate of t_gate, in scaled time tau in [0, 1] as
    propagate_lindblad_batch runs it."""
    weight = np.full((1, 1, 1), t_gate)
    rhs = dynamics._lindblad_rhs(lambda tau: (generator[None], weight), noise, np.array([[t_gate]]))
    return dynamics._unpack(ode_solve(rhs, dynamics._pack(rho0)[None, None], 0.0, 1.0, CFG).y)[0, 0]


def _dark_projector(p):
    v = qubit_dark_state(p.alpha, p.beta)
    return np.outer(v, v.conj())


class TestNoiseModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseModel((1.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            NoiseModel((0.0, 0.0, 0.0, -1.0))
        with pytest.raises(ValueError):
            NoiseModel((0.0, 0.0, 0.0, math.nan))
        with pytest.raises(ValueError):
            NoiseModel(k=math.nan)
        with pytest.raises(ValueError):
            NoiseModel(k=1.0)

    def test_dephasing_matrix(self):
        w = NoiseModel((1.0, 2.0, 3.0, 4.0)).dephasing_matrix()
        assert np.all(np.diag(w) == 0.0)
        assert w[0, 3] == pytest.approx(2.5)
        assert w[1, 2] == pytest.approx(2.5)
        assert np.allclose(w, w.T)


class TestPropagateUnitary:
    def test_dark_state_is_fixed(self):
        for flavor in (Flavor.ADIABATIC, Flavor.SATD):
            p = params(2.0, flavor, alpha=0.6, beta=1.1)
            res = propagate_unitary(p, make_envelopes(p), CFG)
            dark = qubit_dark_state(p.alpha, p.beta)
            assert np.max(np.abs(res.final_operator @ dark - dark)) < 1e-9

    def test_unitarity_diagnostic(self):
        p = params(6.0)
        res = propagate_unitary(p, make_envelopes(p), CFG)
        assert res.unitarity_defect < 1e-8
        assert res.steps_accepted > 0

    def test_satd_qubit_block_matches_closed_form(self):
        # Accelerated protocol at omega0*tg = 12*pi reproduces the target.
        p = params(6.0, Flavor.SATD)
        res = propagate_unitary(p, make_envelopes(p), CFG)
        target = ideal_gate(p)
        o_q = qubit_overlap_operator(target, res.final_operator)
        assert 1.0 - avg_gate_fidelity(o_q, 2) < 1e-6


REFERENCE = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)


class TestMagnusPath:
    """The SU(2) Magnus propagator against the lab-frame DOPRI5 reference."""

    @pytest.mark.parametrize("cycles", [1e-6, 0.7, 2.0, 5.0, 30.0])
    @pytest.mark.parametrize("amp_scale", [1.0, 1.13])
    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_matches_dopri5_reference(self, flavor, amp_scale, cycles):
        p = params(cycles, flavor, amp_scale=amp_scale)
        env = make_envelopes(p)
        res = propagate_unitary(p, env, CFG)
        assert max_abs(res.final_operator - dopri5_unitary(env, REFERENCE)) <= 1e-9

    @staticmethod
    def _first_half_products(p, counts):
        def field(rows, x):
            return half_segment_field(field_constants([p]), x)

        return [magnus_su2(field, np.array([0.5 * p.t_gate]), n)[0] for n in counts]

    # Both fields are non-diagonal: SATD's nu-dressed field is diagonal at amp_scale 1 only.
    @pytest.mark.parametrize("flavor, amp_scale", [(Flavor.ADIABATIC, 1.0), (Flavor.SATD, 1.13)])
    def test_estimate_falls_fourth_order(self, flavor, amp_scale):
        us = self._first_half_products(params(5.0, flavor, amp_scale=amp_scale), (64, 128, 256, 512))
        estimates = [max_abs(b - a) / 15.0 for a, b in zip(us, us[1:])]
        assert all(a >= 12.0 * b for a, b in zip(estimates, estimates[1:])), estimates

    @pytest.mark.parametrize("flavor, amp_scale", [(Flavor.ADIABATIC, 1.0), (Flavor.SATD, 1.13)])
    def test_richardson_difference_falls_sixth_order(self, flavor, amp_scale):
        # The GL2 Magnus product is symmetric, so its error has only even
        # powers of h and R(N) = U(N) + (U(N) - U(N/2))/15 is sixth order.
        us = self._first_half_products(params(5.0, flavor, amp_scale=amp_scale), (32, 64, 128, 256))
        richardson = [b + (b - a) / 15.0 for a, b in zip(us, us[1:])]
        differences = [max_abs(b - a) for a, b in zip(richardson, richardson[1:])]
        assert differences[0] >= 48.0 * differences[1], differences

    def test_field_on_the_shared_unit_gate_nodes_matches_the_absolute_time_reference(self, monkeypatch):
        # propagate_unitary_batch's field callback for the first half of every
        # member, on the nodes x = (k + 1/2 -+ sqrt(3)/6)/N of a half shared by
        # all, against conftest.frame_field at t = x*t_g/2.  Blocks of 8 steps
        # make N = 20 three field calls per member, the last a partial block.
        # (Near a half's ends kappa's relative error is the rounding of the
        # ramp variable u over u or 1 - u, in either field: at 1e-6 cycles and
        # N = 8192 they differ by 7e-13 of the field's scale.)
        ps = [params(c, f, amp_scale=r) for c in (1e-6, 2.0, 30.0, 1e5) for f in Flavor for r in (0.87, 1.0, 1.13)]

        class Captured(Exception):
            pass

        def capture(field, spans, n):
            raise Captured(field, spans, n)

        monkeypatch.setattr(dynamics, "magnus_su2", capture)
        with pytest.raises(Captured) as first_level:
            propagate_unitary_batch(ps, CFG)
        field, spans, counts = first_level.value.args  # every member, row j the first half of ps[j]
        assert len(spans) == len(ps)
        assert list(counts) == [MAGNUS_MIN_STEPS << j for j in range(dynamics.FIRST_PASS_LEVELS)]
        monkeypatch.setattr("tripod_sta.qmath.MAGNUS_BLOCK", 8)
        offset = math.sqrt(3.0) / 6.0
        for n in (MAGNUS_MIN_STEPS, 20):
            calls = []

            def recorded(rows, x):
                calls.append((rows, x, field(rows, x)))
                return calls[-1][2]

            magnus_su2(recorded, spans, n)
            k = np.arange(n) + 0.5
            nodes = np.sort(np.concatenate([k - offset, k + offset]) / n)
            for j, p in enumerate(ps):
                mine = [(x, c) for rows, x, c in calls if rows.tolist() == [j]]
                assert len(mine) == -(-n // 8)
                assert np.max(np.abs(np.sort(np.concatenate([x for x, _ in mine])) - nodes)) < 1e-15
                for x, c in mine:
                    ref, got = (
                        np.array([np.broadcast_to(v, (1, x.size))[0] for v in components])
                        for components in (frame_field([p], 0.5 * p.t_gate * x[None]), c)
                    )
                    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref)), (p, n)

    @pytest.mark.parametrize("cycles", [1e-6, 2.0, 30.0, 1e5])
    @pytest.mark.parametrize("amp_scale", [0.87, 1.0, 1.13])
    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_second_half_is_the_transpose_of_the_first(self, flavor, amp_scale, cycles):
        # The ramp's mirror symmetry about t_g/2 gives U2 = U1^T at every N
        # for the GL2 Magnus product: U1 on the program's first-half field,
        # U2 integrated on its own from conftest.frame_field at the absolute
        # times t = t_g*(1 + x)/2.  Measured worst cases over N = 8-1024:
        # 1.8e-16 from 2 cycles on, and 1.8e-13 at 1e-6 cycles (SATD at
        # r != 1, N = 1024), where the reference's ramp variable is rounded
        # near the segment ends, in the spike of kappa.
        p = params(cycles, flavor, amp_scale=amp_scale)
        span = np.array([0.5 * p.t_gate])
        for n in (MAGNUS_MIN_STEPS, 64, 1024):
            first = magnus_su2(lambda rows, x: half_segment_field(field_constants([p]), x), span, n)[0]
            second = magnus_su2(lambda rows, x: frame_field([p], span[:, None] * (1.0 + x)), span, n)[0]
            assert max_abs(second - first.T) <= (4e-13 if cycles < 1.0 else 1e-15), n

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_diagnostics_report_the_doubling(self, flavor):
        p = params(5.0, flavor)
        res = propagate_unitary(p, make_envelopes(p), CFG)
        n1 = n2 = res.steps_accepted // 2  # the second half is the first's transpose
        assert res.steps_accepted == n1 + n2
        # Every discarded mesh has half the steps of the next: N/2 + N/4 + ... + MAGNUS_MIN_STEPS.
        assert res.steps_rejected == (n1 - MAGNUS_MIN_STEPS) + (n2 - MAGNUS_MIN_STEPS)
        assert res.error_estimate <= CFG.rel_tol + CFG.abs_tol or res.error_estimate <= ROUNDOFF_ESTIMATE

    def test_tolerance_below_roundoff_stops_at_the_plateau(self):
        p = params(5.0, Flavor.SATD)
        cfg = IntegratorConfig(rel_tol=1e-300, abs_tol=ABS_TOL_FLOOR)
        res = propagate_unitary(p, make_envelopes(p), cfg)
        assert res.steps_accepted // 2 <= 2**16
        assert res.error_estimate <= 1e-13
        assert max_abs(res.final_operator - propagate_unitary(p, make_envelopes(p), CFG).final_operator) < 1e-9

    @pytest.mark.parametrize("amp_scale", [0.87, 1.0, 1.13])
    @pytest.mark.parametrize("cycles", [1e-5, 1e-4, 1e-2])
    def test_short_satd_gates_meet_a_tight_run(self, cycles, amp_scale):
        # SATD steps in the nu-dressed frame, at no fewer than 2/u* steps per
        # half, u* = sqrt(omega0*t_g/(60*pi)) = sqrt(cycles/30), where nu turns.
        p = params(cycles, Flavor.SATD, amp_scale=amp_scale)
        res, tight = (propagate_unitary_batch([p], cfg)[0] for cfg in (CFG, IntegratorConfig(1e-14, 1e-16)))
        assert res.steps_accepted // 2 >= 2.0 * math.sqrt(30.0 / cycles)
        assert max_abs(res.final_operator - tight.final_operator) <= 1e-9

    @pytest.mark.parametrize("cycles", [2.0, 3.7, 5.0, 11.0, 30.0])
    def test_nominal_satd_takes_at_most_64_steps_per_half(self, cycles):
        # Its dressed field is the diagonal (0, 0, -E): only the quadrature of E is left.
        p = params(cycles, Flavor.SATD)
        res = propagate_unitary(p, make_envelopes(p), CFG)
        assert res.steps_accepted // 2 <= 64

    @pytest.mark.parametrize("cycles", [1e-6, 0.3, 2.5, 30.0, 1e3, 1e5])
    @pytest.mark.parametrize("amp_scale", [0.87, 1.0, 1.13])
    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_richardson_rule_never_costs_steps_or_accuracy(self, flavor, amp_scale, cycles):
        # The Richardson rule only adds a way to freeze: per half-segment N is
        # at most that of the fourth-order rule alone, and the full-gate error
        # against a tight run is no larger, up to roundoff.
        p = params(cycles, flavor, amp_scale=amp_scale)
        tight = propagate_unitary_batch([p], IntegratorConfig(1e-13, 1e-15))[0].final_operator
        for rel_tol in (1e-6, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol, 1e-2 * rel_tol)
            res = propagate_unitary_batch([p], cfg)[0]
            u4, n4 = fourth_order_unitary(p, cfg)
            assert all(res.steps_accepted // 2 <= m for m in n4), (rel_tol, res.steps_accepted, n4)
            assert max_abs(res.final_operator - tight) <= max_abs(u4 - tight) + 1e-13, rel_tol

    def test_unitarity_breach_raises(self, monkeypatch):
        monkeypatch.setattr(tripod, "spin1_image", lambda u: 1.001 * np.eye(4, dtype=complex))
        p = params(2.0)
        with pytest.raises(NumericalError, match="unitarity defect"):
            propagate_unitary(p, make_envelopes(p), CFG)

    def test_params_must_match_envelopes(self):
        p = params(2.0)
        with pytest.raises(ValueError, match="disagree"):
            propagate_unitary(p.with_amp_scale(1.1), make_envelopes(p), CFG)


def _mixed_batch(plateau: bool) -> list:
    """Both flavors at four gate times and two amplitude scales, and SATD at
    two short gates whose step floor lies above MAGNUS_MIN_STEPS: at rel_tol
    1e-8 and 1e-10 the fourth-order and the Richardson rule each freeze some
    members, at the plateau tolerance the roundoff plateau does.  t_g = 1e-6
    cycles is left out at the plateau tolerance, where it alone takes 2^20
    steps per half-segment."""
    times = (0.7, 2.0, 30.0) if plateau else (1e-6, 0.7, 2.0, 30.0)
    short = [params(tg, Flavor.SATD, amp_scale=r) for tg in (1e-3, 1e-2) for r in (1.0, 1.13)]
    return [params(tg, flavor, amp_scale=r) for flavor in Flavor for tg in times for r in (1.0, 1.13)] + short


def _gate_error_grid() -> list:
    """The 24 protocols of one perfbench gate-error sweep (seed 1): both
    flavors at 12 log-spaced gate times, in the sweep's batch order."""
    axis = {"gamma0": 4.384601261360359, "alpha": 0.28418601228185236, "beta": 5.324583204732311}
    times = np.geomspace(1.9516088489147079, 30.265534546263908, 12).tolist()
    return [params(tg, flavor, **axis) for tg in times for flavor in Flavor]


BATCHES = {
    "mixed": lambda: _mixed_batch(plateau=False),
    "one member": lambda: [params(5.0)],
    "gate-error": _gate_error_grid,
}


class TestUnitaryBatch:
    """propagate_unitary_batch doubles every member in lockstep; each member
    must get exactly what it gets alone."""

    @pytest.mark.parametrize("rel_tol", [1e-8, 1e-10, 1e-300])
    def test_batch_equals_one_member_calls(self, rel_tol):
        cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=max(1e-2 * rel_tol, ABS_TOL_FLOOR))
        ps = _mixed_batch(plateau=rel_tol < 1e-200)
        batch = propagate_unitary_batch(ps, cfg)
        assert len(batch) == len(ps)
        assert len({res.steps_accepted for res in batch}) > 2  # members freeze at different N
        tol = cfg.rel_tol + cfg.abs_tol
        if rel_tol < 1e-200:
            assert any(res.error_estimate > tol for res in batch)  # frozen at the plateau
        else:
            # A member frozen by the Richardson rule stops below the fourth-order rule's N.
            steps = [(res.steps_accepted // 2, fourth_order_unitary(p, cfg)[1]) for p, res in zip(ps, batch)]
            below = [any(n < m for m in n4) for n, n4 in steps]
            assert any(below) and not all(below)
        for p, res in zip(ps, batch):
            alone = propagate_unitary(p, make_envelopes(p), cfg)
            for name in (
                "final_operator", "steps_accepted", "steps_rejected", "error_estimate", "unitarity_defect",
            ):
                assert np.array_equal(getattr(res, name), getattr(alone, name)), (p, name)

    def test_rejects_an_empty_batch(self):
        # It used to end in a TypeError from qmath.su2_ordered_product.
        with pytest.raises(ValueError, match="at least one protocol"):
            propagate_unitary_batch([], CFG)

    @pytest.mark.parametrize("batch", sorted(BATCHES))
    def test_field_calls_hold_at_most_a_block_of_member_steps(self, monkeypatch, batch):
        sizes = []
        real = dynamics.half_segment_field

        def recording(constants, x):
            sizes.append((len(constants), len(constants) * x.size // 2))
            return real(constants, x)

        monkeypatch.setattr(dynamics, "half_segment_field", recording)
        ps = BATCHES[batch]()
        propagate_unitary_batch(ps, IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10))
        assert max(steps for _, steps in sizes) <= MAGNUS_BLOCK
        # The first pass holds every member, at every level up to 8 * MAGNUS_MIN_STEPS, in one call.
        assert sizes[0] == (len(ps), len(ps) * MAGNUS_MIN_STEPS * (2 ** dynamics.FIRST_PASS_LEVELS - 1))

    @pytest.mark.parametrize("batch", ["mixed", "gate-error"])
    def test_first_pass_levels_equal_one_level_calls(self, monkeypatch, batch):
        ps = BATCHES[batch]()
        calls = []

        def recording(field, spans, n):
            calls.append((field, spans, n, magnus_su2(field, spans, n)))
            return calls[-1][-1]

        monkeypatch.setattr(dynamics, "magnus_su2", recording)
        propagate_unitary_batch(ps, CFG)
        field, spans, counts, levels = calls[0]
        assert len(spans) == len(ps)
        assert list(counts) == [MAGNUS_MIN_STEPS << j for j in range(dynamics.FIRST_PASS_LEVELS)]
        for n, level in zip(counts, levels):
            assert np.array_equal(level, magnus_su2(field, spans, n)), n
        assert all(np.ndim(n) == 0 for _, _, n, _ in calls[1:])  # every later level takes a pass of its own

    def test_no_field_call_passes_the_step_limit(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAGNUS_MAX_STEPS", 32)
        finest = []
        real = dynamics.half_segment_field

        def recording(constants, x):
            # The first node of N steps is (1/2 - sqrt(3)/6)/N.
            finest.append(round((0.5 - math.sqrt(3.0) / 6.0) / x.min()))
            return real(constants, x)

        monkeypatch.setattr(dynamics, "half_segment_field", recording)
        with pytest.raises(NumericalError, match=r"reached N = 32 with estimate"):
            propagate_unitary_batch(_mixed_batch(plateau=False), CFG)
        assert max(finest) == 32


class TestPropagateLindblad:
    def test_rho0_validation(self):
        p = params(1.0)
        env = make_envelopes(p)
        bad_herm = np.zeros((4, 4), dtype=complex)
        bad_herm[0, 1] = 1.0
        with pytest.raises(ValueError, match="Hermitian"):
            propagate_lindblad(p, env, NoiseModel(), bad_herm, CFG)
        with pytest.raises(ValueError, match="trace"):
            propagate_lindblad(p, env, NoiseModel(), 2.0 * np.eye(4, dtype=complex) / 4.0 * 3, CFG)
        neg = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="positive"):
            propagate_lindblad(p, env, NoiseModel(), neg, CFG)

    def test_noiseless_limit_matches_unitary(self):
        p = params(2.0, Flavor.SATD)
        env = make_envelopes(p)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = rho0[0, 1] = rho0[1, 0] = rho0[1, 1] = 0.5
        res = propagate_lindblad(p, env, NoiseModel(), rho0, CFG)
        u = propagate_unitary(p, env, CFG).final_operator
        assert np.max(np.abs(res.final_operator - u @ rho0 @ u.conj().T)) < 1e-8

    def test_dark_state_untouched_by_excited_dephasing(self):
        p = params(2.0, alpha=0.9, beta=0.4)
        env = make_envelopes(p)
        rho0 = _dark_projector(p)
        noise = NoiseModel((0.0, 0.0, 0.0, 0.05))
        res = propagate_lindblad(p, env, noise, rho0, CFG)
        assert np.max(np.abs(res.final_operator - rho0)) < 1e-9

    def test_pure_dephasing_closed_form(self):
        # H = 0 with dephasing on |e| only: the a-e coherence decays at G/2.
        gamma = 0.35
        t_gate = 2.0
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[2, 2] = rho0[3, 3] = 0.5
        rho0[2, 3] = rho0[3, 2] = 0.5
        noise = NoiseModel((0.0, 0.0, 0.0, gamma))
        final = _scaled_time_solve(np.zeros((16, 16)), noise, rho0, t_gate)
        expected = 0.5 * math.exp(-0.5 * gamma * t_gate)
        assert final[2, 3].real == pytest.approx(expected, rel=1e-9)
        assert final[2, 2].real == pytest.approx(0.5, abs=1e-10)

    def test_conservation_diagnostics(self):
        p = params(3.0)
        env = make_envelopes(p)
        noise = NoiseModel((0.01, 0.01, 0.01, 0.01))
        rho0 = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        res = propagate_lindblad(p, env, noise, rho0, CFG)
        assert res.trace_defect < 1e-8
        assert res.min_eigenvalue > -1e-8
        herm = res.final_operator - res.final_operator.conj().T
        assert np.max(np.abs(herm)) < 1e-12

    def test_batch_matches_individual(self):
        p = params(2.0, Flavor.SATD)
        env = make_envelopes(p)
        noise = NoiseModel((0.0, 0.01, 0.0, 0.02))
        rho_a = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        rho_b = np.zeros((4, 4), dtype=complex)
        rho_b[:2, :2] = 0.5
        batch = propagate_lindblad_batch(p, env, noise, np.stack([rho_a, rho_b]), CFG)
        for rho0, res in zip((rho_a, rho_b), batch):
            single = propagate_lindblad(p, env, noise, rho0, CFG)
            assert np.max(np.abs(res.final_operator - single.final_operator)) < 1e-9


    def test_single_equals_batch_of_one(self):
        p = params(2.0, Flavor.SATD)
        env = make_envelopes(p)
        noise = NoiseModel((0.0, 0.01, 0.0, 0.02))
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[:2, :2] = 0.5
        single = propagate_lindblad(p, env, noise, rho0, CFG)
        (batched,) = propagate_lindblad_batch(p, env, noise, rho0[None], CFG)
        assert np.array_equal(single.final_operator, batched.final_operator)
        assert (single.steps_accepted, single.steps_rejected) == (batched.steps_accepted, batched.steps_rejected)
        assert (single.trace_defect, single.min_eigenvalue) == (batched.trace_defect, batched.min_eigenvalue)

    def test_rejects_envelopes_of_other_params(self):
        # Like propagate_unitary: a solve over params' gate time with the
        # envelopes of another gate silently mixed the two.
        p2, p3 = params(2.0, Flavor.SATD), params(3.0, Flavor.SATD)
        for p in (p3, p2.with_amp_scale(1.1)):
            with pytest.raises(ValueError, match="params and env.params disagree"):
                propagate_lindblad_batch(p, make_envelopes(p2), NoiseModel(), AXIAL_QUBIT_STATES, CFG)

    def test_amp_scaled_members_match_scaled_envelopes(self):
        p = params(2.0, Flavor.SATD)
        env = make_envelopes(p)
        noise = NoiseModel((0.0, 0.0, 0.0, 0.05))
        rho_a = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        rho_b = np.zeros((4, 4), dtype=complex)
        rho_b[:2, :2] = 0.5
        scales = np.array([0.8, 1.0, 1.2])
        rho0s = np.stack([rho_a, rho_b, rho_a])
        batch = propagate_lindblad_batch(p, env, noise, rho0s, CFG, amp_scales=scales)
        for rho0, r, res in zip(rho0s, scales, batch):
            p_r = p.with_amp_scale(r)
            single = propagate_lindblad(p_r, make_envelopes(p_r), noise, rho0, CFG)
            assert np.max(np.abs(res.final_operator - single.final_operator)) < 1e-8
            # Each member carries the diagnostics of its own final state.
            rho = res.final_operator
            assert res.trace_defect == abs(float(np.trace(rho).real) - 1.0)
            assert res.min_eigenvalue == float(np.min(np.linalg.eigvalsh(rho)))
            assert res.trace_defect < 1e-8 and res.min_eigenvalue > -1e-8
        with pytest.raises(ValueError, match="amp_scales"):
            propagate_lindblad_batch(p, env, noise, rho0s, CFG, amp_scales=scales[:2])

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_solve_returns_an_exactly_hermitian_stack(self, rng, flavor):
        # The right-hand side is exactly Hermitian, so the Hermitized initial
        # stack stays exactly Hermitian through a whole solve, with no
        # per-step correction.  The mixed state is Hermitian only to roundoff.
        p = params(2.0, flavor)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mixed = m @ m.conj().T / np.trace(m @ m.conj().T).real
        rho0s = np.concatenate([AXIAL_QUBIT_STATES, mixed[None]])
        scales = np.linspace(0.85, 1.15, len(rho0s))
        noise = NoiseModel((0.01, 0.02, 0.0, 0.05))
        batch = propagate_lindblad_batch(p, make_envelopes(p), noise, rho0s, CFG, amp_scales=scales)
        y = np.stack([res.final_operator for res in batch])
        assert np.array_equal(y, np.conj(np.swapaxes(y, -1, -2)))

    @pytest.mark.parametrize("scaled", [False, True])
    def test_rhs_matches_superoperator_oracle(self, rng, scaled):
        # Random Hermitian H (full, not just the tripod pattern) and states.
        h = random_hermitian(rng, 4, 3.0)
        generator = dynamics._packed_generator(h)
        n = 5
        rhos = hermitize(np.stack([random_hermitian(rng, 4) for _ in range(n)]))
        scales = rng.uniform(0.5, 1.5, n) if scaled else np.ones(n)
        t_gates = rng.uniform(0.5, 2.0, n) if scaled else np.ones(n)
        rates = tuple(rng.uniform(0.0, 2.0, 4))
        terms = (generator[None], (t_gates * scales)[None, :, None])
        rhs = dynamics._lindblad_rhs(lambda tau: terms, NoiseModel(rates), t_gates[None])
        out = dynamics._unpack(rhs(0.0, dynamics._pack(rhos)[None]))[0]
        assert np.array_equal(out, np.conj(np.swapaxes(out, -1, -2)))
        dissipator = sum(
            dissipator_superoperator(math.sqrt(g) * np.diag(np.eye(4)[i]).astype(complex))
            for i, g in enumerate(rates)
        )
        for i, rho in enumerate(rhos):
            ell = t_gates[i] * (hamiltonian_superoperator(scales[i] * h) + dissipator)
            assert max_abs(out[i] - unvec(ell @ vec(rho))) < 1e-13

    def test_solves_a_real_packed_stack(self, monkeypatch, rng):
        # Each member is 16 real floats: 4 diagonal entries and the real and
        # imaginary parts of the 6 upper off-diagonal ones.  The packing is
        # lossless for an exactly Hermitian stack.  The one solve, of the
        # first half-segment, holds the 16 packed unit matrices of the one
        # (gate time, scale), whatever the states.
        states = []

        def recording(rhs, y0, t0, t1, cfg, **kw):
            states.append((y0, t0, t1))
            return ode_solve(rhs, y0, t0, t1, cfg, **kw)

        monkeypatch.setattr(dynamics, "ode_solve", recording)
        p = params(2.0, Flavor.SATD)
        batch = propagate_lindblad_batch(p, make_envelopes(p), NoiseModel((0.0, 0.0, 0.0, 0.01)), AXIAL_QUBIT_STATES)
        [(y, t0, t1)] = states
        assert (t0, t1) == (0.0, 0.5)
        # One block of one gate time: the stack comes as (blocks, members per block, 16).
        assert y.dtype == np.float64 and y.shape == (1, 16, 16)
        assert np.array_equal(y[0], np.eye(16))
        assert len(batch) == len(AXIAL_QUBIT_STATES)
        # The first-half solve of given states packs them as they are.
        ones = np.ones(len(AXIAL_QUBIT_STATES))
        env = make_envelopes(p)
        dynamics._first_half_images(p, env, NoiseModel(), AXIAL_QUBIT_STATES, CFG, ones, 2.0 * ones, [p.flavor])
        y = states[-1][0]
        assert y.dtype == np.float64 and y.shape == (1, len(AXIAL_QUBIT_STATES), 16)
        assert np.array_equal(dynamics._unpack(y[0]), hermitize(AXIAL_QUBIT_STATES))
        rhos = hermitize(np.stack([random_hermitian(rng, 4) for _ in range(5)]))
        assert np.array_equal(rhos, np.conj(np.swapaxes(rhos, -1, -2)))
        assert np.array_equal(dynamics._unpack(dynamics._pack(rhos)), rhos)

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    @pytest.mark.parametrize("cycles", [0.93, 2.2, 5.0])
    def test_packed_solve_matches_full_matrix_reference(self, rng, flavor, cycles):
        # The packed stack stores each off-diagonal entry once, and its mirror
        # has the same real and imaginary magnitudes, so the per-float error
        # norm, and with it every accepted and rejected step of the first
        # half-segment, is that of the full 4x4 stack integrated as its float
        # view.
        p = params(cycles, flavor)
        env = make_envelopes(p)
        noise = NoiseModel(tuple(rng.uniform(1e-3, 5e-2, 4)))
        rho0s = np.concatenate([AXIAL_QUBIT_STATES, AXIAL_QUBIT_STATES])
        scales = rng.uniform(0.75, 1.25, len(rho0s))
        full = lindblad_rhs_reference(env, noise, scales)

        def rhs(t, y):
            return full(t, y.view(complex)).view(float)

        t_gates = np.full(len(rho0s), p.t_gate)
        for rel_tol in (1e-7, 1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=rel_tol, abs_tol=1e-2 * rel_tol)
            [y], [steps] = dynamics._first_half_images(p, env, noise, rho0s, cfg, scales, t_gates, [flavor])
            first = ode_solve(rhs, hermitize(rho0s).view(float), 0.0, 0.5 * p.t_gate, cfg)
            assert steps == (first.steps_accepted, first.steps_rejected), rel_tol
            assert max_abs(y - first.y.view(complex)) < 1e-13, rel_tol

    def test_rejects_an_empty_stack(self):
        p = params(2.0)
        with pytest.raises(ValueError, match="at least one density matrix"):
            propagate_lindblad_batch(p, make_envelopes(p), NoiseModel(), np.zeros((0, 4, 4)), CFG)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_nonfinite_or_nonpositive_scales(self, bad):
        # NaN and inf scales ended in OdeStepUnderflow at t = 0; a scale of -1
        # was accepted silently.
        p = params(2.0, Flavor.SATD)
        scales = np.array([1.0, bad, 1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError, match="amp_scales must be finite and positive"):
            propagate_lindblad_batch(p, make_envelopes(p), NoiseModel(), AXIAL_QUBIT_STATES, CFG, amp_scales=scales)

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_scaled_time_members_match_their_per_point_solves(self, rng, flavor):
        # One scaled-time batch over every (t_g, amp scale) pair against a
        # real-time full-matrix solve of each pair alone.
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
        noise = NoiseModel((0.01, 0.0, 0.02, 0.05))
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        mixed = m @ m.conj().T / np.trace(m @ m.conj().T).real
        states = np.stack([AXIAL_QUBIT_STATES[0], AXIAL_QUBIT_STATES[3], mixed])
        pairs = [(tg, r) for tg in (0.7, 2.0, 5.0) for r in (0.8, 1.0, 1.2)]
        t_gates, scales = (np.repeat(column, len(states)) for column in zip(*pairs))
        p = params(2.0, flavor)
        rho0s = np.tile(states, (len(pairs), 1, 1))
        batch = propagate_lindblad_batch(p, make_envelopes(p), noise, rho0s, cfg, scales, t_gates)
        finals = np.stack([res.final_operator for res in batch]).reshape(len(pairs), len(states), 4, 4)
        for (tg, r), got in zip(pairs, finals):
            rhs = lindblad_rhs_reference(make_envelopes(params(tg, flavor)), noise, np.full(len(states), r))
            first = ode_solve(rhs, hermitize(states), 0.0, 0.5 * tg, cfg)
            second = ode_solve(rhs, first.y, 0.5 * tg, tg, cfg)
            assert max_abs(got - second.y) < 10.0 * cfg.rel_tol, (tg, r)

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    @pytest.mark.parametrize("cycles", [1.9, 4.3, 10.0])
    def test_stepper_matches_dopri5_reference(self, monkeypatch, flavor, cycles):
        # The packed scaled-time right-hand side of one noise-map point (the
        # four solved axial inputs at 11 amplitude scales, k = 0.2, gamma_e =
        # 0.01), its one solve of the first half-segment through qmath.ode_solve
        # and through the independent DOPRI5 reference.
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
        solves = []

        def recording(rhs, y0, t0, t1, cfg, **kw):
            res = ode_solve(rhs, y0, t0, t1, cfg, **kw)
            solves.append((rhs, kw["stage_times"], t0, t1, res))
            return res

        monkeypatch.setattr(dynamics, "ode_solve", recording)
        p = params(cycles, flavor)
        rho0s = np.tile(AXIAL_QUBIT_STATES[[0, 2, 4, 5]], (11, 1, 1))
        nominal_and_uncertainty_avg([p], NoiseModel((0.0, 0.0, 0.0, 0.01), 0.2), 11, cfg)
        [(rhs, announce, t0, t1, res)] = solves
        ref = dopri5_solve(rhs, dynamics._pack(rho0s), t0, t1, cfg, announce)
        assert max_abs(res.y - ref.y) <= 10.0 * cfg.rel_tol
        assert 2 * (res.steps_accepted + res.steps_rejected) <= ref.steps_accepted + ref.steps_rejected

    def test_a_shared_mesh_can_be_coarser_than_a_member_needs_alone(self):
        # DOP853 takes the fifth- and third-order estimates e5 and e3 as
        # separate maxima over the stack, and e5^2/sqrt(e5^2 + 0.01 e3^2)
        # falls as e3 grows.  So an SATD stack (the four solved axial inputs
        # at 10 cycles, first half-segment) accepts fewer steps stacked with
        # its kappa = 0 twin, a second block whose gap is infinite, than
        # alone; every accepted step meets the combined criterion over the
        # whole stack.
        p = params(10.0, Flavor.SATD)
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
        noise = NoiseModel((0.0, 0.0, 0.0, 0.01))
        legs = ([*make_envelopes(p).qubit_weights, 0.0], [0.0, 0.0, 1.0])
        gens = np.stack([dynamics._packed_generator(tripod._coupling(rabi)) for rabi in legs]).reshape(2, 256)
        wt = p.omega0 * p.t_gate

        def first_half(gaps):
            gaps = np.array(gaps)

            def terms(taus):
                theta, d1, d2 = PulseShape.ramp(1.0, taus[0])
                factors = _satd_reshape(math.sin(theta), math.cos(theta), _satd_correction(d1, d2, gaps))
                return (np.stack(factors, -1) @ gens).reshape(-1, 16, 16), wt

            rho0s = np.tile(AXIAL_QUBIT_STATES[[0, 2, 4, 5]], (len(gaps), 1, 1)).reshape(len(gaps), 4, 4, 4)
            rhs = dynamics._lindblad_rhs(terms, noise, np.full((len(gaps), 4), p.t_gate))
            return ode_solve(rhs, dynamics._pack(rho0s), 0.0, 0.5, cfg)

        alone = first_half([wt * wt])
        shared = first_half([wt * wt, math.inf])
        assert shared.steps_accepted < alone.steps_accepted
        # The SATD members still lie within the tolerance of their lone solve.
        assert max_abs(shared.y[:1] - alone.y) < 10.0 * cfg.rel_tol

    @staticmethod
    def _noise_map_stack():
        """One noise-map chunk: 3 gate times x 11 amplitude scales (k = 0.2)
        x the 4 solved axial inputs, in per-gate-time runs."""
        scales = 1.0 + 0.2 * gauss_legendre_rule(11)[0]
        inputs = AXIAL_QUBIT_STATES[[0, 2, 4, 5]]
        t_gates = np.repeat([2.0, 3.0, 5.0], len(scales) * len(inputs))
        amp_scales = np.tile(np.repeat(scales, len(inputs)), 3)
        return np.tile(inputs, (3 * len(scales), 1, 1)), amp_scales, t_gates

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_block_generators_match_the_two_generator_stage(self, flavor):
        # Each gate-time block's one generator f_s G_s + f_c G_c against the
        # per-member stage c_i (s G_s + c G_c) + c_i kappa_i (c G_s - s G_c),
        # on the first half-segment.  At kappa = 0 the two are the same
        # arithmetic, so the adiabatic states agree bit for bit; SATD regroups
        # the same sum, so its states move by roundoff on the same mesh.
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        noise = NoiseModel((0.0, 0.0, 0.0, 0.01), 0.2)
        rho0s, amp_scales, t_gates = self._noise_map_stack()
        p = params(2.0, flavor)
        env = make_envelopes(p)
        [got], [steps] = dynamics._first_half_images(p, env, noise, rho0s, cfg, amp_scales, t_gates, [flavor])
        rhs = two_generator_stage_reference(env, noise, amp_scales, t_gates, 1.0)
        res = ode_solve(rhs, dynamics._pack(hermitize(rho0s)), 0.0, 0.5, cfg)
        assert steps == (res.steps_accepted, res.steps_rejected)
        if flavor is Flavor.ADIABATIC:
            assert np.array_equal(got, dynamics._unpack(res.y))
        else:
            assert max_abs(got - dynamics._unpack(res.y)) < 1e-13

    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_interleaved_gate_times_take_one_member_blocks(self, monkeypatch, flavor):
        # Gate times that change at every member leave blocks of one member;
        # the same stack in per-gate-time runs (3 blocks) agrees member by
        # member within roundoff.
        blocks = []
        lindblad_rhs = dynamics._lindblad_rhs

        def counting(terms, noise, t_gates):
            blocks.append(len(t_gates))
            return lindblad_rhs(terms, noise, t_gates)

        monkeypatch.setattr(dynamics, "_lindblad_rhs", counting)
        cfg = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
        noise = NoiseModel((0.0, 0.0, 0.0, 0.01), 0.2)
        rho0s, amp_scales, t_gates = self._noise_map_stack()
        order = np.arange(len(rho0s)).reshape(3, -1).T.ravel()
        p = params(2.0, flavor)
        env = make_envelopes(p)
        [runs], _ = dynamics._first_half_images(p, env, noise, rho0s, cfg, amp_scales, t_gates, [flavor])
        [interleaved], _ = dynamics._first_half_images(
            p, env, noise, rho0s[order], cfg, amp_scales[order], t_gates[order], [flavor]
        )
        assert blocks == [3, len(rho0s)]
        assert max_abs(interleaved - runs[order]) < 1e-13

    def test_a_solve_builds_generators_once_per_attempted_step(self, monkeypatch):
        # One build for the first stage and one per attempted step, each
        # covering that step's twelve stage times; each build reshapes the
        # profile factors once.  The noise-map stack at 2 cycles.
        builds, solves = [], []

        def counting(*args):
            builds.append(args)
            return _satd_reshape(*args)

        def recording(*args, **kw):
            solves.append(ode_solve(*args, **kw))
            return solves[-1]

        monkeypatch.setattr(dynamics, "_satd_reshape", counting)
        monkeypatch.setattr(dynamics, "ode_solve", recording)
        rho0s, amp_scales, t_gates = self._noise_map_stack()
        p = params(2.0, Flavor.SATD)
        cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
        noise = NoiseModel((0.0, 0.0, 0.0, 0.01), 0.2)
        dynamics._first_half_images(p, make_envelopes(p), noise, rho0s, cfg, amp_scales, t_gates, [Flavor.SATD])
        [res] = solves
        attempts = res.steps_accepted + res.steps_rejected
        assert attempts > 0
        assert len(builds) == 1 + attempts

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0, 0.0])
    def test_rejects_nonfinite_or_nonpositive_gate_times(self, bad):
        p = params(2.0, Flavor.SATD)
        t_gates = np.array([2.0, bad, 2.0, 2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="t_gates must be finite and positive"):
            propagate_lindblad_batch(p, make_envelopes(p), NoiseModel(), AXIAL_QUBIT_STATES, CFG, None, t_gates)
        with pytest.raises(ValueError, match="t_gates must hold one value per density matrix"):
            propagate_lindblad_batch(p, make_envelopes(p), NoiseModel(), AXIAL_QUBIT_STATES, CFG, None, t_gates[:2])

    def test_flavors_of_one_stack_equal_their_own_calls(self):
        # One lockstep solve of both flavors, SATD first: one result per
        # member and flavor, flavor by flavor, each group bit for bit the
        # call with that flavor alone, step counts and diagnostics included.
        p = params(2.0)
        env = make_envelopes(p)
        noise = NoiseModel((0.0, 0.0, 0.01, 0.02), 0.2)
        rho0s = np.tile(AXIAL_QUBIT_STATES[[0, 2, 4, 5]], (2, 1, 1))
        amp_scales, t_gates = np.tile([0.9, 1.1], 4), np.repeat([2.0, 3.0], 4)
        flavors = [Flavor.SATD, Flavor.ADIABATIC]
        both = propagate_lindblad_batch(p, env, noise, rho0s, CFG, amp_scales, t_gates, flavors)
        assert len(both) == 2 * len(rho0s)
        for i, flavor in enumerate(flavors):
            q = params(2.0, flavor)
            alone = propagate_lindblad_batch(q, make_envelopes(q), noise, rho0s, CFG, amp_scales, t_gates)
            for got, want in zip(both[i * len(rho0s) : (i + 1) * len(rho0s)], alone):
                assert np.array_equal(got.final_operator, want.final_operator)
                assert (got.steps_accepted, got.steps_rejected) == (want.steps_accepted, want.steps_rejected)
                assert (got.trace_defect, got.min_eigenvalue) == (want.trace_defect, want.min_eigenvalue)
        assert both[0].steps_accepted != both[-1].steps_accepted
        with pytest.raises(ValueError, match="at least one flavor"):
            propagate_lindblad_batch(p, env, noise, rho0s, CFG, amp_scales, t_gates, [])

    def test_step_failure_names_the_first_member_of_the_longest_gate(self, monkeypatch):
        # The longest gate sets the shared mesh, so a stalled step is a
        # NumericalError of its first member, timed in scaled time.
        from tripod_sta import qmath

        monkeypatch.setattr(qmath, "ODE_MAX_STEPS", 5)
        p = params(2.0)
        rho0s, t_gates = AXIAL_QUBIT_STATES[[0, 2, 4, 5]], np.array([2.0, 3.0, 3.0, 2.5])
        with pytest.raises(qmath.OdeStepLimit) as info:
            propagate_lindblad_batch(p, make_envelopes(p), NoiseModel(), rho0s, CFG, None, t_gates)
        assert isinstance(info.value, NumericalError)
        assert info.value.member == 1
        assert "tau" in str(info.value)

    def test_positivity_breach_raises(self, monkeypatch):
        # A constant leak from |1> onto |0> in the right-hand side keeps the
        # trace but drives some member's eigenvalue negative.
        leak_lindblad_rhs(monkeypatch, 1e-6 * np.diag([1.0, -1.0, 0.0, 0.0]))
        p = params(2.0, Flavor.SATD)
        with pytest.raises(NumericalError, match="minimum eigenvalue"):
            propagate_lindblad_batch(p, make_envelopes(p), NoiseModel(), AXIAL_QUBIT_STATES, CFG)


class TestMirrorIdentity:
    # Only the first half-segment is integrated; the second half's map
    # follows by the mirror identity of dynamics.  Both entry points against
    # lindblad_two_half_reference, which integrates both halves: axes and
    # phases off their defaults, four unequal rates, amplitude scales off 1,
    # rel_tol 1e-12.  Measured worst over both flavors, t_g 2 and 5.3, these
    # axes and the default one, and two rate sets: final states 2.3e-13,
    # fidelities 1.6e-14.
    CFG = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    NOISE = NoiseModel((0.003, 0.001, 0.002, 0.02), 0.13)
    AXES = [(0.3, 0.7, 1.1), (1.2, 5.0, -0.4)]

    @pytest.mark.parametrize("alpha, beta, gamma0", AXES)
    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_final_states_match_the_two_half_reference(self, rng, flavor, alpha, beta, gamma0):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho0s = np.concatenate([AXIAL_QUBIT_STATES, (m @ m.conj().T / np.trace(m @ m.conj().T).real)[None]])
        scales = np.linspace(0.87, 1.13, len(rho0s))
        for cycles in (2.0, 5.3):
            p = params(cycles, flavor, gamma0, alpha, beta)
            env = make_envelopes(p)
            batch = propagate_lindblad_batch(p, env, self.NOISE, rho0s, self.CFG, scales)
            ref = lindblad_two_half_reference(env, self.NOISE, rho0s, self.CFG, scales, np.full(len(rho0s), cycles))
            assert max_abs(np.stack([res.final_operator for res in batch]) - ref) < 5e-13, cycles

    @pytest.mark.parametrize("alpha, beta, gamma0", AXES)
    @pytest.mark.parametrize("flavor", [Flavor.ADIABATIC, Flavor.SATD])
    def test_paired_fidelities_match_the_two_half_reference(self, flavor, alpha, beta, gamma0):
        points = [params(cycles, flavor, gamma0, alpha, beta) for cycles in (2.0, 5.3)]
        nodes, weights = gauss_legendre_rule(3)
        scales = np.repeat(1.0 + self.NOISE.k * nodes, len(AXIAL_QUBIT_STATES))
        rho0s = np.tile(AXIAL_QUBIT_STATES, (len(nodes), 1, 1))
        for p, pair in zip(points, nominal_and_uncertainty_avg(points, self.NOISE, len(nodes), self.CFG)):
            t_gates = np.full(len(rho0s), p.t_gate)
            finals = lindblad_two_half_reference(make_envelopes(p), self.NOISE, rho0s, self.CFG, scales, t_gates)
            fids = metrics._axial_average(ideal_gate(p)[:2, :2], finals)
            assert max(abs(pair[0] - fids[1]), abs(pair[1] - np.dot(weights, fids) / 2.0)) < 5e-14, p.t_gate


class TestProtocolInvariants:
    def test_unitarity_tracks_tolerance(self):
        # Accumulated unitarity drift stays within 10x the local tolerance
        # through the mid-range of gate times.
        for rel in (1e-8, 1e-10):
            cfg = IntegratorConfig(rel_tol=rel, abs_tol=rel * 1e-2)
            for cyc in (2.0, 8.0, 16.0):
                p = params(cyc)
                res = propagate_unitary(p, make_envelopes(p), cfg)
                assert res.unitarity_defect <= 10.0 * rel

    def test_adiabatic_leakage_decays(self):
        # Block leakage of the full propagator falls off like 1/(omega0*tg)^3.
        leaks = []
        for cyc in (8.0, 16.0, 32.0):
            p = params(cyc)
            u = propagate_unitary(p, make_envelopes(p), CFG).final_operator
            leaks.append(max(np.max(np.abs(u[:2, 2:])), np.max(np.abs(u[2:, :2]))))
        assert leaks[0] > 5.0 * leaks[1] > 25.0 * leaks[2]


class TestSuperoperator:
    def test_zero_inputs(self):
        out = hamiltonian_superoperator(np.zeros((4, 4))) + dissipator_superoperator(np.zeros((4, 4)))
        assert np.all(out == 0.0)

    def test_action_matches_direct_form(self, rng):
        h = random_hermitian(rng, 4, 1.5)
        l_op = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho = random_hermitian(rng, 4, 1.0)
        ell = hamiltonian_superoperator(h) + dissipator_superoperator(l_op)
        direct = -1j * (h @ rho - rho @ h)
        direct += l_op @ rho @ l_op.conj().T
        direct -= 0.5 * (l_op.conj().T @ l_op @ rho + rho @ l_op.conj().T @ l_op)
        assert np.max(np.abs(unvec(ell @ vec(rho)) - direct)) < 1e-12

    def test_exponential_matches_propagation(self, rng):
        # Constant generator: expm(ell*t) against the direct integrator.
        p = params(0.8)
        values = (0.3 * OMEGA0, 0.2j * OMEGA0, 0.5 * OMEGA0)
        env = _StubEnv(p, values)
        from tripod_sta.tripod import hamiltonian

        h = hamiltonian(env, 0.0)
        gamma = 0.21
        l_op = np.zeros((4, 4), dtype=complex)
        l_op[3, 3] = math.sqrt(gamma)
        ell = hamiltonian_superoperator(h) + dissipator_superoperator(l_op)
        rho0 = np.diag([0.2, 0.3, 0.4, 0.1]).astype(complex)
        noise = NoiseModel((0.0, 0.0, 0.0, gamma))
        final = _scaled_time_solve(dynamics._packed_generator(h), noise, rho0, p.t_gate)
        expected = unvec(series_expm(ell * p.t_gate, terms=40) @ vec(rho0))
        assert np.max(np.abs(final - expected)) < 1e-8

    def test_hamiltonian_superoperator_antihermitian(self, rng):
        h = random_hermitian(rng, 4, 2.0)
        ell0 = hamiltonian_superoperator(h)
        assert np.max(np.abs(ell0 + ell0.conj().T)) < 1e-12


def test_generator_basis_matches_tripod_hamiltonian(rng):
    # The Lindblad legs' coupling is tripod.hamiltonian's, and the legs
    # weighted by the envelope form give the Hamiltonian's generator.
    p = params(2.0, Flavor.SATD, beta=0.7)
    env = make_envelopes(p)

    def generator(rabi):
        return dynamics._packed_generator(tripod._coupling(rabi))

    for t in rng.uniform(0.0, p.t_gate, 5):
        expected = dynamics._packed_generator(tripod.hamiltonian(env, t))
        assert np.array_equal(generator(env.evaluate(t)), expected)
        fs, fc = env.profile(t)
        phase = env.phase_jump if t >= 0.5 * p.t_gate else 1.0
        legs = fs * generator([*env.qubit_weights, 0.0]) + fc * generator([0.0, 0.0, phase])
        assert max_abs(p.amp_scale * p.omega0 * legs - expected) < 1e-13


def test_trace_defect_guard():
    # A non-trace-preserving "collapse" cannot arise from NoiseModel, so the
    # guard is exercised directly on the diagnostics of the final stack.
    from tripod_sta.dynamics import density_diagnostics

    bad = np.diag([0.6, 0.3, 0.0, 0.0]).astype(complex)
    with pytest.raises(NumericalError, match="trace defect"):
        density_diagnostics(bad[None], CFG.rel_tol)
