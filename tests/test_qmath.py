import math

import numpy as np
import pytest

from conftest import random_hermitian, random_unitary, series_expm
from tripod_sta.qmath import (
    ABS_TOL_FLOOR,
    MAGNUS_BLOCK,
    IntegratorConfig,
    OdeStepLimit,
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
    [u] = magnus_su2(lambda rows, x: tuple(c), np.array([1.5]), 5)
    assert np.max(np.abs(u - su2_exponential(1.5 * c))) < 1e-14


def test_magnus_su2_blocks_match_one_block(monkeypatch):
    # A rotating field, so the order of the factors matters.
    def field(rows, x):
        return np.cos(3.0 * x), np.sin(3.0 * x), 0.4

    whole = magnus_su2(field, np.array([1.0]), 96)
    monkeypatch.setattr("tripod_sta.qmath.MAGNUS_BLOCK", 10)
    assert np.max(np.abs(magnus_su2(field, np.array([1.0]), 96) - whole)) < 1e-14


@pytest.mark.parametrize("n, block", [(4, 10), (96, 10), (96, 4096)])
def test_magnus_su2_stack_matches_one_member_calls(monkeypatch, n, block):
    # Three members with their own spans; block 10 packs two 4-step members
    # per field call, and splits 96 steps into ten blocks per member.
    t0, t1 = np.array([0.0, 0.5, -1.0]), np.array([1.0, 0.75, 2.0])

    def field(rows, x):
        w = np.array([1.0, 3.0, -2.0])[rows, None]
        t = t0[rows, None] + (t1 - t0)[rows, None] * x
        return np.cos(w * t), np.sin(w * t), 0.4

    monkeypatch.setattr("tripod_sta.qmath.MAGNUS_BLOCK", block)
    stack = magnus_su2(field, t1 - t0, n)
    for j in range(3):
        alone = magnus_su2(lambda rows, x: field(rows + j, x), (t1 - t0)[j : j + 1], n)
        assert np.array_equal(stack[j : j + 1], alone)


@pytest.mark.parametrize("counts, block", [((8, 16, 32, 64), 4096), ((5, 10, 20), 4096), ((8, 16, 32, 64), 10)])
def test_magnus_su2_counts_match_one_count_calls(monkeypatch, counts, block):
    # One block shares the field calls and the tree of every count; past a
    # block (block 10) each count takes its own blocked call.
    t0, t1 = np.array([0.0, 0.5, -1.0]), np.array([1.0, 0.75, 2.0])

    def field(rows, x):
        w = np.array([1.0, 3.0, -2.0])[rows, None]
        t = t0[rows, None] + (t1 - t0)[rows, None] * x
        return np.cos(w * t), np.sin(w * t), 0.4

    monkeypatch.setattr("tripod_sta.qmath.MAGNUS_BLOCK", block)
    levels = magnus_su2(field, t1 - t0, list(counts))
    assert levels.shape == (len(counts), 3, 2, 2)
    for n, level in zip(counts, levels):
        assert np.array_equal(level, magnus_su2(field, t1 - t0, n)), n


def _cayley_klein_stack(rng, shape):
    mats = su2_exponential(rng.normal(scale=2.0, size=shape + (3,)))
    return np.ascontiguousarray(mats[..., 0, 0]), np.ascontiguousarray(mats[..., 0, 1])


@pytest.mark.parametrize("rows", [1, 3, 24, 512])
def test_su2_ordered_product_of_a_row_stack_is_each_row_alone(rng, rows):
    # The largest stacks of one Magnus field call, rows x steps <= MAGNUS_BLOCK.
    # From 16384 elements in one ufunc call numpy 2.4 rounds a complex product
    # of strided row stacks unlike each row alone: about a third of the 16384
    # products b1 * b0.conj() of a random stack differed, none of 12288.
    a, b = _cayley_klein_stack(rng, (rows, MAGNUS_BLOCK // rows))
    stack = su2_ordered_product(a, b)
    for j in range(rows):
        alone = su2_ordered_product(a[j], b[j])
        assert np.array_equal(stack[0][j], alone[0]) and np.array_equal(stack[1][j], alone[1]), j


@pytest.mark.parametrize("lengths", [(8, 16, 32, 64), (5, 1, 12, 3), (7,)])
def test_su2_ordered_product_of_stacks_back_to_back_is_each_stack_alone(rng, lengths):
    a, b = _cayley_klein_stack(rng, (3, sum(lengths)))
    pa, pb = su2_ordered_product(a, b, lengths)
    assert pa.shape == pb.shape == (len(lengths), 3)
    ends = np.cumsum(lengths)
    for k, (start, end) in enumerate(zip(ends - lengths, ends)):
        alone = su2_ordered_product(a[:, start:end], b[:, start:end])
        assert np.array_equal(pa[k], alone[0]) and np.array_equal(pb[k], alone[1]), k


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

    def rhs(times, y):
        (t,) = times
        evals.append(t)
        return -1j * (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * y

    res = ode_solve(rhs, np.eye(2, dtype=complex), 0.0, 2.0, IntegratorConfig(1e-8, 1e-10))
    assert res.steps_rejected > 0
    assert len(evals) == 1 + 12 * (res.steps_accepted + res.steps_rejected)


@pytest.mark.parametrize("groups", [1, 2])
def test_ode_stage_times_announce_each_step_before_its_stages(groups):
    # The stage_times hook gets the (groups, 1) array of t0 before the first
    # stage and then each attempted step's (groups, 12) stage times; each rhs
    # call gets the next column as a groups-tuple of exactly those floats, in
    # order.  The hook changes neither the mesh nor the result.  At groups = 2
    # both groups are the same system.
    log = []

    def spike(t, y):
        return -1j * (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * y

    def rhs(times, y):
        log.append(times)
        return np.concatenate([spike(t, part) for t, part in zip(times, np.split(y, groups))])

    def hook(taus):
        assert taus.dtype == float
        log.append(taus.copy())

    cfg = IntegratorConfig(1e-8, 1e-10)
    y0 = np.stack([np.eye(2, dtype=complex)] * groups)
    plain = ode_solve(rhs, y0, 0.0, 2.0, cfg, groups=groups)
    plain_times = log.copy()
    log.clear()
    hinted = ode_solve(rhs, y0, 0.0, 2.0, cfg, stage_times=hook, groups=groups)
    assert hinted.steps_rejected > 0
    assert hinted.group_steps == plain.group_steps == (hinted.group_steps[0],) * groups
    assert np.array_equal(hinted.y, plain.y)
    announced = [i for i, entry in enumerate(log) if isinstance(entry, np.ndarray)]
    assert len(announced) == 1 + sum(hinted.group_steps[0])
    assert [log[i].shape for i in announced] == [(groups, 1)] + [(groups, 12)] * (len(announced) - 1)
    for i in announced:
        assert log[i + 1 : i + 1 + log[i].shape[1]] == list(zip(*log[i].tolist()))
    assert [t for t in log if not isinstance(t, np.ndarray)] == plain_times


def test_ode_result_does_not_depend_on_a_reused_rhs_buffer(rng):
    # Each stage is copied out of what rhs returns before the next call, so
    # an rhs may return the same buffer every time.
    h = random_hermitian(rng, 4, 2.0)
    y0 = random_unitary(rng, 4)
    cfg = IntegratorConfig(1e-9, 1e-11)
    evals = []
    buffer = np.empty((4, 4), dtype=complex)

    def fresh(times, y):
        (t,) = times
        evals.append(t)
        return -1j * (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * (h @ y)

    def reused(times, y):
        buffer[...] = fresh(times, y)
        return buffer

    new = ode_solve(fresh, y0, 0.0, 2.0, cfg)
    assert new.steps_rejected > 0
    assert len(evals) == 1 + 12 * (new.steps_accepted + new.steps_rejected)
    same = ode_solve(reused, y0, 0.0, 2.0, cfg)
    assert (same.steps_accepted, same.steps_rejected) == (new.steps_accepted, new.steps_rejected)
    assert np.array_equal(same.y, new.y)
    assert len(evals) == 2 * (1 + 12 * (new.steps_accepted + new.steps_rejected))


def test_ode_stage_times_are_python_floats():
    # The step size and every stage time stay Python floats, also after a
    # rejected step and from numpy endpoints.  So OdeStepUnderflow.t is a
    # float, and an rhs that does scalar arithmetic on its time stays
    # numpy-free: on a numpy scalar PulseShape.ramp took 5.5 us per call
    # against 1.0 us on a float (timeit on one x86-64 core), a slowdown no
    # result shows.
    types = set()

    def rhs(times, y):
        (t,) = times
        types.update(map(type, times))
        return -1j * (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * y

    for t0, t1 in ((0.0, 2.0), (np.float64(0.0), np.float64(2.0))):
        res = ode_solve(rhs, np.eye(2, dtype=complex), t0, t1, IntegratorConfig(1e-8, 1e-10))
        assert res.steps_rejected > 0
    assert types == {float}


def test_ode_real_state_is_the_real_part_of_the_complex_solve(rng):
    # A real y0 is integrated as float64; on y0 + 0j the imaginary parts stay
    # zero, so the complex solve takes the same mesh and the same real parts.
    a = rng.normal(size=(4, 4))
    y0 = rng.normal(size=(4, 3))

    def rhs(times, y):
        (t,) = times
        return (1.0 + 200.0 * math.exp(-(((t - 1.0) / 0.05) ** 2))) * (a @ y)

    cfg = IntegratorConfig(1e-9, 1e-11)
    real = ode_solve(rhs, y0, 0.0, 2.0, cfg)
    full = ode_solve(rhs, y0 + 0j, 0.0, 2.0, cfg)
    assert real.steps_rejected > 0
    assert (real.steps_accepted, real.steps_rejected) == (full.steps_accepted, full.steps_rejected)
    assert real.y.dtype == float and full.y.dtype == complex
    assert np.array_equal(real.y, full.y.real)
    assert not np.any(full.y.imag)


def test_ode_real_state_with_a_complex_rhs_is_rejected():
    # numpy would drop the imaginary part with a ComplexWarning.
    calls = []

    def rhs(times, y):
        (t,) = times
        calls.append(t)
        return -1j * y

    with pytest.raises(ValueError, match="complex array for a real y0"):
        ode_solve(rhs, np.eye(2), 0.0, 1.0)
    assert calls == [0.0]


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
    def rhs(times, y):
        (t,) = times
        return y / (0.5 - t) ** 2

    with pytest.raises(OdeStepUnderflow) as err:
        ode_solve(rhs, np.ones((1, 1), dtype=complex), 0.0, 1.0)
    assert 0.0 <= err.value.t <= 1.0



def _spike_rhs(h, amplitude, center):
    """-i (1 + amplitude * a narrow Gaussian at center) h y: the spike makes
    the controller shrink its steps, and reject some, near center."""

    def rhs(times, y):
        (t,) = times
        return -1j * (1.0 + amplitude * math.exp(-(((t - center) / 0.05) ** 2))) * (h @ y)

    return rhs


def _grouped(rhs_of_group):
    """The rhs of a grouped solve of consecutive (1, ...) parts of y, group g
    under rhs_of_group[g], the rhs of its own one-group solve, at its own
    stage time."""

    def rhs(times, y):
        assert len(times) == len(rhs_of_group)
        return np.concatenate([f((t,), part) for f, t, part in zip(rhs_of_group, times, np.split(y, len(times)))])

    return rhs


def test_ode_groups_are_their_own_solves(rng):
    # Three systems in lockstep: each gets bit for bit the state and step
    # counts of its solve alone, though the groups take different meshes,
    # finish after different numbers of attempts and do not reject together.
    cfg = IntegratorConfig(1e-8, 1e-10)
    systems = [
        _spike_rhs(random_hermitian(rng, 2, 1.0), amplitude, center)
        for amplitude, center in ((200.0, 1.0), (0.0, 1.0), (50.0, 0.4))
    ]
    y0 = np.stack([random_unitary(rng, 2) for _ in systems])
    steps = []
    together = ode_solve(_grouped(systems), y0, 0.0, 2.0, cfg, stage_times=lambda t: steps.append(t.copy()), groups=3)
    alone = [ode_solve(f, y0[g : g + 1], 0.0, 2.0, cfg) for g, f in enumerate(systems)]
    assert together.y.shape == y0.shape
    for g, res in enumerate(alone):
        assert np.array_equal(together.y[g : g + 1], res.y)
        assert together.group_steps[g] == (res.steps_accepted, res.steps_rejected)
    assert together.steps_accepted == sum(res.steps_accepted for res in alone)
    assert together.steps_rejected == sum(res.steps_rejected for res in alone)
    attempts = [res.steps_accepted + res.steps_rejected for res in alone]
    assert len(set(attempts)) == 3 and alone[0].steps_rejected > 0
    # One announcement before the first stage, then one per attempted step
    # of the longest-running group; a finished group stays at t1.
    assert len(steps) == 1 + max(attempts)
    assert all(np.all(times[1] == 2.0) for times in steps[1 + attempts[1] :])
    # Some attempt rejects one live group's step and accepts another's: an
    # accepted step's successor starts at or after its last stage time t + h,
    # a rejected one's retries from t.
    live = [times[:, 0] < 2.0 for times in steps[1:]]
    accepted = [then[:, 0] >= now[:, -1] for now, then in zip(steps[1:], steps[2:])]
    assert any((on & ok).any() and (on & ~ok).any() for on, ok in zip(live, accepted))



@pytest.mark.parametrize("groups", [1, 2])
def test_ode_rhs_may_overwrite_its_argument_and_return_it(rng, groups):
    # An rhs that writes its result over the stage argument it gets and
    # returns that argument saves ode_solve a copy; the state and step
    # counts are bit for bit those of the same rhs returning a new array,
    # and the caller's y0 is untouched.  At groups = 2 the second group
    # finishes after fewer attempts and rides along; the first rejects steps.
    cfg = IntegratorConfig(1e-8, 1e-10)
    systems = [_spike_rhs(random_hermitian(rng, 2, 1.0), amplitude, 1.0) for amplitude in (200.0, 0.0)][:groups]
    fresh = _grouped(systems)
    arguments = []

    def overwriting(times, y):
        arguments.append(y)
        y[...] = fresh(times, y)
        return y

    y0 = np.stack([random_unitary(rng, 2) for _ in systems])
    before = y0.copy()
    new = ode_solve(fresh, y0, 0.0, 2.0, cfg, groups=groups)
    same = ode_solve(overwriting, y0, 0.0, 2.0, cfg, groups=groups)
    assert np.array_equal(y0, before)
    assert not any(np.shares_memory(y, y0) or np.shares_memory(y, same.y) for y in arguments)
    assert np.array_equal(same.y, new.y)
    assert same.group_steps == new.group_steps
    assert new.group_steps[0][1] > 0
    if groups == 2:
        assert sum(new.group_steps[1]) < sum(new.group_steps[0])

def test_ode_groups_split_the_first_axis_into_equal_parts():
    y0 = np.ones((3, 2), dtype=complex)
    for groups in (0, 2):
        with pytest.raises(ValueError, match="groups"):
            ode_solve(lambda t, y: y, y0, 0.0, 1.0, groups=groups)


@pytest.mark.parametrize("stalled", [0, 1])
def test_ode_step_limit_names_the_stalled_group(monkeypatch, rng, stalled):
    # The other group is done in one step; the spike needs more than five.
    from tripod_sta import qmath

    monkeypatch.setattr(qmath, "ODE_MAX_STEPS", 5)
    systems = [lambda t, y: 0.0 * y, lambda t, y: 0.0 * y]
    systems[stalled] = _spike_rhs(random_hermitian(rng, 2, 1.0), 200.0, 1.0)
    with pytest.raises(OdeStepLimit) as err:
        ode_solve(_grouped(systems), np.stack([np.eye(2, dtype=complex)] * 2), 0.0, 2.0, groups=2)
    assert err.value.member == stalled
    assert 0.0 < err.value.t < 2.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_ode_underflow_names_the_stalled_group():
    # The rhs of test_ode_underflow_reports_time in the second group only.
    systems = [lambda t, y: -1j * y, lambda t, y: y / (0.5 - t[0]) ** 2]
    with pytest.raises(OdeStepUnderflow) as err:
        ode_solve(_grouped(systems), np.ones((2, 1, 1), dtype=complex), 0.0, 1.0, groups=2)
    assert not isinstance(err.value, OdeStepLimit)
    assert err.value.member == 1
    assert 0.0 <= err.value.t <= 1.0

def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=0.0)
    with pytest.raises(ValueError):
        IntegratorConfig(rel_tol=math.nan)
    with pytest.raises(ValueError):
        IntegratorConfig(abs_tol=math.inf)
    # Every numerical error lies in [0, 1]: a tolerance of 1 would zero them all.
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
