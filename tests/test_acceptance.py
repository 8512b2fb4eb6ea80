"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.  The
tests compute their verdicts first and assert last, so the printed report is
complete even for failing criteria.
"""

import math

import numpy as np
import pytest

from conftest import OMEGA0, decompose_block_unitary, default_antisymmetric_gamma_rate, params
from tripod_sta.controls import (
    Flavor,
    amplitude_threshold_time,
    make_envelopes,
    make_pulse_shape,
    satd_dressing_angle,
)
from tripod_sta.dynamics import NoiseModel, propagate_lindblad_batch, propagate_unitary
from tripod_sta.metrics import (
    AXIAL_QUBIT_STATES,
    analytic_satd_dephasing_fidelity,
    avg_gate_fidelity,
    map_fidelity,
    map_fidelity_uncertainty_avg,
    qubit_overlap_operator,
)
from tripod_sta.oracles import generic_dressing_phase, magnus_full_gate, oracle_b_map_fidelity
from tripod_sta.qmath import IntegratorConfig
from tripod_sta.tripod import dressed_frame_fields, ideal_gate

TIGHT = IntegratorConfig(rel_tol=1e-11, abs_tol=1e-13)
ACCURATE = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
LINDBLAD = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
SWEEP = IntegratorConfig(rel_tol=5e-8, abs_tol=1e-10)

# Propagation diagnostics accumulated by the criteria and checked at the end.
CONSERVATION_RECORDS: list[tuple[str, float]] = []


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} [{name}]: {'PASS' if ok else 'FAIL'} | {detail}")


def _unitary(p, cfg=ACCURATE):
    res = propagate_unitary(p, make_envelopes(p), cfg)
    CONSERVATION_RECORDS.append(("unitarity", res.unitarity_defect))
    return res.final_operator


def _eps_full_and_qubit(p, cfg=ACCURATE):
    u = _unitary(p, cfg)
    target = ideal_gate(p)
    eps_full = 1.0 - avg_gate_fidelity(target.conj().T @ u, 4)
    eps_qubit = 1.0 - avg_gate_fidelity(qubit_overlap_operator(target, u), 2)
    return eps_full, eps_qubit, u


def _eps_map(p, noise, cfg=LINDBLAD):
    env = make_envelopes(p)
    target = ideal_gate(p.with_amp_scale(1.0))[:2, :2]
    results = propagate_lindblad_batch(p, env, noise, AXIAL_QUBIT_STATES, cfg)
    total = 0.0
    for rho0, res in zip(AXIAL_QUBIT_STATES, results):
        CONSERVATION_RECORDS.append(("trace", res.trace_defect))
        CONSERVATION_RECORDS.append(("positivity", res.min_eigenvalue))
        rot = target @ rho0[:2, :2] @ target.conj().T
        total += float(np.trace(rot @ res.final_operator[:2, :2]).real)
    return 1.0 - total / 6.0


def test_criterion_01_nonadiabatic_error_scaling():
    """Numeric full-space error against the leading-order 1/(omega0*tg)^2 law."""
    cycles = np.geomspace(5.0, 30.0, 7)
    rows = []
    for cyc in cycles:
        p = params(float(cyc))
        eps_full, _, _ = _eps_full_and_qubit(p)
        pred = 40.0 * math.pi**4 / (49.0 * (OMEGA0 * cyc) ** 2)
        rows.append((float(cyc), eps_full, pred, abs(eps_full - pred) / pred))
    worst = max(r[3] for r in rows)
    ok = worst <= 0.10
    detail = "; ".join(f"cyc={c:.1f} dev={d:.1%}" for c, _, _, d in rows)
    _report(1, "non-adiabatic error scaling", ok, detail)
    assert ok, (
        "numeric eps_full deviates from the leading-order prediction by more than 10% "
        f"at the short end: {detail}"
    )


def test_criterion_02a_special_time_qubit_error():
    """Qubit-projected error at the predicted refocusing gate times."""
    # omega0*tg in {8*pi, 16*pi, 12*pi} -> 4, 8, 6 cycles.
    rows = []
    for cyc in (4.0, 8.0, 6.0):
        _, eps_qubit, _ = _eps_full_and_qubit(params(cyc), TIGHT)
        rows.append((cyc, eps_qubit))
    ok = all(eps <= 1e-6 for _, eps in rows)
    detail = "; ".join(f"cyc={c:g} eps_q={e:.3e}" for c, e in rows)
    _report(2, "special times, strict", ok, detail)
    assert ok, f"qubit error exceeds 1e-6 at the nominal special times: {detail}"


def test_criterion_02b_envelope_slope():
    """Log-log slope of the qubit-error envelope between refocusing zeros."""
    cycles = np.arange(8.0, 32.01, 0.5)
    vals = []
    for cyc in cycles:
        _, eps_qubit, _ = _eps_full_and_qubit(params(float(cyc)))
        vals.append(eps_qubit)
    peaks = [
        (float(cycles[i]), vals[i])
        for i in range(1, len(vals) - 1)
        if vals[i] > vals[i - 1] and vals[i] > vals[i + 1]
    ]
    slope = float(np.polyfit(np.log([c for c, _ in peaks]), np.log([v for _, v in peaks]), 1)[0])
    ok = -6.5 <= slope <= -5.5
    _report(2, "qubit-error envelope slope", ok, f"slope={slope:.3f} from {len(peaks)} peaks")
    assert ok, f"envelope slope {slope:.3f} outside -6 +/- 0.5"


def test_criterion_02_supplement_refocusing_dips():
    """The exact dynamics does refocus: deep dips exist near the predicted
    times, shifted by O(1/tg^2) and converging toward them."""
    golden = 0.5 * (math.sqrt(5.0) - 1.0)

    def eps_q(cyc):
        _, eps_qubit, _ = _eps_full_and_qubit(params(cyc), TIGHT)
        return eps_qubit

    dips = []
    for lo, hi, nominal in ((5.6, 6.1, 6.0), (6.9, 7.4, 8.0), (13.7, 14.2, 14.0)):
        a, b = lo, hi
        c1, c2 = b - golden * (b - a), a + golden * (b - a)
        f1, f2 = eps_q(c1), eps_q(c2)
        for _ in range(18):
            if f1 < f2:
                b, c2, f2 = c2, c1, f1
                c1 = b - golden * (b - a)
                f1 = eps_q(c1)
            else:
                a, c1, f1 = c1, c2, f2
                c2 = a + golden * (b - a)
                f2 = eps_q(c2)
        mid = 0.5 * (a + b)
        dips.append((nominal, mid, eps_q(mid)))
    ok = all(depth <= 1e-8 for _, _, depth in dips)
    detail = "; ".join(f"near cyc={n:g}: dip at {m:.4f}, depth {d:.1e}" for n, m, d in dips)
    _report(2, "refocusing dips (supplement)", ok, detail)
    assert ok, detail


def test_criterion_03_satd_exactness():
    """The accelerated gate is exact on the qubit subspace at any speed."""
    rows = []
    for cyc in (1.0, 2.0, 4.0, 8.0, 16.0):
        p = params(cyc, Flavor.SATD)
        _, eps_qubit, u = _eps_full_and_qubit(p)
        leak = max(np.max(np.abs(u[:2, 2:])), np.max(np.abs(u[2:, :2])))
        angle = decompose_block_unitary(u, leak_tol=1e-6).qubit_angle
        rows.append((cyc, eps_qubit, float(leak), abs(angle - p.gamma0)))
    ok = all(e <= 1e-6 and l <= 1e-6 and a <= 1e-6 for _, e, l, a in rows)
    detail = "; ".join(f"cyc={c:g}: eps_q={e:.1e} leak={l:.1e} dangle={a:.1e}" for c, e, l, a in rows)
    _report(3, "accelerated-gate exactness", ok, detail)
    assert ok, detail


def test_criterion_04_generic_dressing_no_go():
    """Antisymmetric phase rates accumulate no dressed dark-state phase."""
    tg = 3.0
    p = params(tg)
    shape = make_pulse_shape(tg)
    profiles = {
        "sin(2pi t/tg)": default_antisymmetric_gamma_rate(p),
        "sin(4pi t/tg)": lambda t: 1.5 * math.sin(4.0 * math.pi * t / tg),
        "antisym cubic": lambda t: 2.0 * (t / tg) * (1.0 - t / tg) * (1.0 - 2.0 * t / tg),
    }
    phases = {name: abs(generic_dressing_phase(p, shape, rate)) for name, rate in profiles.items()}
    ok = all(v <= 1e-8 for v in phases.values())
    detail = "; ".join(f"{name}: |phi|={v:.2e}" for name, v in phases.items())
    _report(4, "generic-dressing no-go", ok, detail)
    assert ok, detail


def test_criterion_05_dressed_frame_structure():
    """Transitionless field component vanishes; mid-protocol couplings are zero."""
    tg = 2.0
    p = params(tg, Flavor.SATD)
    shape = make_pulse_shape(tg)
    nu = satd_dressing_angle(p, shape)
    worst_by = max(
        abs(dressed_frame_fields(p, shape, nu, float(t))[0][1]) for t in np.linspace(0.0, tg, 1001)
    )
    _, xi_mid, _ = dressed_frame_fields(p, shape, nu, 0.5 * tg)
    worst_xi = float(np.max(np.abs(xi_mid)))
    ok = worst_by <= 1e-12 * OMEGA0 and worst_xi <= 1e-12
    _report(5, "dressed-frame structure", ok, f"max|B_y|={worst_by:.2e}, max|Xi(tg/2)|={worst_xi:.2e}")
    assert ok


def test_criterion_06_dissipative_agreement():
    """Accelerated-gate dephasing error against the first-order solution."""
    noise = NoiseModel((0.0, 0.0, 0.0, 1e-2))
    cycles = (2.0, 2.3, 2.6, 3.0, 4.0, 6.0, 10.0, 16.0, 24.0, 30.0)
    rows = []
    for cyc in cycles:
        p = params(cyc, Flavor.SATD)
        eps_num = _eps_map(p, noise)
        eps_pred = 1.0 - analytic_satd_dephasing_fidelity(p, make_pulse_shape(cyc), noise)
        rows.append((cyc, eps_num, eps_pred, abs(eps_num - eps_pred) / eps_pred))
    worst = max(r[3] for r in rows)
    vals = [r[1] for r in rows]
    has_interior_max = any(
        vals[i] > vals[i - 1] and vals[i] > vals[i + 1] for i in range(1, len(vals) - 1)
    )
    ok = worst <= 0.10 and has_interior_max
    detail = f"worst dev={worst:.2%}, interior max={has_interior_max}"
    _report(6, "dissipative agreement", ok, detail)
    assert ok, detail


def test_criterion_07_robustness_ordering():
    """Short-protocol ordering and the slow-gate dephasing threshold."""
    # Excited-state dephasing only: the accelerated gate wins below the
    # adiabatic onset.
    noise_e = NoiseModel((0.0, 0.0, 0.0, 1e-2))
    fig3_grid = (1.9, 2.4, 3.0, 4.0, 5.0, 6.5, 8.0, 10.0)
    ordering_ok = True
    pairs = []
    for cyc in fig3_grid:
        ea = _eps_map(params(cyc, Flavor.ADIABATIC), noise_e)
        es = _eps_map(params(cyc, Flavor.SATD), noise_e)
        pairs.append((cyc, ea, es))
        ordering_ok = ordering_ok and es <= ea
    # All levels dephasing: slow gates lose, so the plain-gate optimum is
    # interior and the accelerated gate beats it in the feasible window.
    noise_all = NoiseModel((1e-2, 1e-2, 1e-2, 1e-2))
    fig4_grid = tuple(float(c) for c in np.geomspace(2.3, 24.0, 8))
    ad_curve = [_eps_map(params(c, Flavor.ADIABATIC), noise_all) for c in fig4_grid]
    i_min = int(np.argmin(ad_curve))
    interior_ok = 0 < i_min < len(fig4_grid) - 1
    t_feasible = amplitude_threshold_time(params(1.0, Flavor.SATD))
    satd_grid = [c for c in fig4_grid if c >= t_feasible] or [t_feasible * 1.001]
    satd_min = min(_eps_map(params(c, Flavor.SATD), noise_all) for c in satd_grid)
    beats_ok = satd_min < ad_curve[i_min]
    ok = ordering_ok and interior_ok and beats_ok
    detail = (
        f"ordering={ordering_ok}; adiabatic min {ad_curve[i_min]:.3e} at cyc={fig4_grid[i_min]:.2f} "
        f"(interior={interior_ok}); accelerated min {satd_min:.3e} (smaller={beats_ok})"
    )
    _report(7, "robustness ordering", ok, detail)
    assert ok, detail


def test_criterion_08_contour_claim():
    """Rate headroom at matched best error, sampled on the diagonal
    gamma_gs = gamma_e with a ten-cycle time budget and k = 0.05."""
    k = 0.05
    t_feasible = amplitude_threshold_time(params(1.0, Flavor.SATD))
    tg_max = 10.0

    def min_eps(flavor, s):
        lo = t_feasible * 1.001 if flavor is Flavor.SATD else 2.0
        grid = np.geomspace(lo, tg_max, 10 if flavor is Flavor.SATD else 16)
        noise = NoiseModel((s, s, s, s), k=k)
        best = math.inf
        for cyc in grid:
            p = params(float(cyc), flavor)
            best = min(best, 1.0 - map_fidelity_uncertainty_avg(p, noise, 3, SWEEP))
        return best

    scales = (1e-4, 3e-4, 1e-3, 3e-3, 1e-2)
    curve_a = [min_eps(Flavor.ADIABATIC, s) for s in scales]
    curve_s = [min_eps(Flavor.SATD, s) for s in scales]
    log_s = np.log(scales)

    def rate_at(level, curve):
        return math.exp(float(np.interp(math.log(level), np.log(curve), log_s)))

    levels = (1e-3, 3e-3, 1e-2)
    ratios = [rate_at(L, curve_s) / rate_at(L, curve_a) for L in levels]
    ok = all(r >= 5.0 for r in ratios)
    detail = "; ".join(f"level={L:.0e}: rate ratio={r:.2f}" for L, r in zip(levels, ratios))
    _report(8, "contour rate headroom", ok, detail)
    assert ok, (
        "the accelerated gate's rate headroom at matched error stays below 5x: " + detail
    )


def test_criterion_09_oracle_equivalence():
    """Both perturbative oracles track the direct numerics."""
    # Half-pulse Magnus oracle: error-prediction deviation shrinks over a
    # decade of gate times.
    devs = []
    for cyc in (3.0, 6.0, 12.0, 30.0):
        p = params(cyc)
        u = _unitary(p)
        target = ideal_gate(p)
        eps_num = 1.0 - avg_gate_fidelity(target.conj().T @ u, 4)
        eps_oracle = 1.0 - avg_gate_fidelity(target.conj().T @ magnus_full_gate(p), 4)
        devs.append((cyc, abs(eps_oracle - eps_num) / eps_num))
    monotone = all(a[1] > b[1] for a, b in zip(devs, devs[1:]))

    # Dissipative oracle against the first-order closed form at a weak rate.
    noise = NoiseModel((0.0, 0.0, 0.0, 1e-3))
    oracle_devs = []
    for cyc in (2.0, 6.0, 12.0):
        p = params(cyc, Flavor.SATD)
        shape = make_pulse_shape(cyc)
        eps_oracle = 1.0 - oracle_b_map_fidelity(p, shape, noise, IntegratorConfig(1e-9, 1e-11))
        eps_pred = 1.0 - analytic_satd_dephasing_fidelity(p, shape, noise)
        oracle_devs.append((cyc, abs(eps_oracle - eps_pred) / eps_pred))
    dissipative_ok = all(d <= 0.01 for _, d in oracle_devs)
    ok = monotone and dissipative_ok
    detail = (
        "half-pulse dev " + ", ".join(f"{c:g}:{d:.2e}" for c, d in devs)
        + " | dissipative dev " + ", ".join(f"{c:g}:{d:.2e}" for c, d in oracle_devs)
    )
    _report(9, "oracle equivalence", ok, detail)
    assert ok, detail


def test_criterion_10_conservation_suite():
    """Every propagation recorded by the criteria obeyed its invariants."""
    unitarity = [v for kind, v in CONSERVATION_RECORDS if kind == "unitarity"]
    traces = [v for kind, v in CONSERVATION_RECORDS if kind == "trace"]
    eigs = [v for kind, v in CONSERVATION_RECORDS if kind == "positivity"]
    counts = (len(unitarity), len(traces), len(eigs))
    ok = (
        all(c > 0 for c in counts)
        and max(unitarity) <= 1e-8
        and max(traces) <= 1e-8
        and min(eigs) >= -1e-8
    )
    detail = (
        f"{counts[0]} unitary runs (worst defect {max(unitarity):.1e}), "
        f"{counts[1]} density runs (worst trace defect {max(traces):.1e}, "
        f"min eigenvalue {min(eigs):.1e})"
    )
    _report(10, "conservation suite", ok, detail)
    assert ok, detail
