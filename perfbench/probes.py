"""Single-call timings of the library layers at the fixed inputs of the
ROADMAP item 1 table (alpha = pi/4, beta = 0, gamma0 = pi, omega0/2pi = 1).

Each probe runs untraced and reports the median of REPEATS calls.
"""

from __future__ import annotations

import math
import statistics
import time

REPEATS = 3
HAMILTONIAN_CALLS = 2000


def _median_ms(fn, repeats: int = REPEATS) -> tuple[float, object]:
    times, result = [], None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times), result


def run_probes() -> dict[str, float]:
    from tripod_sta.controls import (
        ControlParams,
        Flavor,
        cost_threshold_time,
        energy_cost,
        make_envelopes,
        make_pulse_shape,
    )
    from tripod_sta.dynamics import NoiseModel, propagate_unitary
    from tripod_sta.metrics import map_fidelity, map_fidelity_uncertainty_avg
    from tripod_sta.oracles import oracle_b_map_fidelity
    from tripod_sta.qmath import IntegratorConfig
    from tripod_sta.tripod import hamiltonian

    omega0 = 2.0 * math.pi

    def params(tg: float, flavor: Flavor) -> ControlParams:
        return ControlParams(omega0, math.pi / 4, 0.0, math.pi, tg, flavor)

    closed = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-12)
    open_cfg = IntegratorConfig(rel_tol=1e-8, abs_tol=1e-10)
    noise = NoiseModel((0.0, 0.0, 0.0, 0.01), 0.2)
    out: dict[str, float] = {}

    p5 = params(5.0, Flavor.SATD)
    shape5 = make_pulse_shape(5.0)
    env5 = make_envelopes(p5, shape5)
    ts = [5.0 * i / HAMILTONIAN_CALLS for i in range(HAMILTONIAN_CALLS)]

    def hamiltonian_batch():
        for t in ts:
            hamiltonian(env5, t)

    batch_ms, _ = _median_ms(hamiltonian_batch, 5)
    out["probe.hamiltonian_us"] = 1e3 * batch_ms / HAMILTONIAN_CALLS

    for flavor in (Flavor.ADIABATIC, Flavor.SATD):
        for tg in (2, 5, 30):
            p = params(float(tg), flavor)
            env = make_envelopes(p)
            ms, res = _median_ms(lambda: propagate_unitary(p, env, closed))
            key = f"probe.propagate_unitary.{flavor.value}.tg{tg}"
            out[f"{key}_ms"] = ms
            out[f"{key}_steps"] = res.steps_accepted

    out["probe.map_fidelity.satd.tg5_ms"], _ = _median_ms(lambda: map_fidelity(p5, env5, noise, open_cfg))
    out["probe.uncertainty_avg21.satd.tg5_ms"], _ = _median_ms(
        lambda: map_fidelity_uncertainty_avg(p5, noise, 21, open_cfg, shape5)
    )
    out["probe.energy_cost.satd.tg5_ms"], _ = _median_ms(lambda: energy_cost(env5, p5))
    out["probe.cost_threshold_2x_ms"], _ = _median_ms(lambda: cost_threshold_time(params(1.0, Flavor.SATD), 2.0))
    out["probe.oracle_b.tg5_ms"], _ = _median_ms(
        lambda: oracle_b_map_fidelity(p5, shape5, NoiseModel((0.0, 0.0, 0.0, 0.01)), open_cfg)
    )
    return out
