"""Command-line driver: sweep orchestration and reproducible CSV output.

All physical inputs are dimensionless in units where omega0/(2*pi) = 1: gate
times are given in cycles (omega0*t_g/2pi) and dephasing rates in units of
omega0/2pi.  Identical configs produce byte-identical CSV files; parallel and
serial runs yield the same sorted rows.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .controls import (
    ControlParams,
    Flavor,
    amplitude_threshold_time,
    cost_threshold_time,
    envelope_rows,
    make_envelopes,
    make_pulse_shape,
)
from .dynamics import NoiseModel, NumericalError, propagate_unitary
from .metrics import (
    analytic_satd_dephasing_fidelity,
    avg_gate_fidelity,
    clamp_error,
    closed_form_fidelities,
    map_fidelity,
    map_fidelity_uncertainty_avg,
    qubit_overlap_operator,
)
from .oracles import magnus_full_gate, oracle_b_map_fidelity
from .qmath import IntegratorConfig, OdeStepUnderflow
from .tripod import ideal_gate, satd_gate

OMEGA0 = 2.0 * math.pi

KINDS = ("gate-error", "noise-map", "contour", "pulses", "oracle-compare")

HEADERS = {
    "gate-error": "tg_cycles,flavor,eps_full,eps_qubit,eps_full_pred,eps_qubit_pred,eps_oracleA",
    "noise-map": "tg_cycles,flavor,k,eps_map,eps_map_avg,max_amp_over_omega0,cost_over_halfomega0",
    "contour": "gamma_gs,gamma_e,flavor,tg_star_cycles,eps_star,feasible",
    "pulses": "t_cycles,re_omega_0e,im_omega_0e,re_omega_1e,im_omega_1e,re_omega_ae,im_omega_ae",
    "oracle-compare": "tg_cycles,eps_full_numeric,eps_full_oracle_a,eps_map_numeric,eps_map_eq48,eps_map_oracle_b",
}


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")
        self.field = field


@dataclass(frozen=True)
class SweepSpec:
    """Parsed, validated sweep configuration."""

    kind: str
    out: str
    alpha: float
    beta: float
    gamma0: float
    flavors: tuple[str, ...]
    tg_grid: tuple[float, ...]
    gamma_phi: tuple[float, float, float, float]
    k: float
    uncertainty_nodes: int
    rel_tol: float
    abs_tol: float
    samples: int
    pulse_tg: float
    pulse_amp_scale: float
    contour_gamma_gs: tuple[float, ...]
    contour_gamma_e: tuple[float, ...]
    contour_tg_min: float
    contour_tg_max: float
    contour_coarse: int
    contour_rel_tol: float
    jobs: int

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def params(self, tg_cycles: float, flavor: str, amp_scale: float = 1.0) -> ControlParams:
        return ControlParams(
            OMEGA0, self.alpha, self.beta, self.gamma0, tg_cycles, Flavor(flavor), amp_scale
        )

    def noise(self, gamma_phi=None, k=None) -> NoiseModel:
        return NoiseModel(
            self.gamma_phi if gamma_phi is None else tuple(gamma_phi),
            self.k if k is None else k,
        )


def _num(value, field: str) -> float:
    """A finite float from a config value; anything else is a ConfigError."""
    try:
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(field, f"must be a number, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(field, f"must be finite, got {value!r}")
    return x


def _int(value, field: str) -> int:
    x = _num(value, field)
    if x != int(x):
        raise ConfigError(field, f"must be an integer, got {value!r}")
    return int(x)


def _rates(values, field: str) -> tuple[float, ...]:
    if not isinstance(values, list):
        raise ConfigError(field, "must be a list of rates")
    rates = tuple(_num(g, field) for g in values)
    if any(g < 0.0 for g in rates):
        raise ConfigError(field, "rates must be nonnegative")
    return rates


def _grid(cfg: dict, field: str) -> tuple[float, ...]:
    g = cfg.get(field)
    if g is None:
        raise ConfigError(field, "missing grid specification")
    if not isinstance(g, dict):
        raise ConfigError(field, "must be an object with scale/min/max/count")
    scale = g.get("scale", "log")
    if scale not in ("log", "linear"):
        raise ConfigError(f"{field}.scale", "must be 'log' or 'linear'")
    lo = _num(g.get("min"), f"{field}.min")
    hi = _num(g.get("max"), f"{field}.max")
    count = _int(g.get("count"), f"{field}.count")
    if count < 2:
        raise ConfigError(f"{field}.count", "grid count must be >= 2")
    if not 0.0 < lo < hi:
        raise ConfigError(field, "requires 0 < min < max")
    pts = np.geomspace(lo, hi, count) if scale == "log" else np.linspace(lo, hi, count)
    return tuple(float(x) for x in pts)


def load_spec(path: str, kind: str | None = None, overrides: dict | None = None) -> SweepSpec:
    """Read and validate a JSON config; CLI flag overrides win over the file."""
    overrides = overrides or {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")

    cfg_kind = cfg.get("kind", kind)
    if cfg_kind not in KINDS:
        raise ConfigError("kind", f"must be one of {KINDS}, got {cfg_kind!r}")
    if kind is not None and cfg_kind != kind:
        raise ConfigError("kind", f"config says {cfg_kind!r} but the subcommand expects {kind!r}")

    out = overrides.get("out") or cfg.get("out")
    if not out or not isinstance(out, str):
        raise ConfigError("out", "an output path is required (config 'out' or --out)")

    alpha = _num(cfg.get("alpha", math.pi / 4), "alpha")
    beta = _num(cfg.get("beta", 0.0), "beta")
    gamma0 = _num(cfg.get("gamma0", math.pi), "gamma0")
    try:
        ControlParams(OMEGA0, alpha, beta, gamma0, 1.0)
    except ValueError as exc:
        raise ConfigError("alpha/beta/gamma0", str(exc)) from exc

    flavors = cfg.get("flavors", ["adiabatic", "satd"])
    if isinstance(flavors, str):
        flavors = [flavors]
    if not isinstance(flavors, list) or not flavors or any(f not in ("adiabatic", "satd") for f in flavors):
        raise ConfigError("flavors", "entries must be 'adiabatic' or 'satd'")

    noise_cfg = cfg.get("noise", {})
    if not isinstance(noise_cfg, dict):
        raise ConfigError("noise", "must be an object")
    gamma_phi = noise_cfg.get("gamma_phi", [0.0, 0.0, 0.0, 0.0])
    if not isinstance(gamma_phi, list) or len(gamma_phi) != 4:
        raise ConfigError("noise.gamma_phi", "must be a list of four rates [g0, g1, ga, ge]")
    gamma_phi = _rates(gamma_phi, "noise.gamma_phi")
    k = _num(noise_cfg.get("k", 0.0), "noise.k")
    if not 0.0 <= k < 1.0:
        raise ConfigError("noise.k", "must lie in [0, 1)")

    integ = cfg.get("integrator", {})
    if not isinstance(integ, dict):
        raise ConfigError("integrator", "must be an object")
    tol = overrides.get("tol")
    rel_tol = _num(integ.get("rel_tol", 1e-10) if tol is None else tol, "integrator.rel_tol")
    abs_tol = _num(integ.get("abs_tol", rel_tol * 1e-2), "integrator.abs_tol")
    if rel_tol <= 0.0 or abs_tol <= 0.0:
        raise ConfigError("integrator", "tolerances must be positive")

    tg_grid: tuple[float, ...] = ()
    if cfg_kind in ("gate-error", "noise-map", "oracle-compare"):
        tg_grid = _grid(cfg, "tg_grid")

    samples = _int(cfg.get("samples", 101), "samples")
    pulse_tg = _num(cfg.get("tg_cycles", 4.0), "tg_cycles")
    pulse_amp = _num(cfg.get("amp_scale", 1.0), "amp_scale")
    if cfg_kind == "pulses":
        if samples < 2:
            raise ConfigError("samples", "must be >= 2")
        if pulse_tg <= 0.0:
            raise ConfigError("tg_cycles", "must be positive")
        if pulse_amp <= 0.0:
            raise ConfigError("amp_scale", "must be positive")

    cont = cfg.get("contour", {})
    if not isinstance(cont, dict):
        raise ConfigError("contour", "must be an object")
    c_gs = _rates(cont.get("gamma_gs", []), "contour.gamma_gs")
    c_e = _rates(cont.get("gamma_e", []), "contour.gamma_e")
    c_lo = _num(cont.get("tg_min", 2.0), "contour.tg_min")
    c_hi = _num(cont.get("tg_max", 30.0), "contour.tg_max")
    c_coarse = _int(cont.get("coarse_count", 60), "contour.coarse_count")
    c_rtol = _num(cont.get("golden_rel_tol", 1e-3), "contour.golden_rel_tol")
    if cfg_kind == "contour":
        if not c_gs or not c_e:
            raise ConfigError("contour", "gamma_gs and gamma_e rate grids are required")
        if not 0.0 < c_lo < c_hi:
            raise ConfigError("contour", "requires 0 < tg_min < tg_max")
        if c_coarse < 2:
            raise ConfigError("contour.coarse_count", "must be >= 2")
        if c_rtol <= 0.0:
            raise ConfigError("contour.golden_rel_tol", "must be positive")

    nodes = _int(cfg.get("uncertainty_nodes", 21), "uncertainty_nodes")
    if nodes < 1:
        raise ConfigError("uncertainty_nodes", "must be >= 1")

    jobs = overrides.get("jobs")
    if jobs is None:
        jobs = cfg.get("jobs")
    jobs = _default_jobs() if jobs is None else _int(jobs, "jobs")
    if jobs < 1:
        raise ConfigError("jobs", "must be >= 1")

    return SweepSpec(
        kind=cfg_kind,
        out=out,
        alpha=alpha,
        beta=beta,
        gamma0=gamma0,
        flavors=tuple(flavors),
        tg_grid=tg_grid,
        gamma_phi=gamma_phi,
        k=k,
        uncertainty_nodes=nodes,
        rel_tol=rel_tol,
        abs_tol=abs_tol,
        samples=samples,
        pulse_tg=pulse_tg,
        pulse_amp_scale=pulse_amp,
        contour_gamma_gs=c_gs,
        contour_gamma_e=c_e,
        contour_tg_min=c_lo,
        contour_tg_max=c_hi,
        contour_coarse=c_coarse,
        contour_rel_tol=c_rtol,
        jobs=jobs,
    )


def _default_jobs() -> int:
    env = os.environ.get("TRIPOD_STA_JOBS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _write_csv(path: str, kind: str, rows: list[tuple], comments: list[str]) -> None:
    lines = [f"# {c}" for c in comments]
    lines.append(HEADERS[kind])
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _base_comments(spec: SweepSpec) -> list[str]:
    return [
        f"alpha={_fmt(spec.alpha)} beta={_fmt(spec.beta)} gamma0={_fmt(spec.gamma0)}",
        f"gamma_phi={','.join(_fmt(g) for g in spec.gamma_phi)} k={_fmt(spec.k)}",
        f"rel_tol={_fmt(spec.rel_tol)} abs_tol={_fmt(spec.abs_tol)} uncertainty_nodes={spec.uncertainty_nodes}",
    ]


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, tasks))


def _tag_failure(desc: str, fn):
    """Run fn, tagging numerical failures with the offending parameter tuple."""
    try:
        return fn()
    except (NumericalError, OdeStepUnderflow) as exc:
        raise NumericalError(f"at {desc}: {exc}") from exc


# --- gate-time error sweep -------------------------------------------------

def _gate_error_point(task: tuple[SweepSpec, float, str]) -> tuple:
    spec, tg, flavor = task
    return _tag_failure(f"(tg_cycles={tg}, flavor={flavor})", lambda: _gate_error_row(spec, tg, flavor))


def _gate_error_row(spec: SweepSpec, tg: float, flavor: str) -> tuple:
    p = spec.params(tg, flavor)
    shape = make_pulse_shape(p.t_gate)
    env = make_envelopes(p, shape)
    cfg = spec.integrator()
    u = propagate_unitary(p, env, cfg).final_operator
    target = ideal_gate(p).full_matrix()
    eps_full = 1.0 - avg_gate_fidelity(target.conj().T @ u, 4)
    eps_qubit = 1.0 - avg_gate_fidelity(qubit_overlap_operator(target, u), 2)
    if flavor == "adiabatic":
        f_full, f_qubit = closed_form_fidelities(p)
        eps_full_pred = 1.0 - f_full
        eps_qubit_pred = 1.0 - f_qubit
        eps_oracle = 1.0 - avg_gate_fidelity(target.conj().T @ magnus_full_gate(p), 4)
    else:
        # The accelerated protocol's closed-form prediction is its exact gate.
        predicted = satd_gate(p, shape).full_matrix()
        eps_full_pred = 1.0 - avg_gate_fidelity(target.conj().T @ predicted, 4)
        eps_qubit_pred = 0.0
        eps_oracle = eps_full_pred
    floor = spec.rel_tol
    return (
        tg,
        flavor,
        clamp_error(eps_full, floor),
        clamp_error(eps_qubit, floor),
        clamp_error(eps_full_pred, floor),
        clamp_error(eps_qubit_pred, floor),
        clamp_error(eps_oracle, floor),
    )


def run_gate_time_error_sweep(spec: SweepSpec) -> list[tuple]:
    tasks = [(spec, tg, flavor) for tg in spec.tg_grid for flavor in spec.flavors]
    rows = _run_tasks(_gate_error_point, tasks, spec.jobs)
    return sorted(rows, key=lambda r: (r[0], r[1]))


# --- noise-map sweep -------------------------------------------------------

def _noise_map_point(task: tuple[SweepSpec, float, str]) -> list[tuple]:
    spec, tg, flavor = task
    return _tag_failure(f"(tg_cycles={tg}, flavor={flavor})", lambda: _noise_map_rows(spec, tg, flavor))


def _noise_map_rows(spec: SweepSpec, tg: float, flavor: str) -> list[tuple]:
    p = spec.params(tg, flavor)
    shape = make_pulse_shape(p.t_gate)
    env = make_envelopes(p, shape)
    cfg = spec.integrator()
    floor = spec.rel_tol
    max_amp = env.max_amplitude / OMEGA0
    cost = env.cost / (0.5 * OMEGA0)
    eps_nominal = clamp_error(1.0 - map_fidelity(p, env, spec.noise(k=0.0), cfg), floor)
    rows = [(tg, flavor, 0.0, eps_nominal, eps_nominal, max_amp, cost)]
    if spec.k > 0.0:
        f_avg = map_fidelity_uncertainty_avg(p, spec.noise(), spec.uncertainty_nodes, cfg, shape)
        rows.append((tg, flavor, spec.k, eps_nominal, clamp_error(1.0 - f_avg, floor), max_amp, cost))
    return rows


def run_noise_map_sweep(spec: SweepSpec) -> tuple[list[tuple], list[str]]:
    tasks = [(spec, tg, flavor) for tg in spec.tg_grid for flavor in spec.flavors]
    nested = _run_tasks(_noise_map_point, tasks, spec.jobs)
    rows = sorted((r for group in nested for r in group), key=lambda r: (r[0], r[1], r[2]))
    marker = spec.params(1.0, "satd")
    comments = _base_comments(spec) + [
        f"satd_max_amp_threshold_cycles={_fmt(amplitude_threshold_time(marker))}",
        f"satd_cost_2x_threshold_cycles={_fmt(cost_threshold_time(marker, 2.0))}",
        f"satd_cost_3x_threshold_cycles={_fmt(cost_threshold_time(marker, 3.0))}",
    ]
    return rows, comments


# --- contour search --------------------------------------------------------

def _contour_objective(spec: SweepSpec, flavor: str, g_gs: float, g_e: float):
    noise = NoiseModel((g_gs, g_gs, g_gs, g_e), spec.k)
    cfg = spec.integrator()

    def eps(tg: float) -> float:
        p = spec.params(tg, flavor)
        return 1.0 - map_fidelity_uncertainty_avg(p, noise, spec.uncertainty_nodes, cfg)

    return eps


def _golden_minimize(f, lo: float, hi: float, rel_tol: float) -> tuple[float, float]:
    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = f(c1), f(c2)
    while (b - a) > rel_tol * b:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - gr * (b - a)
            f1 = f(c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + gr * (b - a)
            f2 = f(c2)
    mid = 0.5 * (a + b)
    return mid, f(mid)


def _contour_point(task: tuple[SweepSpec, float, float, str, float]) -> tuple:
    spec, g_gs, g_e, flavor, satd_tg_min = task
    return _tag_failure(
        f"(gamma_gs={g_gs}, gamma_e={g_e}, flavor={flavor})",
        lambda: _contour_row(spec, g_gs, g_e, flavor, satd_tg_min),
    )


def _contour_row(spec: SweepSpec, g_gs: float, g_e: float, flavor: str, satd_tg_min: float) -> tuple:
    """Best (tg, eps) for one rate pair; SATD gate times start at
    satd_tg_min, the amplitude threshold."""
    lo, hi = spec.contour_tg_min, spec.contour_tg_max
    if flavor == "satd":
        lo = max(lo, satd_tg_min)
    if lo >= hi:
        return (g_gs, g_e, flavor, math.nan, math.nan, 0)
    eps = _contour_objective(spec, flavor, g_gs, g_e)
    grid = np.geomspace(lo, hi, spec.contour_coarse)
    vals = [eps(float(t)) for t in grid]
    i = int(np.argmin(vals))
    a = float(grid[max(0, i - 1)])
    b = float(grid[min(len(grid) - 1, i + 1)])
    tg_star, eps_star = _golden_minimize(eps, a, b, spec.contour_rel_tol)
    if vals[i] < eps_star:
        tg_star, eps_star = float(grid[i]), vals[i]
    return (g_gs, g_e, flavor, tg_star, eps_star, 1)


def run_contour_search(spec: SweepSpec) -> list[tuple]:
    satd_tg_min = amplitude_threshold_time(spec.params(1.0, "satd")) if "satd" in spec.flavors else math.nan
    tasks = [
        (spec, g_gs, g_e, flavor, satd_tg_min)
        for g_gs in spec.contour_gamma_gs
        for g_e in spec.contour_gamma_e
        for flavor in spec.flavors
    ]
    rows = _run_tasks(_contour_point, tasks, spec.jobs)
    return sorted(rows, key=lambda r: (r[0], r[1], r[2]))


# --- pulse export and oracle comparison ------------------------------------

def export_pulses(spec: SweepSpec) -> list[tuple]:
    flavor = spec.flavors[0]
    p = spec.params(spec.pulse_tg, flavor, spec.pulse_amp_scale)
    env = make_envelopes(p, make_pulse_shape(p.t_gate))
    return envelope_rows(env, spec.samples)


def _oracle_compare_point(task: tuple[SweepSpec, float]) -> tuple:
    spec, tg = task
    return _tag_failure(f"(tg_cycles={tg})", lambda: _oracle_compare_row(spec, tg))


def _oracle_compare_row(spec: SweepSpec, tg: float) -> tuple:
    cfg = spec.integrator()
    floor = spec.rel_tol

    p_ad = spec.params(tg, "adiabatic")
    shape = make_pulse_shape(p_ad.t_gate)
    env_ad = make_envelopes(p_ad, shape)
    u = propagate_unitary(p_ad, env_ad, cfg).final_operator
    target = ideal_gate(p_ad).full_matrix()
    eps_num_full = 1.0 - avg_gate_fidelity(target.conj().T @ u, 4)
    eps_oracle_a = 1.0 - avg_gate_fidelity(target.conj().T @ magnus_full_gate(p_ad), 4)

    p_sa = spec.params(tg, "satd")
    noise = spec.noise(k=0.0)
    env_sa = make_envelopes(p_sa, shape)
    eps_map_num = 1.0 - map_fidelity(p_sa, env_sa, noise, cfg)
    eps_eq48 = 1.0 - analytic_satd_dephasing_fidelity(p_sa, shape, noise)
    eps_oracle_b = 1.0 - oracle_b_map_fidelity(p_sa, shape, noise, cfg)
    return (
        tg,
        clamp_error(eps_num_full, floor),
        clamp_error(eps_oracle_a, floor),
        clamp_error(eps_map_num, floor),
        clamp_error(eps_eq48, floor),
        clamp_error(eps_oracle_b, floor),
    )


def run_oracle_compare(spec: SweepSpec) -> list[tuple]:
    tasks = [(spec, tg) for tg in spec.tg_grid]
    rows = _run_tasks(_oracle_compare_point, tasks, spec.jobs)
    return sorted(rows, key=lambda r: r[0])


# --- entry point -----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripod-sta", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="JSON sweep configuration")
        p.add_argument("--out", help="output CSV path (overrides config)")
        p.add_argument("--jobs", type=int, help="worker processes (default $TRIPOD_STA_JOBS or 1)")
        p.add_argument("--tol", type=float, help="integrator rel_tol override")

    sweep = sub.add_parser("sweep", help="gate-time sweeps")
    sweep_sub = sweep.add_subparsers(dest="sweep_kind", required=True)
    add_common(sweep_sub.add_parser("gate-error", help="unitary gate-error sweep"))
    add_common(sweep_sub.add_parser("noise-map", help="dissipative map-fidelity sweep"))

    add_common(sub.add_parser("contour", help="best-error search over rate pairs"))

    pulses = sub.add_parser("pulses", help="control envelope export")
    pulses_sub = pulses.add_subparsers(dest="pulse_kind", required=True)
    add_common(pulses_sub.add_parser("export", help="sample envelopes to CSV"))

    oracle = sub.add_parser("oracle", help="oracle cross-checks")
    oracle_sub = oracle.add_subparsers(dest="oracle_kind", required=True)
    add_common(oracle_sub.add_parser("compare", help="tabulate oracles vs numerics"))
    return parser


def _kind_of(args: argparse.Namespace) -> str:
    if args.command == "sweep":
        return args.sweep_kind
    if args.command == "pulses":
        return "pulses"
    if args.command == "oracle":
        return "oracle-compare"
    return "contour"


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    kind = _kind_of(args)
    overrides = {"out": args.out, "jobs": args.jobs, "tol": args.tol}
    try:
        spec = load_spec(args.config, kind, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        comments = _base_comments(spec)
        if kind == "gate-error":
            rows = run_gate_time_error_sweep(spec)
        elif kind == "noise-map":
            rows, comments = run_noise_map_sweep(spec)
        elif kind == "contour":
            rows = run_contour_search(spec)
            comments += [
                f"tg_window_cycles=[{_fmt(spec.contour_tg_min)},{_fmt(spec.contour_tg_max)}]",
            ]
        elif kind == "pulses":
            rows = export_pulses(spec)
            comments += [
                f"flavor={spec.flavors[0]} tg_cycles={_fmt(spec.pulse_tg)} amp_scale={_fmt(spec.pulse_amp_scale)}",
            ]
        else:
            rows = run_oracle_compare(spec)
    except (NumericalError, OdeStepUnderflow) as exc:
        print(f"numerical failure (kind={kind}): {exc}", file=sys.stderr)
        return 3

    _write_csv(spec.out, kind, rows, comments)
    return 0


if __name__ == "__main__":
    sys.exit(main())
