"""Command-line driver: sweep orchestration and reproducible CSV output.

All physical inputs are dimensionless in units where omega0/(2*pi) = 1: gate
times are given in cycles (omega0*t_g/2pi) and dephasing rates in units of
omega0/2pi.  Identical configs produce byte-identical CSV files; parallel and
serial runs yield the same sorted rows.

Each kind splits its sweep into tasks: one per grid point, for gate-error
one contiguous lockstep batch of points per job, and for noise-map one
contiguous chunk of each flavor's grid per Lindblad solve
(metrics.point_chunks, set by the config alone).  The tasks run on at most
--jobs worker processes, and a numerical failure names the first failing
point of the first failing task, in the order the kind lists them (for
noise-map: flavor by flavor, each in grid order).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .controls import (
    ControlParams,
    EnvelopeSet,
    Flavor,
    amplitude_threshold_time,
    cost_threshold_time,
    envelope_rows,
    make_envelopes,
    make_pulse_shape,
)
from .dynamics import NoiseModel, NumericalError, propagate_unitary_batch
from .metrics import (
    MAX_UNCERTAINTY_NODES,
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
from .oracles import magnus_full_gate, oracle_b_map_fidelity
from .qmath import ABS_TOL_FLOOR, IntegratorConfig, OdeStepUnderflow
from .tripod import ideal_gate, satd_gate

OMEGA0 = 2.0 * math.pi

# Shortest gate time a config may ask for, in cycles.  Far below any
# physical use, and far above the times where the pulse shape's 1/t_g^2 and
# the closed-form predictions' 1/(omega0*t_g)^6 leave the float range.
MIN_TG_CYCLES = 1e-6

# Most points a config grid may ask for (samples, tg_grid.count,
# contour.coarse_count): each costs at least one CSV row or one propagation,
# and a grid of 10^13 does not fit in memory.
MAX_GRID_POINTS = 100_000


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")
        self.field = field


@dataclass(frozen=True)
class SweepSpec:
    """Parsed, validated sweep configuration.

    `fields` holds the config fields only this spec's kind reads, as parsed
    by that kind's `Kind.parse`.
    """

    kind: str
    out: str
    alpha: float
    beta: float
    gamma0: float
    flavors: tuple[str, ...]
    noise: NoiseModel
    uncertainty_nodes: int
    integrator: IntegratorConfig
    jobs: int
    fields: object

    def params(self, tg_cycles: float, flavor: str, amp_scale: float = 1.0) -> ControlParams:
        return ControlParams(OMEGA0, self.alpha, self.beta, self.gamma0, tg_cycles, Flavor(flavor), amp_scale)


PulseFields = namedtuple("PulseFields", "samples tg_cycles amp_scale")
ContourFields = namedtuple("ContourFields", "gamma_gs gamma_e tg_min tg_max coarse_count golden_rel_tol")


def _num(value, field: str) -> float:
    """A finite float from a config value; anything else is a ConfigError."""
    if isinstance(value, bool):  # float() would take JSON true/false as 1.0/0.0
        raise ConfigError(field, f"must be a number, got {value!r}")
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


def _flavors(value, field: str) -> tuple[str, ...]:
    flavors = [value] if isinstance(value, str) else value
    if not isinstance(flavors, list) or not flavors or any(f not in ("adiabatic", "satd") for f in flavors):
        raise ConfigError(field, "entries must be 'adiabatic' or 'satd'")
    if len(set(flavors)) < len(flavors):
        raise ConfigError(field, f"entries must not repeat, got {flavors!r}")
    return tuple(flavors)


def _field(cfg: dict, path: str, default=None, conv=_num, ok=None, need: str = ""):
    """The config value at a dotted path, converted and range-checked.

    Every step of the path must be a JSON object; a missing field takes
    default.  conv(value, path) converts or raises ConfigError, and a
    converted value x with ok(x) false fails as "must be <need>".
    """
    node, keys = cfg, path.split(".")
    for depth, key in enumerate(keys[:-1], 1):
        node = node.get(key, {})
        if not isinstance(node, dict):
            raise ConfigError(".".join(keys[:depth]), "must be an object")
    x = conv(node.get(keys[-1], default), path)
    if ok is not None and not ok(x):
        raise ConfigError(path, f"must be {need}")
    return x


def _library(field: str, make, *args):
    """make(*args), with a library type's ValueError as a ConfigError."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ConfigError(field, str(exc)) from exc


# ok and need of a gate-time field and of a grid count.
_GATE_TIME = (lambda x: x >= MIN_TG_CYCLES, f">= {MIN_TG_CYCLES:g} cycles")
_GRID_COUNT = (lambda n: 2 <= n <= MAX_GRID_POINTS, f"in [2, {MAX_GRID_POINTS}]")


def _tg_grid(cfg: dict) -> tuple[float, ...]:
    scale = _field(
        cfg, "tg_grid.scale", "log", lambda v, _: v, lambda v: v in ("log", "linear"), "'log' or 'linear'"
    )
    lo = _field(cfg, "tg_grid.min", None, _num, *_GATE_TIME)
    hi = _field(cfg, "tg_grid.max", None, _num, lambda x: x > lo, "> tg_grid.min")
    count = _field(cfg, "tg_grid.count", None, _int, *_GRID_COUNT)
    pts = np.geomspace(lo, hi, count) if scale == "log" else np.linspace(lo, hi, count)
    return tuple(float(x) for x in pts)


def _oracle_compare_fields(cfg: dict) -> tuple[float, ...]:
    # Oracle B and the closed form it is checked against cover excited-state dephasing only.
    need = "zero but for its last rate (excited-state dephasing only)"
    _field(cfg, "noise.gamma_phi", [0.0] * 4, _rates, lambda g: not any(g[:3]), need)
    return _tg_grid(cfg)


def _pulse_fields(cfg: dict) -> PulseFields:
    return PulseFields(
        _field(cfg, "samples", 101, _int, *_GRID_COUNT),
        _field(cfg, "tg_cycles", 4.0, _num, *_GATE_TIME),
        _field(cfg, "amp_scale", 1.0, _num, lambda x: x > 0.0, "positive"),
    )


def _contour_fields(cfg: dict) -> ContourFields:
    rates = _rates, bool, "a nonempty list of rates"
    tg_min = _field(cfg, "contour.tg_min", 2.0, _num, *_GATE_TIME)
    return ContourFields(
        _field(cfg, "contour.gamma_gs", [], *rates),
        _field(cfg, "contour.gamma_e", [], *rates),
        tg_min,
        _field(cfg, "contour.tg_max", 30.0, _num, lambda x: x > tg_min, "> contour.tg_min"),
        _field(cfg, "contour.coarse_count", 60, _int, *_GRID_COUNT),
        _field(cfg, "contour.golden_rel_tol", 1e-3, _num, lambda x: x > 0.0, "positive"),
    )


def load_spec(path: str, kind: str | None = None, overrides: dict | None = None) -> SweepSpec:
    """Read and validate a JSON config; CLI flag overrides win over the file.

    Only the shared fields and the fields the kind itself reads are checked.
    """
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
    if cfg_kind not in tuple(KINDS):
        raise ConfigError("kind", f"must be one of {tuple(KINDS)}, got {cfg_kind!r}")
    if kind is not None and cfg_kind != kind:
        raise ConfigError("kind", f"config says {cfg_kind!r} but the subcommand expects {kind!r}")

    out = overrides.get("out") or cfg.get("out")
    if not out or not isinstance(out, str):
        raise ConfigError("out", "an output path is required (config 'out' or --out)")
    # Checked here, so a path the CSV cannot be written to fails before the sweep runs.
    if os.path.isdir(out):
        raise ConfigError("out", f"{out!r} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError("out", f"the directory of {out!r} does not exist")

    alpha = _field(cfg, "alpha", math.pi / 4)
    beta = _field(cfg, "beta", 0.0)
    gamma0 = _field(cfg, "gamma0", math.pi)
    _library("alpha/beta/gamma0", ControlParams, OMEGA0, alpha, beta, gamma0, 1.0)
    flavors = _field(cfg, "flavors", ["adiabatic", "satd"], _flavors)

    gamma_phi = _field(
        cfg, "noise.gamma_phi", [0.0] * 4, _rates, lambda g: len(g) == 4, "a list of four rates [g0, g1, ga, ge]"
    )
    # gamma_phi is fully checked above, so NoiseModel can only reject k.
    noise = _library("noise.k", NoiseModel, gamma_phi, _field(cfg, "noise.k", 0.0))

    tol = overrides.get("tol")
    rel_tol = _field(cfg, "integrator.rel_tol", 1e-10) if tol is None else _num(tol, "integrator.rel_tol")
    _library("integrator.rel_tol", IntegratorConfig, rel_tol)
    abs_tol = _field(cfg, "integrator.abs_tol", max(rel_tol * 1e-2, ABS_TOL_FLOOR))
    integrator = _library("integrator.abs_tol", IntegratorConfig, rel_tol, abs_tol)

    fields = KINDS[cfg_kind].parse(cfg)
    in_range = f"in [1, {MAX_UNCERTAINTY_NODES}]"
    nodes = _field(cfg, "uncertainty_nodes", 21, _int, lambda n: 1 <= n <= MAX_UNCERTAINTY_NODES, in_range)

    jobs_field, jobs = "jobs", overrides.get("jobs")
    if jobs is None:
        jobs = cfg.get("jobs")
    if jobs is None:
        jobs_field, jobs = "TRIPOD_STA_JOBS", os.environ.get("TRIPOD_STA_JOBS") or 1
    jobs = _field({jobs_field: jobs}, jobs_field, None, _int, lambda n: n >= 1, ">= 1")

    return SweepSpec(cfg_kind, out, alpha, beta, gamma0, flavors, noise, nodes, integrator, jobs, fields)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _base_comments(spec: SweepSpec) -> list[str]:
    return [
        f"alpha={_fmt(spec.alpha)} beta={_fmt(spec.beta)} gamma0={_fmt(spec.gamma0)}",
        f"gamma_phi={','.join(_fmt(g) for g in spec.noise.gamma_phi)} k={_fmt(spec.noise.k)}",
        f"rel_tol={_fmt(spec.integrator.rel_tol)} abs_tol={_fmt(spec.integrator.abs_tol)} "
        f"uncertainty_nodes={spec.uncertainty_nodes}",
    ]


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    # Imported here, so a serial run never loads the process pool.
    from concurrent.futures import ProcessPoolExecutor

    # The pool forks all its workers at the first submit, so start no idle ones.
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
        return list(pool.map(worker, tasks))


def _run_task(task: tuple[SweepSpec, dict]) -> list[tuple]:
    """Rows of one task; a numerical failure names the parameters of its
    point.  A batch task's point is its failing member of `points` (the first,
    if the failure is tied to none); a task without parameters raises as is."""
    spec, args = task
    try:
        return KINDS[spec.kind].rows(spec, **args)
    except (NumericalError, OdeStepUnderflow) as exc:
        if not args:
            raise
        point = args["points"][getattr(exc, "member", None) or 0] if "points" in args else args
        desc = ", ".join(f"{name}={value}" for name, value in point.items())
        raise NumericalError(f"at ({desc}): {exc}") from exc


# --- gate-time error sweep -------------------------------------------------

def _gate_error_tasks(spec: SweepSpec) -> list[dict]:
    """The grid in at most spec.jobs contiguous chunks, each one lockstep
    batch, so a failure names the first failing point in grid order."""
    points = [{"tg_cycles": tg, "flavor": flavor} for tg in spec.fields for flavor in spec.flavors]
    k = min(spec.jobs, len(points))
    return [{"points": points[len(points) * i // k : len(points) * (i + 1) // k]} for i in range(k)]


def _gate_error_rows(spec: SweepSpec, points: list[dict]) -> list[tuple]:
    """The gate-error row of each point {tg_cycles, flavor}, their closed-path
    propagations run as one lockstep batch; a NumericalError carries the index
    of the failing point as its member."""
    envs = [make_envelopes(spec.params(**point)) for point in points]
    results = propagate_unitary_batch(envs, spec.integrator)
    return [_gate_error_row(spec, env, res.final_operator) for env, res in zip(envs, results)]


def _gate_error_row(spec: SweepSpec, env: EnvelopeSet, u: np.ndarray) -> tuple:
    p, shape = env.params, env.shape
    target = ideal_gate(p)
    eps_full = 1.0 - avg_gate_fidelity(target.conj().T @ u, 4)
    eps_qubit = 1.0 - avg_gate_fidelity(qubit_overlap_operator(target, u), 2)
    if p.flavor is Flavor.ADIABATIC:
        f_full, f_qubit = closed_form_fidelities(p)
        eps_full_pred = 1.0 - f_full
        eps_qubit_pred = 1.0 - f_qubit
        eps_oracle = 1.0 - avg_gate_fidelity(target.conj().T @ magnus_full_gate(p), 4)
    else:
        # The accelerated protocol's closed-form prediction is its exact gate.
        predicted = satd_gate(p, shape)
        eps_full_pred = 1.0 - avg_gate_fidelity(target.conj().T @ predicted, 4)
        eps_qubit_pred = 0.0
        eps_oracle = eps_full_pred
    eps = (eps_full, eps_qubit, eps_full_pred, eps_qubit_pred, eps_oracle)
    return (p.t_gate, p.flavor.value, *(clamp_error(e, spec.integrator.rel_tol) for e in eps))


# --- noise-map sweep -------------------------------------------------------

def _noise_map_tasks(spec: SweepSpec) -> list[dict]:
    """One task per chunk of point_chunks of each flavor's grid: each is one
    Lindblad solve, so the batches come from the config alone."""
    grid = spec.fields
    chunks = point_chunks(len(grid), spec.noise.k, spec.uncertainty_nodes)
    return [
        {"points": [{"tg_cycles": grid[i], "flavor": flavor} for i in chunk]}
        for flavor in spec.flavors
        for chunk in chunks
    ]


def _noise_map_rows(spec: SweepSpec, points: list[dict]) -> list[tuple]:
    """The noise-map rows of each point {tg_cycles, flavor} of one flavor,
    its maps solved together; a NumericalError carries the index of the
    failing point as its member."""
    cfg = spec.integrator
    floor = cfg.rel_tol
    ps = [spec.params(**point) for point in points]
    rows = []
    for p, (f_nominal, f_avg) in zip(ps, nominal_and_uncertainty_avg(ps, spec.noise, spec.uncertainty_nodes, cfg)):
        env = make_envelopes(p)
        max_amp = env.max_amplitude / OMEGA0
        cost = env.cost / (0.5 * OMEGA0)
        tg, flavor = p.t_gate, p.flavor.value
        eps_nominal = clamp_error(1.0 - f_nominal, floor)
        rows.append((tg, flavor, 0.0, eps_nominal, eps_nominal, max_amp, cost))
        if spec.noise.k > 0.0:
            rows.append((tg, flavor, spec.noise.k, eps_nominal, clamp_error(1.0 - f_avg, floor), max_amp, cost))
    return rows


def _noise_map_comments(spec: SweepSpec) -> list[str]:
    marker = spec.params(1.0, "satd")
    return [
        f"satd_max_amp_threshold_cycles={_fmt(amplitude_threshold_time(marker))}",
        f"satd_cost_2x_threshold_cycles={_fmt(cost_threshold_time(marker, 2.0))}",
        f"satd_cost_3x_threshold_cycles={_fmt(cost_threshold_time(marker, 3.0))}",
    ]


# --- contour search --------------------------------------------------------

def _golden_minimize(f, lo: float, hi: float, rel_tol: float) -> tuple[float, float]:
    gr = 0.5 * (math.sqrt(5.0) - 1.0)
    a, b = lo, hi
    c1, c2 = b - gr * (b - a), a + gr * (b - a)
    f1, f2 = f(c1), f(c2)
    # Also stop once the bracket no longer shrinks (adjacent floats), which a
    # rel_tol below the float spacing of the window would never reach.
    width = math.inf
    while rel_tol * b < b - a < width:
        width = b - a
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


def _contour_tasks(spec: SweepSpec) -> list[dict]:
    # The SATD amplitude threshold bounds every SATD window; find it once.
    satd_tg_min = amplitude_threshold_time(spec.params(1.0, "satd")) if "satd" in spec.flavors else math.nan
    c = spec.fields
    return [
        {"gamma_gs": g_gs, "gamma_e": g_e, "flavor": flavor, "satd_tg_min": satd_tg_min}
        for g_gs in c.gamma_gs
        for g_e in c.gamma_e
        for flavor in spec.flavors
    ]


def _contour_rows(
    spec: SweepSpec, gamma_gs: float, gamma_e: float, flavor: str, satd_tg_min: float
) -> list[tuple]:
    """Best (tg, eps) for one rate pair; SATD gate times start at
    satd_tg_min, the amplitude threshold."""
    c = spec.fields
    lo, hi = c.tg_min, c.tg_max
    if flavor == "satd":
        lo = max(lo, satd_tg_min)
    if lo >= hi:
        return [(gamma_gs, gamma_e, flavor, math.nan, math.nan, 0)]
    noise = NoiseModel((gamma_gs, gamma_gs, gamma_gs, gamma_e), spec.noise.k)
    cfg = spec.integrator

    def eps(tg: float) -> float:
        return 1.0 - map_fidelity_uncertainty_avg(spec.params(tg, flavor), noise, spec.uncertainty_nodes, cfg)

    grid = np.geomspace(lo, hi, c.coarse_count)
    vals = [eps(float(t)) for t in grid]
    i = int(np.argmin(vals))
    a = float(grid[max(0, i - 1)])
    b = float(grid[min(len(grid) - 1, i + 1)])
    tg_star, eps_star = _golden_minimize(eps, a, b, c.golden_rel_tol)
    if vals[i] < eps_star:
        tg_star, eps_star = float(grid[i]), vals[i]
    return [(gamma_gs, gamma_e, flavor, tg_star, clamp_error(eps_star, cfg.rel_tol), 1)]


# --- pulse export and oracle comparison ------------------------------------

def _pulse_rows(spec: SweepSpec) -> list[tuple]:
    f = spec.fields
    p = spec.params(f.tg_cycles, spec.flavors[0], f.amp_scale)
    return envelope_rows(make_envelopes(p), f.samples)


def _oracle_compare_rows(spec: SweepSpec, tg_cycles: float) -> list[tuple]:
    cfg = spec.integrator
    # The adiabatic gate-error row already holds the numeric and oracle-A errors.
    adiabatic = {"tg_cycles": tg_cycles, "flavor": "adiabatic"}
    [(_, _, eps_num_full, _, _, _, eps_oracle_a)] = _gate_error_rows(spec, [adiabatic])

    p_sa = spec.params(tg_cycles, "satd")
    shape = make_pulse_shape(p_sa.t_gate)
    noise = NoiseModel(spec.noise.gamma_phi)
    eps_map_num = 1.0 - map_fidelity(p_sa, make_envelopes(p_sa, shape), noise, cfg)
    eps_eq48 = 1.0 - analytic_satd_dephasing_fidelity(p_sa, shape, noise)
    eps_oracle_b = 1.0 - oracle_b_map_fidelity(p_sa, shape, noise, cfg)
    eps = (eps_map_num, eps_eq48, eps_oracle_b)
    return [(tg_cycles, eps_num_full, eps_oracle_a, *(clamp_error(e, cfg.rel_tol) for e in eps))]


# --- kind registry ---------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """Everything the CLI does differently for one output kind.

    parse reads the config fields only this kind uses (SweepSpec.fields);
    tasks lists each task's keyword arguments for rows, which returns that
    task's CSV rows; rows are sorted on their first sort_cols columns, and
    comments gives the `#` lines that follow the shared ones.
    """

    command: tuple[str, ...]  # subcommand path: one or two words
    help: str
    header: str
    parse: Callable[[dict], object]
    tasks: Callable[[SweepSpec], list[dict]]
    rows: Callable[..., list[tuple]]
    sort_cols: int
    comments: Callable[[SweepSpec], list[str]] = lambda spec: []


KINDS = {
    "gate-error": Kind(
        ("sweep", "gate-error"), "unitary gate-error sweep",
        "tg_cycles,flavor,eps_full,eps_qubit,eps_full_pred,eps_qubit_pred,eps_oracleA",
        parse=_tg_grid, tasks=_gate_error_tasks, rows=_gate_error_rows, sort_cols=2,
    ),
    "noise-map": Kind(
        ("sweep", "noise-map"), "dissipative map-fidelity sweep",
        "tg_cycles,flavor,k,eps_map,eps_map_avg,max_amp_over_omega0,cost_over_halfomega0",
        parse=_tg_grid, tasks=_noise_map_tasks, rows=_noise_map_rows, sort_cols=3, comments=_noise_map_comments,
    ),
    "contour": Kind(
        ("contour",), "best-error search over rate pairs",
        "gamma_gs,gamma_e,flavor,tg_star_cycles,eps_star,feasible",
        parse=_contour_fields, tasks=_contour_tasks, rows=_contour_rows, sort_cols=3,
        comments=lambda spec: [f"tg_window_cycles=[{_fmt(spec.fields.tg_min)},{_fmt(spec.fields.tg_max)}]"],
    ),
    "pulses": Kind(
        ("pulses", "export"), "sample envelopes to CSV",
        "t_cycles,re_omega_0e,im_omega_0e,re_omega_1e,im_omega_1e,re_omega_ae,im_omega_ae",
        parse=_pulse_fields, tasks=lambda spec: [{}], rows=_pulse_rows, sort_cols=1,
        comments=lambda spec: [
            f"flavor={spec.flavors[0]} tg_cycles={_fmt(spec.fields.tg_cycles)} "
            f"amp_scale={_fmt(spec.fields.amp_scale)}"
        ],
    ),
    "oracle-compare": Kind(
        ("oracle", "compare"), "tabulate oracles vs numerics",
        "tg_cycles,eps_full_numeric,eps_full_oracle_a,eps_map_numeric,eps_map_eq48,eps_map_oracle_b",
        parse=_oracle_compare_fields, tasks=lambda spec: [{"tg_cycles": tg} for tg in spec.fields],
        rows=_oracle_compare_rows, sort_cols=1,
    ),
}


def run(spec: SweepSpec) -> tuple[list[str], list[tuple]]:
    """Comment lines and sorted rows of one sweep."""
    kind = KINDS[spec.kind]
    groups = _run_tasks(_run_task, [(spec, args) for args in kind.tasks(spec)], spec.jobs)
    rows = sorted((row for group in groups for row in group), key=lambda r: r[: kind.sort_cols])
    return _base_comments(spec) + kind.comments(spec), rows


# --- entry point -----------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tripod-sta", description=__doc__)
    root = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for name, kind in KINDS.items():
        sub = root
        if len(kind.command) > 1:
            group = kind.command[0]
            if group not in groups:
                words = ", ".join(k.command[-1] for k in KINDS.values() if k.command[0] == group)
                group_parser = root.add_parser(group, help=words)
                groups[group] = group_parser.add_subparsers(dest=f"{group}_kind", required=True)
            sub = groups[group]
        p = sub.add_parser(kind.command[-1], help=kind.help)
        p.set_defaults(kind=name)
        p.add_argument("--config", required=True, help="JSON sweep configuration")
        p.add_argument("--out", help="output CSV path (overrides config)")
        p.add_argument("--jobs", type=int, help="worker processes (default $TRIPOD_STA_JOBS or 1)")
        p.add_argument("--tol", type=float, help="integrator rel_tol override")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {"out": args.out, "jobs": args.jobs, "tol": args.tol}
    try:
        spec = load_spec(args.config, args.kind, overrides)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        comments, rows = run(spec)
    except (NumericalError, OdeStepUnderflow) as exc:
        print(f"numerical failure (kind={spec.kind}): {exc}", file=sys.stderr)
        return 3

    lines = [f"# {c}" for c in comments] + [KINDS[spec.kind].header]
    lines.extend(",".join(_fmt(v) for v in row) for row in rows)
    with open(spec.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
