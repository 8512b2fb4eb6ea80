"""Command-line driver: sweep orchestration and reproducible CSV output.

All physical inputs are dimensionless in units where omega0/(2*pi) = 1: gate
times are given in cycles (omega0*t_g/2pi) and dephasing rates in units of
omega0/2pi.  Identical configs produce byte-identical CSV files; parallel and
serial runs yield the same sorted rows.

Each kind splits its sweep into tasks (Kind.tasks), which run on at most
min(--jobs, CPUs) worker processes; a numerical failure names the first
failing point of the first failing task, in the order the kind lists them.
Every Lindblad map is solved by metrics.nominal_and_uncertainty_avg.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from collections import namedtuple
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .controls import (
    ControlParams,
    Flavor,
    amplitude_threshold_time,
    cost_threshold_time,
    energy_cost,
    envelope_rows,
    make_envelopes,
    make_pulse_shape,
)
from .dynamics import NoiseModel, NumericalError, propagate_unitary_batch
from .metrics import (
    MAX_UNCERTAINTY_NODES,
    _failing_member,
    analytic_satd_dephasing_fidelity,
    avg_gate_fidelity,
    clamp_error,
    closed_form_fidelities,
    nominal_and_uncertainty_avg,
    point_chunks,
    qubit_overlap_operator,
)
from .oracles import magnus_full_gate, oracle_b_map_fidelity
from .qmath import ABS_TOL_FLOOR, IntegratorConfig
from .tripod import ideal_gate, satd_gate

OMEGA0 = 2.0 * math.pi

# Shortest and longest gate times a config may ask for, in cycles, both far
# outside any physical use: far above the times where the pulse shape's 1/t_g^2
# and the closed-form predictions' 1/(omega0*t_g)^6 leave the float range, and
# far below those where the SATD closed form reads rounding (9.5e-8 at 1e12).
MIN_TG_CYCLES = 1e-6
MAX_TG_CYCLES = 1e9

# Most points a config grid may ask for (samples, tg_grid.count,
# contour.coarse_count): each costs at least one CSV row or one propagation,
# and a grid of 10^13 does not fit in memory.
MAX_GRID_POINTS = 100_000

# Gate times per contour refinement solve.  ROADMAP's contour config A made
# 36 solves in 1.1-1.4 s at 5, and 51 in 1.5-1.7 s at 3 (2-vCPU host).
REFINE_POINTS = 5

_UNSET = object()  # the default of a config field that must be left unset

SHARED_FIELDS = ("noise.gamma_phi", "noise.k", "integrator.rel_tol", "integrator.abs_tol", "uncertainty_nodes")
# Every config path some kind reads, and the objects that enclose them: load_spec
# rejects any other key, and ignores one that only another kind reads.
CONFIG_KEYS = frozenset([*SHARED_FIELDS, *(
    "kind out jobs alpha beta gamma0 flavors samples tg_cycles amp_scale noise integrator tg_grid tg_grid.scale "
    "tg_grid.min tg_grid.max tg_grid.count contour contour.gamma_gs contour.gamma_e contour.tg_min contour.tg_max "
    "contour.coarse_count contour.golden_rel_tol").split()])


class ConfigError(ValueError):
    def __init__(self, field: str, message: str):
        super().__init__(f"field {field!r}: {message}")


@dataclass(frozen=True)
class SweepSpec:
    """Parsed, validated sweep configuration.

    `base` holds the validated axis and phase (alpha, beta, gamma0) at unit
    gate time, and `fields` the config fields only this spec's kind reads,
    as parsed by that kind's `Kind.parse`.
    """

    kind: str
    out: str
    base: ControlParams
    flavors: tuple[str, ...]
    noise: NoiseModel
    uncertainty_nodes: int
    integrator: IntegratorConfig
    jobs: int
    fields: object

    def params(self, tg_cycles: float, flavor: str, amp_scale: float = 1.0) -> ControlParams:
        return replace(self.base, t_gate=tg_cycles, flavor=Flavor(flavor), amp_scale=amp_scale)


PulseFields = namedtuple("PulseFields", "samples tg_cycles amp_scale")
ContourFields = namedtuple("ContourFields", "gamma_gs gamma_e tg_min tg_max coarse_count golden_rel_tol")


def _num(value, field: str) -> float:
    """A finite float from a config value; anything else is a ConfigError."""
    if isinstance(value, bool):  # float() would take JSON true/false as 1.0/0.0
        raise ConfigError(field, f"must be a number, got {value!r}")
    try:
        x = float(value)
    except (TypeError, ValueError, OverflowError):  # OverflowError: an integer past the float range
        raise ConfigError(field, f"must be a finite number, got {value!r}") from None
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
    if not isinstance(flavors, list) or not flavors:
        raise ConfigError(field, f"must be a flavor or a non-empty list of flavors, got {value!r}")
    if any(f not in ("adiabatic", "satd") for f in flavors):
        raise ConfigError(field, f"entries must be 'adiabatic' or 'satd', got {flavors!r}")
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


# ok and need of a gate-time field, of a grid count and of an uncertainty node count.
_GATE_TIME = (lambda x: MIN_TG_CYCLES <= x <= MAX_TG_CYCLES, f"in [{MIN_TG_CYCLES:g}, {MAX_TG_CYCLES:g}] cycles")
_GRID_COUNT = (lambda n: 2 <= n <= MAX_GRID_POINTS, f"in [2, {MAX_GRID_POINTS}]")
_NODE_COUNT = (lambda n: 1 <= n <= MAX_UNCERTAINTY_NODES and n % 2, f"odd and in [1, {MAX_UNCERTAINTY_NODES}]")


def _gate_time_after(lo: float, field: str) -> tuple:
    """ok and need of a gate-time field that must exceed lo, the value of field."""
    return lambda x: lo < x <= MAX_TG_CYCLES, f"in ({field}, {MAX_TG_CYCLES:g}] cycles"


def _tg_grid(cfg: dict) -> tuple[float, ...]:
    scale = _field(
        cfg, "tg_grid.scale", "log", lambda v, _: v, lambda v: v in ("log", "linear"), "'log' or 'linear'"
    )
    lo = _field(cfg, "tg_grid.min", None, _num, *_GATE_TIME)
    hi = _field(cfg, "tg_grid.max", None, _num, *_gate_time_after(lo, "tg_grid.min"))
    count = _field(cfg, "tg_grid.count", None, _int, *_GRID_COUNT)
    pts = np.geomspace(lo, hi, count) if scale == "log" else np.linspace(lo, hi, count)
    return tuple(float(x) for x in pts)


def _check_excited_dephasing_only(spec: SweepSpec) -> None:
    # Oracle B and the closed form it is checked against cover excited-state dephasing only.
    if any(spec.noise.gamma_phi[:3]):
        raise ConfigError("noise.gamma_phi", "must be zero but for its last rate (excited-state dephasing only)")


def _pulse_fields(cfg: dict) -> PulseFields:
    _field(cfg, "flavors", ["adiabatic"], _flavors, lambda f: len(f) == 1, "a single flavor")
    return PulseFields(
        _field(cfg, "samples", 101, _int, *_GRID_COUNT),
        _field(cfg, "tg_cycles", 4.0, _num, *_GATE_TIME),
        _field(cfg, "amp_scale", 1.0, _num, lambda x: x > 0.0, "positive"),
    )


def _check_pulse_peak(spec: SweepSpec) -> None:
    # The peak envelope must be finite: an overflowing one writes inf and nan
    # cells, or finite samples that miss the peak.
    f = spec.fields
    p = _library("amp_scale", spec.params, f.tg_cycles, spec.flavors[0], f.amp_scale)
    if not math.isfinite(make_envelopes(p).max_amplitude):
        raise ConfigError("amp_scale", f"the peak {p.flavor.value} envelope overflows at tg_cycles={f.tg_cycles!r}")


def _contour_fields(cfg: dict) -> ContourFields:
    rates = _rates, bool, "a nonempty list of rates"
    tg_min = _field(cfg, "contour.tg_min", 2.0, _num, *_GATE_TIME)
    return ContourFields(
        _field(cfg, "contour.gamma_gs", [], *rates),
        _field(cfg, "contour.gamma_e", [], *rates),
        tg_min,
        _field(cfg, "contour.tg_max", 30.0, _num, *_gate_time_after(tg_min, "contour.tg_min")),
        _field(cfg, "contour.coarse_count", 60, _int, *_GRID_COUNT),
        _field(cfg, "contour.golden_rel_tol", 1e-3, _num, lambda x: x > 0.0, "positive"),
    )


def load_spec(path: str, kind: str | None = None, overrides: dict | None = None) -> SweepSpec:
    """Read and validate a JSON config; CLI flag overrides win over the file.

    A shared field the kind fixes (Kind.fixed) or does not run at
    (Kind.runs_at) must be left unset, by the config and by --tol alike, and
    every key of the config and of its objects must be in CONFIG_KEYS.
    """
    overrides = overrides or {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError("config", str(exc)) from exc
    except json.JSONDecodeError as exc:
        raise ConfigError("config", f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, an integer past the digit limit, deep nesting
        raise ConfigError("config", f"not a usable JSON file: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config", "top level must be a JSON object")

    cfg_kind = cfg.get("kind", kind)
    if cfg_kind not in tuple(KINDS):
        raise ConfigError("kind", f"must be one of {tuple(KINDS)}, got {cfg_kind!r}")
    if kind is not None and cfg_kind != kind:
        raise ConfigError("kind", f"config says {cfg_kind!r} but the subcommand expects {kind!r}")
    keys = [*cfg, *(f"{key}.{sub}" for key, value in cfg.items() if isinstance(value, dict) for sub in value)]
    for path in keys:
        if path not in CONFIG_KEYS:
            raise ConfigError(path, "no kind reads this field")
    fixed, need = KINDS[cfg_kind].fixed, f"unset ({cfg_kind} does not read it)"
    for path in [*fixed, *(path for path in SHARED_FIELDS if path not in KINDS[cfg_kind].runs_at)]:
        by_flag = path == "integrator.rel_tol" and overrides.get("tol") is not None  # --tol sets rel_tol
        _field(cfg, path, _UNSET, lambda v, _: v, lambda v: v is _UNSET and not by_flag, need)

    out = overrides.get("out") or cfg.get("out")
    if not out or not isinstance(out, str):
        raise ConfigError("out", "an output path is required (config 'out' or --out)")
    # Checked here, so a path the CSV cannot be written to fails before the sweep runs.
    if "\0" in out:
        raise ConfigError("out", "must not contain a NUL byte")
    if os.path.isdir(out):
        raise ConfigError("out", f"{out!r} is a directory")
    if not os.path.isdir(os.path.dirname(out) or "."):
        raise ConfigError("out", f"the directory of {out!r} does not exist")
    try:
        name = os.fsencode(os.path.basename(out))
    except UnicodeEncodeError as exc:
        raise ConfigError("out", f"not a file name: {exc}") from exc
    try:
        name_max = os.pathconf(os.path.dirname(out) or ".", "PC_NAME_MAX")
    except (AttributeError, OSError, ValueError):  # no answer: the write still checks the name
        name_max = -1
    if 0 < name_max < len(name):
        raise ConfigError("out", f"the file name is longer than {name_max} bytes")

    axis = (_field(cfg, "alpha", math.pi / 4), _field(cfg, "beta", 0.0), _field(cfg, "gamma0", math.pi))
    base = _library("alpha/beta/gamma0", ControlParams, OMEGA0, *axis, 1.0)
    flavors = _field(cfg, "flavors", fixed.get("flavors", ["adiabatic", "satd"]), _flavors)

    gamma_phi = _field(cfg, "noise.gamma_phi", [0.0] * 4, _rates, lambda g: len(g) == 4, "four rates [g0, g1, ga, ge]")
    # gamma_phi is fully checked above, so NoiseModel can only reject k.
    noise = _library("noise.k", NoiseModel, gamma_phi, _field(cfg, "noise.k", fixed.get("noise.k", 0.0)))

    tol = overrides.get("tol")
    rel_tol = _field(cfg, "integrator.rel_tol", 1e-10) if tol is None else _num(tol, "integrator.rel_tol")
    _library("integrator.rel_tol", IntegratorConfig, rel_tol)
    abs_tol = _field(cfg, "integrator.abs_tol", max(rel_tol * 1e-2, ABS_TOL_FLOOR))
    integrator = _library("integrator.abs_tol", IntegratorConfig, rel_tol, abs_tol)

    fields = KINDS[cfg_kind].parse(cfg)
    nodes = _field(cfg, "uncertainty_nodes", fixed.get("uncertainty_nodes", 21), _int, *_NODE_COUNT)

    jobs_field, jobs = "jobs", overrides.get("jobs")
    if jobs is None:
        jobs = cfg.get("jobs")
    if jobs is None:
        jobs_field, jobs = "TRIPOD_STA_JOBS", os.environ.get("TRIPOD_STA_JOBS") or 1
    jobs = _field({jobs_field: jobs}, jobs_field, None, _int, lambda n: n >= 1, ">= 1")

    spec = SweepSpec(cfg_kind, out, base, flavors, noise, nodes, integrator, jobs, fields)
    KINDS[cfg_kind].check(spec)
    return spec


def _fmt(x) -> str:
    """A CSV cell, or a tuple of them (a row) comma-joined."""
    if isinstance(x, str):
        return x
    if isinstance(x, tuple):
        return ",".join(map(_fmt, x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _base_comments(spec: SweepSpec) -> list[str]:
    """The axis line, then the noise and the integrator line with the shared
    fields spec's kind runs at; a line left empty is dropped."""
    lines = [f"alpha={_fmt(spec.base.alpha)} beta={_fmt(spec.base.beta)} gamma0={_fmt(spec.base.gamma0)}"] + [
        " ".join(f"{path.rpartition('.')[2]}={_fmt(functools.reduce(getattr, path.split('.'), spec))}"
                 for path in group if path in KINDS[spec.kind].runs_at)
        for group in (SHARED_FIELDS[:2], SHARED_FIELDS[2:])
    ]
    return [line for line in lines if line]


def _run_tasks(worker, tasks: list, jobs: int) -> list:
    if jobs <= 1 or len(tasks) <= 1:
        return [worker(t) for t in tasks]
    # Imported here, so a serial run never loads the process pool.
    from concurrent.futures import ProcessPoolExecutor

    # The pool forks all its workers at the first submit, so start no idle
    # ones and no more than the CPUs this process may run on.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    with ProcessPoolExecutor(max_workers=min(jobs, len(tasks), cpus)) as pool:
        return list(pool.map(worker, tasks))


def _run_task(task: tuple[SweepSpec, dict]) -> list[tuple]:
    """Rows of one task; a NumericalError names its point: the failure's
    `point` (contour), else the task's failing member of `points` (the first,
    if the failure is tied to none)."""
    spec, args = task
    try:
        return KINDS[spec.kind].rows(spec, **args)
    except NumericalError as exc:
        point = getattr(exc, "point", None) or args["points"][exc.member or 0]
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
    propagations one lockstep batch and their gates and fidelities stacks; a
    NumericalError carries the index of the failing point as its member."""
    ps = [spec.params(**point) for point in points]
    us = np.array([res.final_operator for res in propagate_unitary_batch(ps, spec.integrator)])
    targets = ideal_gate(ps)
    adiabatic = np.array([p.flavor is Flavor.ADIABATIC for p in ps])
    # Oracle A's gate at an adiabatic point; an SATD point's closed-form prediction is its exact gate.
    gates = np.empty_like(us)
    for mask, build in ((adiabatic, magnus_full_gate), (~adiabatic, satd_gate)):
        if mask.any():
            gates[mask] = build([p for p, m in zip(ps, mask) if m])
    eps_full, eps_gate = 1.0 - avg_gate_fidelity(np.swapaxes(targets.conj(), -1, -2) @ np.stack([us, gates]), 4)
    eps_qubit = 1.0 - avg_gate_fidelity(qubit_overlap_operator(targets, us), 2)
    rows = []
    for p, full, qubit, gate in zip(ps, eps_full, eps_qubit, eps_gate):
        predicted = [1.0 - f for f in closed_form_fidelities(p)] if p.flavor is Flavor.ADIABATIC else [gate, 0.0]
        eps = (full, qubit, *predicted, gate)
        rows.append((p.t_gate, p.flavor.value, *(clamp_error(e, spec.integrator.rel_tol) for e in eps)))
    return rows


# --- noise-map sweep -------------------------------------------------------

def _chunk_tasks(spec: SweepSpec) -> list[dict]:
    """One task per point chunk of the grid (metrics.point_chunks), holding
    every flavor's points of it, flavor by flavor in config order and each
    flavor's in grid order, so the tasks come from the config alone."""
    grid = spec.fields
    return [
        {"points": [{"tg_cycles": grid[i], "flavor": flavor} for flavor in spec.flavors for i in chunk]}
        for chunk in point_chunks(len(grid), spec.noise.k, spec.uncertainty_nodes)
    ]


def _noise_map_rows(spec: SweepSpec, points: list[dict]) -> list[tuple]:
    """The noise-map rows of each point {tg_cycles, flavor} of one chunk, the
    maps of all its flavors one lockstep pass of nominal_and_uncertainty_avg;
    a NumericalError carries the index of the failing point as its member."""
    cfg, floor = spec.integrator, spec.integrator.rel_tol
    ps = [spec.params(**point) for point in points]
    maps = nominal_and_uncertainty_avg(ps, spec.noise, spec.uncertainty_nodes, cfg)
    rows = []
    for p, (f_nominal, f_avg) in zip(ps, maps):
        env = make_envelopes(p)
        max_amp = env.max_amplitude / OMEGA0
        cost = energy_cost(env, p) / (0.5 * OMEGA0)
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
    """Best (tg, eps) for one rate pair, SATD gate times from satd_tg_min (the
    amplitude threshold).  One nominal_and_uncertainty_avg call solves the
    coarse grid, and one per step REFINE_POINTS evenly spaced gate times in
    the bracket of the best solved point by its solved neighbours, until an
    error below rel_tol ties (the shortest such time wins), the bracket is at
    most golden_rel_tol times its upper end wide, or no unsolved float fits."""
    c = spec.fields
    lo, hi = c.tg_min, c.tg_max
    if flavor == "satd":
        lo = max(lo, satd_tg_min)
    if lo >= hi:
        return [(gamma_gs, gamma_e, flavor, math.nan, math.nan, 0)]
    noise = NoiseModel((gamma_gs, gamma_gs, gamma_gs, gamma_e), spec.noise.k)
    nodes, cfg = spec.uncertainty_nodes, spec.integrator

    def eps(tgs: list[float]) -> list[float]:
        try:
            fids = nominal_and_uncertainty_avg([spec.params(tg, flavor) for tg in tgs], noise, nodes, cfg)
        except NumericalError as exc:
            tg = tgs[exc.member or 0]
            exc.point = {"gamma_gs": gamma_gs, "gamma_e": gamma_e, "flavor": flavor, "tg_cycles": tg}
            raise
        return [1.0 - f_avg for _, f_avg in fids]

    grid = [float(t) for t in np.geomspace(lo, hi, c.coarse_count)]
    known = dict(zip(grid, eps(grid)))
    while True:
        tgs = sorted(known)
        clamped = [clamp_error(known[t], cfg.rel_tol) for t in tgs]
        i = clamped.index(min(clamped))
        a, b = tgs[max(0, i - 1)], tgs[min(len(tgs) - 1, i + 1)]
        new = [t for t in dict.fromkeys(np.linspace(a, b, REFINE_POINTS + 2).tolist()) if t not in known]
        if clamped[i] == 0.0 or b - a <= c.golden_rel_tol * b or not new:
            return [(gamma_gs, gamma_e, flavor, tgs[i], clamped[i], 1)]
        known.update(zip(new, eps(new)))


# --- pulse export and oracle comparison ------------------------------------

def _pulse_rows(spec: SweepSpec) -> list[tuple]:
    f = spec.fields
    p = spec.params(f.tg_cycles, spec.flavors[0], f.amp_scale)
    return envelope_rows(make_envelopes(p), f.samples)


def _oracle_compare_rows(spec: SweepSpec, points: list[dict]) -> list[tuple]:
    """The oracle-compare row of each SATD point {tg_cycles, flavor} of one
    chunk, its adiabatic twins' closed path one lockstep batch and its maps
    one solve; a NumericalError carries the failing point's index as its
    member."""
    cfg, noise = spec.integrator, spec.noise
    ps = [spec.params(**point) for point in points]
    closed = _gate_error_rows(spec, [dict(point, flavor="adiabatic") for point in points])
    # One node at k = 0 (fixed): each nominal value is the point's scale-1 map, on the chunk's shared mesh.
    maps = nominal_and_uncertainty_avg(ps, noise, spec.uncertainty_nodes, cfg)
    rows = []
    for member, (p, (_, _, eps_num_full, *_, eps_oracle_a), (f_map, _)) in enumerate(zip(ps, closed, maps)):
        shape = make_pulse_shape(p.t_gate)
        with _failing_member(1, [member]):
            f_oracle_b = oracle_b_map_fidelity(p, shape, noise, cfg)
        eps = (1.0 - f_map, 1.0 - analytic_satd_dephasing_fidelity(p, shape, noise), 1.0 - f_oracle_b)
        rows.append((p.t_gate, eps_num_full, eps_oracle_a, *(clamp_error(e, cfg.rel_tol) for e in eps)))
    return rows


# --- kind registry ---------------------------------------------------------

@dataclass(frozen=True)
class Kind:
    """Everything the CLI does differently for one output kind.

    parse reads the config fields only this kind uses (SweepSpec.fields),
    and check raises ConfigError on a spec they leave unusable; tasks lists
    each task's keyword arguments for rows, which returns that task's CSV
    rows (run sorts whole rows), and comments gives the `#` lines that
    follow the shared ones.  runs_at lists the SHARED_FIELDS those four use
    and the header prints; fixed holds some of those, or flavors, at a value.
    """

    command: tuple[str, ...]  # subcommand path: one or two words
    help: str
    header: str
    parse: Callable[[dict], object]
    tasks: Callable[[SweepSpec], list[dict]]
    rows: Callable[..., list[tuple]]
    comments: Callable[[SweepSpec], list[str]] = lambda spec: []
    check: Callable[[SweepSpec], None] = lambda spec: None
    runs_at: tuple[str, ...] = ()
    fixed: dict = field(default_factory=dict)  # config path -> value


KINDS = {
    "gate-error": Kind(
        ("sweep", "gate-error"), "unitary gate-error sweep",
        "tg_cycles,flavor,eps_full,eps_qubit,eps_full_pred,eps_qubit_pred,eps_oracleA",
        parse=_tg_grid, tasks=_gate_error_tasks, rows=_gate_error_rows,
        runs_at=("integrator.rel_tol", "integrator.abs_tol"),
    ),
    "noise-map": Kind(
        ("sweep", "noise-map"), "dissipative map-fidelity sweep",
        "tg_cycles,flavor,k,eps_map,eps_map_avg,max_amp_over_omega0,cost_over_halfomega0",
        parse=_tg_grid, tasks=_chunk_tasks, rows=_noise_map_rows, comments=_noise_map_comments, runs_at=SHARED_FIELDS,
    ),
    "contour": Kind(
        ("contour",), "best-error search over rate pairs",
        "gamma_gs,gamma_e,flavor,tg_star_cycles,eps_star,feasible",
        parse=_contour_fields, tasks=_contour_tasks, rows=_contour_rows, runs_at=SHARED_FIELDS[1:],  # rates: contour.*
        comments=lambda spec: [f"tg_window_cycles=[{_fmt(spec.fields.tg_min)},{_fmt(spec.fields.tg_max)}]"],
    ),
    "pulses": Kind(
        ("pulses", "export"), "sample envelopes to CSV",
        "t_cycles,re_omega_0e,im_omega_0e,re_omega_1e,im_omega_1e,re_omega_ae,im_omega_ae",
        parse=_pulse_fields, tasks=lambda spec: [{}], rows=_pulse_rows, check=_check_pulse_peak,
        comments=lambda spec: [
            f"flavor={spec.flavors[0]} tg_cycles={_fmt(spec.fields.tg_cycles)} "
            f"amp_scale={_fmt(spec.fields.amp_scale)}"
        ],
    ),
    "oracle-compare": Kind(
        ("oracle", "compare"), "tabulate oracles vs numerics",
        "tg_cycles,eps_full_numeric,eps_full_oracle_a,eps_map_numeric,eps_map_eq48,eps_map_oracle_b",
        parse=_tg_grid, tasks=_chunk_tasks, rows=_oracle_compare_rows, check=_check_excited_dephasing_only,
        runs_at=SHARED_FIELDS, fixed={"flavors": ["satd"], "noise.k": 0.0, "uncertainty_nodes": 1},
    ),
}


def run(spec: SweepSpec) -> tuple[list[str], list[tuple]]:
    """Comment lines and sorted rows of one sweep."""
    kind = KINDS[spec.kind]
    groups = _run_tasks(_run_task, [(spec, args) for args in kind.tasks(spec)], spec.jobs)
    rows = sorted(row for group in groups for row in group)
    return _base_comments(spec) + kind.comments(spec), rows


# --- entry point -----------------------------------------------------------

@functools.cache  # built once per process; the tree depends on KINDS alone
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
    except NumericalError as exc:
        print(f"numerical failure (kind={spec.kind}): {exc}", file=sys.stderr)
        return 3

    lines = [f"# {c}" for c in comments] + [KINDS[spec.kind].header]
    lines.extend(map(_fmt, rows))
    try:
        with open(spec.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        # A path only the write can reject, such as a name too long where
        # pathconf gives no limit, or a file system that refuses new files.
        print(f"config error: field 'out': {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
