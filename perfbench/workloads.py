"""The benchmark's three CLI workloads: seeded configs and output checks.

A seed draws the rotation axis and phase (alpha, beta, gamma0) and a small
log-jitter of the t_g grid that keeps the sum of the grid's gate times, and
so the total integration work, the same.  The program sees only the config.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

DEFAULT_SEED = 0
# Log-jitter half-width of the grid's lower end.
GRID_JITTER = 0.05


@dataclass(frozen=True)
class Workload:
    name: str  # also the CLI kind
    argv: tuple[str, ...]
    header: str
    base: dict  # config fields other than axis, grid, out and jobs
    grid: tuple[float, float, int]  # nominal log t_g grid (min, max, count) in cycles
    reference_tol: tuple[float, float]  # (rel_tol, abs_tol) of the committed reference
    max_dev: float  # accuracy every output must reach against the reference
    rows_per_tg: int  # CSV rows per grid point

    @property
    def rel_tol(self) -> float:
        return self.base["integrator"]["rel_tol"]


BOTH = ["adiabatic", "satd"]
DEPHASING = [0.0, 0.0, 0.0, 0.01]

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gate-error",
            ("sweep", "gate-error"),
            "tg_cycles,flavor,eps_full,eps_qubit,eps_full_pred,eps_qubit_pred,eps_oracleA",
            {"flavors": BOTH, "integrator": {"rel_tol": 1e-10, "abs_tol": 1e-12}},
            (2.0, 30.0, 12),
            (1e-12, 1e-14),
            1e-8,
            2,
        ),
        Workload(
            "noise-map",
            ("sweep", "noise-map"),
            "tg_cycles,flavor,k,eps_map,eps_map_avg,max_amp_over_omega0,cost_over_halfomega0",
            {
                "flavors": BOTH,
                "noise": {"gamma_phi": DEPHASING, "k": 0.2},
                "uncertainty_nodes": 11,
                "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
            },
            (1.9, 10.0, 3),
            (1e-10, 1e-12),
            1e-6,
            4,
        ),
        Workload(
            "oracle-compare",
            ("oracle", "compare"),
            "tg_cycles,eps_full_numeric,eps_full_oracle_a,eps_map_numeric,eps_map_eq48,eps_map_oracle_b",
            {"noise": {"gamma_phi": DEPHASING}, "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10}},
            (2.0, 10.0, 6),
            (1e-10, 1e-12),
            1e-6,
            1,
        ),
    )
}


def _grid_sum(lo: float, hi: float, count: int) -> float:
    return float(np.sum(np.geomspace(lo, hi, count)))


def jittered_grid(grid: tuple[float, float, int], rng: random.Random) -> tuple[float, float, int]:
    """Shift the grid's lower end by a random log-factor and move its upper
    end so that the sum of the grid's gate times is unchanged."""
    lo, hi, count = grid
    target = _grid_sum(lo, hi, count)
    lo_j = lo * math.exp(rng.uniform(-GRID_JITTER, GRID_JITTER))
    a, b = hi * 0.5, hi * 2.0
    for _ in range(200):
        mid = 0.5 * (a + b)
        if _grid_sum(lo_j, mid, count) < target:
            a = mid
        else:
            b = mid
    return lo_j, 0.5 * (a + b), count


def make_config(w: Workload, seed: int, out: str, tol: tuple[float, float] | None = None) -> dict:
    """The config one seed gives; tol overrides the integrator tolerances."""
    rng = random.Random(seed)
    alpha = rng.uniform(0.1, 0.5 * math.pi - 0.1)
    beta = rng.uniform(0.0, 2.0 * math.pi)
    gamma0 = rng.uniform(0.25 * math.pi, 1.75 * math.pi)
    lo, hi, count = jittered_grid(w.grid, rng)
    cfg = {
        "kind": w.name,
        "out": out,
        "alpha": alpha,
        "beta": beta,
        "gamma0": gamma0,
        "tg_grid": {"scale": "log", "min": lo, "max": hi, "count": count},
        "jobs": 1,
        **w.base,
    }
    if tol is not None:
        cfg["integrator"] = {"rel_tol": tol[0], "abs_tol": tol[1]}
    return cfg


# --- output checks -----------------------------------------------------------


def parse_csv(text: str) -> tuple[list[str], str, list[list[str]]]:
    lines = text.splitlines()
    comments = [line[2:] for line in lines if line.startswith("# ")]
    body = [line for line in lines if not line.startswith("#")]
    if not body:
        return comments, "", []
    return comments, body[0], [line.split(",") for line in body[1:]]


def _is_number(cell: str) -> bool:
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _cycles_metadata(comments: list[str]) -> dict[str, float]:
    """The `name_cycles=value` threshold lines of a noise-map CSV."""
    out = {}
    for line in comments:
        key, sep, value = line.partition("=")
        if sep and key.endswith("_cycles") and " " not in key:
            out[key] = float(value)
    return out


def check_output(w: Workload, cfg: dict, text: str | None) -> list[str]:
    """Structure and physics checks that hold for any seed's output."""
    if text is None:
        return ["no output written"]
    comments, header, rows = parse_csv(text)
    if header != w.header:
        return [f"header {header!r} != {w.header!r}"]
    grid = cfg["tg_grid"]
    tgs = [float(f"{x:.12g}") for x in np.geomspace(grid["min"], grid["max"], grid["count"])]
    expected = len(tgs) * w.rows_per_tg
    if len(rows) != expected:
        return [f"{len(rows)} rows, expected {expected}"]
    cols = w.header.split(",")
    problems = []
    table = []
    for i, row in enumerate(rows):
        if len(row) != len(cols):
            return [f"row {i} has {len(row)} cells"]
        rec = {}
        for name, cell in zip(cols, row):
            if name == "flavor":
                rec[name] = cell
            elif not _is_number(cell) or not math.isfinite(float(cell)):
                problems.append(f"row {i} {name}={cell!r} is not a finite number")
            else:
                rec[name] = float(cell)
        table.append(rec)
    if problems:
        return problems
    if sorted({r["tg_cycles"] for r in table}) != tgs:
        problems.append("tg_cycles column does not match the configured grid")
    problems += PHYSICS[w.name](table, comments)
    return problems


def _check(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def _gate_error_physics(table, comments) -> list[str]:
    out = []
    for r in table:
        tag = f"tg={r['tg_cycles']} {r['flavor']}"
        for col in ("eps_full", "eps_qubit", "eps_oracleA"):
            out += _check(0.0 <= r[col] <= 1.0, f"{tag}: {col} outside [0, 1]")
        if r["flavor"] == "satd":
            # The accelerated gate is exact: numerics equal its closed form.
            out += _check(abs(r["eps_full"] - r["eps_full_pred"]) <= 1e-6, f"{tag}: SATD eps_full != closed form")
            out += _check(r["eps_qubit"] <= 1e-6, f"{tag}: SATD qubit error not ~0")
        elif r["tg_cycles"] >= 10.0:
            out += _check(_rel(r["eps_oracleA"], r["eps_full"]) <= 0.05, f"{tag}: Magnus oracle off by >5%")
    return out


def _noise_map_physics(table, comments) -> list[str]:
    out = []
    nominal = {}
    for r in table:
        tag = f"tg={r['tg_cycles']} {r['flavor']} k={r['k']}"
        out += _check(0.0 < r["eps_map"] <= 1.0, f"{tag}: eps_map outside (0, 1]")
        out += _check(0.0 < r["eps_map_avg"] <= 1.0, f"{tag}: eps_map_avg outside (0, 1]")
        out += _check(r["max_amp_over_omega0"] >= 1.0 - 1e-9, f"{tag}: peak amplitude below omega0")
        out += _check(r["cost_over_halfomega0"] >= 1.0 - 1e-9, f"{tag}: cost below the adiabatic cost")
        key = (r["tg_cycles"], r["flavor"])
        if r["k"] == 0.0:
            out += _check(r["eps_map_avg"] == r["eps_map"], f"{tag}: k=0 average differs from nominal")
        nominal.setdefault(key, r["eps_map"])
        out += _check(nominal[key] == r["eps_map"], f"{tag}: nominal eps_map differs between rows")
    meta = _cycles_metadata(comments)
    names = ("satd_max_amp_threshold_cycles", "satd_cost_2x_threshold_cycles", "satd_cost_3x_threshold_cycles")
    if not all(n in meta and math.isfinite(meta[n]) and meta[n] > 0.0 for n in names):
        return out + ["threshold metadata missing or not positive"]
    out += _check(meta[names[1]] > meta[names[2]], "2x cost threshold not above the 3x one")
    return out


def _oracle_compare_physics(table, comments) -> list[str]:
    out = []
    for r in table:
        tag = f"tg={r['tg_cycles']}"
        out += _check(0.0 <= r["eps_full_numeric"] <= 1.0, f"{tag}: eps_full_numeric outside [0, 1]")
        out += _check(0.0 < r["eps_map_numeric"] <= 1.0, f"{tag}: eps_map_numeric outside (0, 1]")
        out += _check(_rel(r["eps_map_oracle_b"], r["eps_map_numeric"]) <= 0.01, f"{tag}: oracle B off by >1%")
        out += _check(_rel(r["eps_map_eq48"], r["eps_map_numeric"]) <= 0.10, f"{tag}: eq. 48 off by >10%")
        if r["tg_cycles"] >= 9.0:
            out += _check(_rel(r["eps_full_oracle_a"], r["eps_full_numeric"]) <= 0.05, f"{tag}: oracle A off by >5%")
    return out


PHYSICS = {
    "gate-error": _gate_error_physics,
    "noise-map": _noise_map_physics,
    "oracle-compare": _oracle_compare_physics,
}


def reference_deviation(w: Workload, text: str, reference: str) -> tuple[float, list[str]]:
    """Largest absolute difference over all numeric cells from the committed
    reference, whose errors are first clamped at this workload's floor exactly
    as the CLI clamps them (values below rel_tol print as 0); 1.0, the largest
    error an eps cell can carry, when the two cannot be compared."""
    comments, header, rows = parse_csv(text)
    ref_comments, ref_header, ref_rows = parse_csv(reference)
    if header != ref_header or len(rows) != len(ref_rows):
        return 1.0, ["output shape differs from the reference"]
    floor = w.rel_tol
    dev = 0.0
    problems = []
    for row, ref_row in zip(rows, ref_rows):
        for name, cell, ref_cell in zip(header.split(","), row, ref_row):
            if not (_is_number(ref_cell) and _is_number(cell)):
                problems += _check(cell == ref_cell, f"{name}: {cell!r} != reference {ref_cell!r}")
                continue
            ref = float(ref_cell)
            if name.startswith("eps_"):
                ref = 0.0 if abs(ref) < floor else max(ref, 0.0)
            d = abs(float(cell) - ref)
            if not math.isfinite(d):
                problems.append(f"{name}={cell!r} is not finite")
                d = 1.0
            dev = max(dev, d)
    meta, ref_meta = _cycles_metadata(comments), _cycles_metadata(ref_comments)
    problems += _check(meta.keys() == ref_meta.keys(), "threshold metadata keys differ from the reference")
    for key in meta.keys() & ref_meta.keys():
        problems += _check(abs(meta[key] - ref_meta[key]) <= 1e-9, f"{key} differs from the reference")
    problems += _check(dev <= w.max_dev, f"max_abs_dev {dev:.3e} exceeds {w.max_dev:.0e}")
    return dev, problems
