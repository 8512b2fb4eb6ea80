"""Golden-output guard: every CLI kind must keep writing byte-identical CSVs.

The stored files in tests/golden/ were written by the CLI on the configs
below (the minimal configs of tests/test_cli.py, plus reversed flavors and
parallel runs).  Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file, the largest numeric cell change against the
file it replaces.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tripod_sta import cli

GOLDEN = Path(__file__).parent / "golden"

GATE_ERROR = {
    "kind": "gate-error",
    "flavors": ["adiabatic", "satd"],
    "tg_grid": {"scale": "linear", "min": 2.0, "max": 4.0, "count": 2},
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
}
NOISE_MAP = {
    "kind": "noise-map",
    "flavors": ["adiabatic", "satd"],
    "tg_grid": {"scale": "linear", "min": 2.0, "max": 3.0, "count": 2},
    "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01], "k": 0.2},
    "uncertainty_nodes": 3,
    "integrator": {"rel_tol": 1e-7, "abs_tol": 1e-9},
}
CONTOUR = {
    "kind": "contour",
    "flavors": ["adiabatic", "satd"],
    "noise": {"k": 0.0},
    "uncertainty_nodes": 1,
    "integrator": {"rel_tol": 1e-7, "abs_tol": 1e-9},
    "contour": {
        "gamma_gs": [0.0],
        "gamma_e": [0.0],
        "tg_min": 0.8,
        "tg_max": 1.2,
        "coarse_count": 4,
        "golden_rel_tol": 0.05,
    },
}
CONTOUR_SATD = {
    "kind": "contour",
    "flavors": ["satd"],
    "noise": {"k": 0.0},
    "uncertainty_nodes": 1,
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
    "contour": {
        "gamma_gs": [0.0],
        "gamma_e": [0.0],
        "tg_min": 2.0,
        "tg_max": 4.0,
        "coarse_count": 3,
        "golden_rel_tol": 0.05,
    },
}
PULSES = {"kind": "pulses", "flavors": "adiabatic", "tg_cycles": 2.0, "amp_scale": 1.3, "samples": 7}
ORACLE_COMPARE = {
    "kind": "oracle-compare",
    "tg_grid": {"scale": "linear", "min": 4.0, "max": 6.0, "count": 2},
    "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01]},
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
}

# name -> (command path, config, extra arguments)
CASES = {
    "gate_error": (["sweep", "gate-error"], GATE_ERROR, []),
    "gate_error_reversed": (["sweep", "gate-error"], dict(GATE_ERROR, flavors=["satd", "adiabatic"]), []),
    "gate_error_jobs2": (["sweep", "gate-error"], GATE_ERROR, ["--jobs", "2"]),
    "noise_map": (["sweep", "noise-map"], NOISE_MAP, []),
    "noise_map_noiseless": (
        ["sweep", "noise-map"],
        dict(NOISE_MAP, noise={"gamma_phi": [0, 0, 0, 0], "k": 0.0}),
        [],
    ),
    "noise_map_jobs2": (["sweep", "noise-map"], NOISE_MAP, ["--jobs", "2"]),
    "contour": (["contour"], CONTOUR, []),
    "contour_satd": (["contour"], CONTOUR_SATD, []),
    "contour_jobs2": (["contour"], CONTOUR, ["--jobs", "2"]),
    "pulses": (["pulses", "export"], PULSES, []),
    "oracle_compare": (["oracle", "compare"], ORACLE_COMPARE, []),
    "oracle_compare_jobs2": (["oracle", "compare"], ORACLE_COMPARE, ["--jobs", "2"]),
}


def run_case(name: str, workdir: Path) -> bytes:
    command, payload, extra = CASES[name]
    config = workdir / f"{name}.json"
    out = workdir / f"{name}.csv"
    config.write_text(json.dumps(payload), encoding="utf-8")
    rc = cli.main([*command, "--config", str(config), "--out", str(out), *extra])
    assert rc == 0
    return out.read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_matches_golden(name, tmp_path):
    assert run_case(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


def largest_cell_change(old: bytes, new: bytes) -> float | None:
    """Largest |new - old| over the numeric cells of two CSVs; None when a
    line count, a cell count or a non-numeric cell differs."""
    old_lines, new_lines = old.decode().splitlines(), new.decode().splitlines()
    if len(old_lines) != len(new_lines):
        return None
    largest = 0.0
    for old_line, new_line in zip(old_lines, new_lines):
        old_cells, new_cells = old_line.split(","), new_line.split(",")
        if len(old_cells) != len(new_cells):
            return None
        for a, b in zip(old_cells, new_cells):
            try:
                largest = max(largest, abs(float(b) - float(a)))
            except ValueError:
                if a != b:
                    return None
    return largest


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            path = GOLDEN / f"{case}.csv"
            new = run_case(case, Path(tmp))
            if not path.exists():
                note = "new file"
            elif path.read_bytes() == new:
                note = "unchanged"
            else:
                change = largest_cell_change(path.read_bytes(), new)
                note = "layout changed" if change is None else f"largest cell change {change:.3g}"
            path.write_bytes(new)
            print(f"wrote {path} ({note})")
