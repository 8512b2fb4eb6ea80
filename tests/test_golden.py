"""Golden-output guard: every CLI kind must keep writing byte-identical CSVs.

The stored files in tests/golden/ were written by the CLI on the configs
below (the minimal configs of tests/test_cli.py, plus reversed flavors,
parallel runs, a contour whose optimum lies inside its window and an SATD
pulse export).
Regenerate them only for an intended output change:

    PYTHONPATH=src python tests/test_golden.py

which rewrites only the files whose bytes change and prints, for each, the
largest numeric cell change against the file it replaces and where it lies,
and whether its `#` lines changed.
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
# A noisy adiabatic contour whose optimum lies inside its window.
CONTOUR_INTERIOR = {
    "kind": "contour",
    "flavors": ["adiabatic"],
    "noise": {"k": 0.0},
    "uncertainty_nodes": 1,
    "integrator": {"rel_tol": 1e-7, "abs_tol": 1e-9},
    "contour": {
        "gamma_gs": [0.01],
        "gamma_e": [0.01],
        "tg_min": 2.0,
        "tg_max": 10.0,
        "coarse_count": 6,
        "golden_rel_tol": 1e-3,
    },
}
PULSES = {"kind": "pulses", "flavors": "adiabatic", "tg_cycles": 2.0, "amp_scale": 1.3, "samples": 7}
PULSES_SATD = dict(PULSES, flavors="satd")
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
    "contour_interior": (["contour"], CONTOUR_INTERIOR, []),
    "contour_jobs2": (["contour"], CONTOUR, ["--jobs", "2"]),
    "pulses": (["pulses", "export"], PULSES, []),
    "pulses_satd": (["pulses", "export"], PULSES_SATD, []),
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


def largest_cell_change(old: bytes, new: bytes) -> tuple[float, str] | None:
    """Largest |new - old| over the numeric cells of two CSVs, `#` lines
    left out, with the row (the column header is row 0) and column of a cell
    where it occurs (the first, at a tie); None when a row count, a cell
    count or a non-numeric cell differs."""
    old_lines, new_lines = (
        [line for line in text.decode().splitlines() if not line.startswith("#")] for text in (old, new)
    )
    if len(old_lines) != len(new_lines):
        return None
    header = new_lines[0].split(",") if new_lines else []
    largest, where = 0.0, "no cell"
    for row, (old_line, new_line) in enumerate(zip(old_lines, new_lines)):
        old_cells, new_cells = old_line.split(","), new_line.split(",")
        if len(old_cells) != len(new_cells):
            return None
        for col, (a, b) in enumerate(zip(old_cells, new_cells)):
            try:
                change = abs(float(b) - float(a))
            except ValueError:
                if a != b:
                    return None
                continue
            if change > largest:
                name = header[col] if len(header) == len(new_cells) else f"cell {col}"
                largest, where = change, f"row {row}, {name}"
    return largest, where


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    unchanged = []
    with tempfile.TemporaryDirectory() as tmp:
        for case in sorted(CASES):
            path = GOLDEN / f"{case}.csv"
            new = run_case(case, Path(tmp))
            if path.exists() and path.read_bytes() == new:
                unchanged.append(path.name)
                continue
            if not path.exists():
                note = "new file"
            else:
                old = path.read_bytes()
                change = largest_cell_change(old, new)
                note = "layout changed" if change is None else "largest cell change {:.3g} at {}".format(*change)
                comments = [[line for line in text.splitlines() if line.startswith(b"#")] for text in (old, new)]
                note += ", # lines changed" if comments[0] != comments[1] else ""
            path.write_bytes(new)
            print(f"rewrote {path} ({note})")
    print(f"unchanged: {', '.join(unchanged) or 'none'}")
