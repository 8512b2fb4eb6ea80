"""The config contract, generated: every field each kind reads, crossed with
a catalogue of hostile values, and the file-level cases, each run through
cli.main in-process on a tiny grid.

The field paths come from the `_field` calls in cli.py, read by AST, so a
new field joins by itself.  Every case exits 0, 2 or 3, never with a
traceback; exit 2 names the field or an object that encloses it; exit 2 or
3 writes no CSV; and on exit 0 every cell is finite and every error lies in
[0, 1].  The step caps are patched small, so a value that asks for an
endless solve exits 3 quickly.
"""

from __future__ import annotations

import ast
import concurrent.futures
import json
import math
import re
from pathlib import Path

import pytest

from test_cli import InProcessPool
from tripod_sta import cli, dynamics, oracles, qmath

MISSING = object()
CATALOGUE = {
    "missing": MISSING,
    "null": None,
    "true": True,
    "string": "1",
    "list": [],
    "object": {},
    "nan": math.nan,
    "inf": math.inf,
    "-inf": -math.inf,
    "zero": 0,
    "-0.0": -0.0,
    "-1": -1,
    "subnormal": 5e-324,
    "1e308": 1e308,
    "400 digits": 10**399,
    "2**63": 2**63,
}

# Tiny valid configs, one per kind; out is set per case.
TINY = {
    "gate-error": {"tg_grid": {"scale": "linear", "min": 1.5, "max": 2.0, "count": 2}},
    "noise-map": {
        "flavors": ["satd"],
        "tg_grid": {"scale": "linear", "min": 1.5, "max": 2.0, "count": 2},
        "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01], "k": 0.0},
        "uncertainty_nodes": 1,
        "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-8},
    },
    "contour": {
        "flavors": ["adiabatic"],
        "uncertainty_nodes": 1,
        "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-8},
        "contour": {
            "gamma_gs": [0.0], "gamma_e": [0.01], "tg_min": 2.0, "tg_max": 3.0, "coarse_count": 2,
            "golden_rel_tol": 0.5,
        },
    },
    "pulses": {"flavors": "satd", "tg_cycles": 2.0, "samples": 3},
    "oracle-compare": {
        "tg_grid": {"scale": "linear", "min": 1.5, "max": 2.0, "count": 2},
        "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01]},
        "integrator": {"rel_tol": 1e-6, "abs_tol": 1e-8},
    },
}
# The leading-order error laws of gate-error, not errors of a solve: at short
# gates they leave [0, 1] (eps_full_pred reads 2.0 at 1 cycle, eps_qubit_pred
# 70 at 1.9), so only their finiteness is part of the contract.
LAWS = {"eps_full_pred", "eps_qubit_pred"}
# Top-level fields load_spec reads without _field.
PLAIN_FIELDS = ("kind", "out", "jobs")


def _read_paths() -> dict[str, tuple[set[str], set[str]]]:
    """Per function of cli.py: the literal paths of its _field calls and the
    names of the functions it calls."""
    out = {}
    for fn in ast.parse(Path(cli.__file__).read_text(encoding="utf-8")).body:
        if isinstance(fn, ast.FunctionDef):
            calls = [node for node in ast.walk(fn) if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)]
            paths = {
                call.args[1].value
                for call in calls
                if call.func.id == "_field" and len(call.args) > 1 and isinstance(call.args[1], ast.Constant)
            }
            out[fn.name] = (paths, {call.func.id for call in calls})
    return out


def kind_fields(kind: str) -> list[str]:
    """The config paths kind reads: those of load_spec and of the kind's
    parse and check functions, with every function they call, less the
    shared fields it fixes or does not run at (Kind.fixed, Kind.runs_at),
    plus the objects that enclose them and PLAIN_FIELDS."""
    table = _read_paths()
    todo = ["load_spec"] + [getattr(f, "__name__", "") for f in (cli.KINDS[kind].parse, cli.KINDS[kind].check)]
    seen, paths = set(), set(PLAIN_FIELDS)
    while todo:
        name = todo.pop()
        if name in table and name not in seen:
            seen.add(name)
            paths |= table[name][0]
            todo.extend(table[name][1])
    paths -= set(cli.KINDS[kind].fixed) | set(cli.SHARED_FIELDS) - set(cli.KINDS[kind].runs_at)
    return sorted(paths | {path.rsplit(".", 1)[0] for path in paths if "." in path})


def _set(payload: dict, path: str, value) -> dict:
    """A copy of payload with the dotted path set to value (MISSING deletes
    it); a parent that is not an object stays as it is."""
    head, _, rest = path.partition(".")
    out = dict(payload)
    if rest:
        if isinstance(out.get(head, {}), dict):
            out[head] = _set(out.get(head, {}), rest, value)
    elif value is MISSING:
        out.pop(head, None)
    else:
        out[head] = value
    return out


@pytest.fixture
def small_caps(monkeypatch):
    monkeypatch.setattr(qmath, "ODE_MAX_STEPS", 400)
    monkeypatch.setattr(dynamics, "MAGNUS_MAX_STEPS", 2**12)
    monkeypatch.setattr(oracles, "ORACLE_MAX_NODES", 2**7)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.delenv("TRIPOD_STA_JOBS", raising=False)


def _names(err: str, field: str) -> bool:
    """Whether err names field, an object that encloses it, or a field
    inside it."""
    return any(
        t == field or field.startswith(t + ".") or t.startswith(field + ".") for t in re.findall(r"[\w.]+", err)
    )


def _check_case(directory: Path, kind: str, config: bytes, field: str, capsys) -> int:
    """Run kind on config in directory and check the contract, with field
    the field an exit 2 must name; returns the exit code."""
    directory.mkdir()
    path = directory / "config.json"
    path.write_bytes(config)
    code = cli.main([*cli.KINDS[kind].command, "--config", str(path)])
    err = capsys.readouterr().err
    written = sorted(p for p in directory.iterdir() if p != path)
    assert code in (0, 2, 3), err
    if code == 2:
        assert _names(err, field), err
    if code != 0:
        assert not written, err
        return code
    [csv] = written
    lines = [line for line in csv.read_text(encoding="utf-8").splitlines() if not line.startswith("#")]
    header = lines[0].split(",")
    for line in lines[1:]:
        for name, cell in zip(header, line.split(",")):
            if name == "flavor":
                continue
            value = float(cell)
            assert math.isfinite(value), (name, line)
            if name.startswith("eps") and name not in LAWS:
                assert 0.0 <= value <= 1.0, (name, line)
    return code


@pytest.mark.parametrize("kind, field", [(kind, field) for kind in sorted(TINY) for field in kind_fields(kind)])
def test_every_catalogue_value_of_a_field_keeps_the_contract(tmp_path, capsys, small_caps, kind, field):
    for label, value in CATALOGUE.items():
        payload = _set({"kind": kind, **TINY[kind]}, field, value)
        if field != "out":
            payload["out"] = str(tmp_path / label / "out.csv")
        elif isinstance(value, str):
            payload["out"] = str(tmp_path / label / value)
        _check_case(tmp_path / label, kind, json.dumps(payload).encode(), field, capsys)


# Each file-level case, with the field its exit 2 names.  A case that starts
# with "{" is one more member of a tiny valid config.
FILE_CASES = {
    "empty file": (b"", "config"),
    "top-level list": (b"[]", "config"),
    "integer past the float range": (b'{"alpha": 1' + b"0" * 400 + b"}", "alpha"),
    "integer past the digit limit": (b'{"jobs": 1' + b"0" * 4400 + b"}", "config"),
    "deep nesting": (b'{"alpha": ' + b"[" * 200_000 + b"]" * 200_000 + b"}", "config"),
    "not UTF-8": (b'{"alpha": "\xff"}', "config"),
}


@pytest.mark.parametrize("kind", sorted(TINY))
@pytest.mark.parametrize("case", sorted(FILE_CASES))
def test_file_level_cases_are_config_errors(tmp_path, capsys, small_caps, kind, case):
    config, field = FILE_CASES[case]
    if config.startswith(b"{"):
        payload = {"kind": kind, **TINY[kind], "out": str(tmp_path / case / "out.csv")}
        config = json.dumps(payload)[:-1].encode() + b", " + config[1:]
    assert _check_case(tmp_path / case, kind, config, field, capsys) == 2


def test_fields_come_from_the_field_calls():
    # A guard on the AST reader: every kind reads the fields all kinds read,
    # the shared fields it neither fixes nor runs without, and its own
    # fields, and no other kind's.
    common = {"alpha", "beta", "gamma0", "flavors", "jobs", "out", "kind"}
    integrator = {"integrator", "integrator.rel_tol", "integrator.abs_tol"}
    grid = {"tg_grid", "tg_grid.scale", "tg_grid.min", "tg_grid.max", "tg_grid.count"}
    contour = {"contour", "contour.gamma_gs", "contour.gamma_e", "contour.tg_min", "contour.tg_max",
               "contour.coarse_count", "contour.golden_rel_tol"}
    own = {
        "gate-error": common | grid | integrator,
        "noise-map": common | grid | integrator | {"noise", "noise.gamma_phi", "noise.k", "uncertainty_nodes"},
        # It fixes flavors, noise.k and uncertainty_nodes.
        "oracle-compare": (common - {"flavors"}) | grid | integrator | {"noise", "noise.gamma_phi"},
        "contour": common | contour | integrator | {"noise", "noise.k", "uncertainty_nodes"},
        "pulses": common | {"samples", "tg_cycles", "amp_scale"},
    }
    for kind, fields in own.items():
        assert set(kind_fields(kind)) == fields, kind
