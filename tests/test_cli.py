import concurrent.futures
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import OMEGA0, leak_lindblad_rhs, params
from test_golden import CONTOUR_INTERIOR
from tripod_sta import cli, metrics
from tripod_sta.controls import Flavor, make_envelopes
from tripod_sta.dynamics import NoiseModel
from tripod_sta.metrics import MAX_UNCERTAINTY_NODES, map_fidelity
from tripod_sta.qmath import ABS_TOL_FLOOR, IntegratorConfig


def write_config(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def read_table(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


GATE_ERROR_CFG = {
    "kind": "gate-error",
    "flavors": ["adiabatic", "satd"],
    "tg_grid": {"scale": "linear", "min": 2.0, "max": 4.0, "count": 2},
    "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
}


# Cheap valid configs, keyed by command.
MINIMAL_CFGS = {
    "sweep gate-error": GATE_ERROR_CFG,
    "sweep noise-map": {
        "kind": "noise-map",
        "flavors": ["adiabatic", "satd"],
        "tg_grid": {"scale": "linear", "min": 2.0, "max": 3.0, "count": 2},
        "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01], "k": 0.2},
        "uncertainty_nodes": 3,
        "integrator": {"rel_tol": 1e-7, "abs_tol": 1e-9},
    },
    "contour": {
        "kind": "contour",
        "uncertainty_nodes": 1,
        "integrator": {"rel_tol": 1e-7, "abs_tol": 1e-9},
        "contour": {"gamma_gs": [0.0], "gamma_e": [0.01], "tg_min": 2.0, "tg_max": 3.0, "coarse_count": 3},
    },
    "pulses export": {"kind": "pulses", "flavors": "adiabatic", "tg_cycles": 2.0, "samples": 7},
    "oracle compare": {
        "kind": "oracle-compare",
        "tg_grid": {"scale": "linear", "min": 4.0, "max": 5.0, "count": 2},
        "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01]},
        "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
    },
}


# The kind name of each command of MINIMAL_CFGS.
KIND_OF = {" ".join(kind.command): name for name, kind in cli.KINDS.items()}

# The default of flavors and of each shared field, then one other value.
SHARED_VALUES = {
    "flavors": (["adiabatic", "satd"], "adiabatic"),
    "noise.gamma_phi": ([0.0, 0.0, 0.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
    "noise.k": (0.0, 0.5),
    "integrator.rel_tol": (1e-10, 0.5),
    "integrator.abs_tol": (1e-12, 1e-8),
    "uncertainty_nodes": (21, 7),
}


def _unread_cases():
    """(command, path, value, extra arguments) of each shared field a kind
    fixes or does not run at, at the value it runs at (its default if
    unfixed) and the values of SHARED_VALUES, then --tol on pulses."""
    for command, name in sorted(KIND_OF.items()):
        kind = cli.KINDS[name]
        for path in [*kind.fixed, *(path for path in cli.SHARED_FIELDS if path not in kind.runs_at)]:
            values = [kind.fixed.get(path, SHARED_VALUES[path][0]), *SHARED_VALUES[path]]
            for value in [v for i, v in enumerate(values) if v not in values[:i]]:
                yield pytest.param(command, path, value, [], id=f"{command}-{path}={json.dumps(value)}")
    yield pytest.param("pulses export", "integrator.rel_tol", None, ["--tol", "1e-8"], id="pulses export---tol")


def _with_field(payload, path, value):
    """A copy of payload with the dotted path set to value."""
    head, _, rest = path.partition(".")
    if not rest:
        return dict(payload, **{head: value})
    return dict(payload, **{head: _with_field(payload.get(head, {}), rest, value)})


class TestConfigHandling:
    def test_missing_file_is_config_error(self, capsys, tmp_path):
        rc = cli.main(["sweep", "gate-error", "--config", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_two_runs_build_one_parser(self, tmp_path):
        # The argparse tree depends on KINDS alone, so a process builds it once.
        cli._build_parser.cache_clear()
        for _ in range(2):
            assert cli.main(["sweep", "gate-error", "--config", str(tmp_path / "nope.json")]) == 2
        info = cli._build_parser.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_json_error_reports_position(self, capsys, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"kind": "gate-error",\n  "tg_grid": }')
        rc = cli.main(["sweep", "gate-error", "--config", str(cfg)])
        assert rc == 2
        assert "line 2 column 14" in capsys.readouterr().err

    def test_field_error_names_field(self, capsys, tmp_path):
        payload = dict(GATE_ERROR_CFG, out="x.csv", tg_grid={"min": 4.0, "max": 2.0, "count": 5})
        cfg = write_config(tmp_path / "c.json", payload)
        rc = cli.main(["sweep", "gate-error", "--config", cfg])
        assert rc == 2
        assert "tg_grid" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "extra, field",
        [
            ({"tg_gird": {"min": 2.0, "max": 4.0, "count": 2}}, "tg_gird"),
            ({"integrator": {"reltol": 1e-4}}, "integrator.reltol"),
            ({"noise": {"gamma_phi": [0.0] * 4, "kappa": 0.1}}, "noise.kappa"),
            ({"alpha": {"value": 0.3}}, "alpha.value"),
        ],
    )
    def test_a_key_no_kind_reads_is_config_error(self, capsys, tmp_path, extra, field):
        # A misspelt key used to run silently at the default of the field it meant.
        out = tmp_path / "ge.csv"
        cfg = write_config(tmp_path / "c.json", dict(GATE_ERROR_CFG, out=str(out), **extra))
        assert cli.main(["sweep", "gate-error", "--config", cfg]) == 2
        assert f"field {field!r}: no kind reads this field" in capsys.readouterr().err
        assert not out.exists()

    def test_a_key_only_another_kind_reads_is_ignored(self, tmp_path):
        out = tmp_path / "ge.csv"
        other = {"samples": "many", "amp_scale": -1.0, "contour": {"tg_min": -1.0, "gamma_e": None}}
        cfg = write_config(tmp_path / "c.json", dict(GATE_ERROR_CFG, out=str(out), **other))
        assert cli.main(["sweep", "gate-error", "--config", cfg]) == 0
        assert out.exists()

    def test_kind_mismatch(self, capsys, tmp_path):
        payload = dict(GATE_ERROR_CFG, out="x.csv")
        cfg = write_config(tmp_path / "c.json", payload)
        rc = cli.main(["sweep", "noise-map", "--config", cfg])
        assert rc == 2
        assert "kind" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload, field",
        [
            ([dict(GATE_ERROR_CFG, out="x.csv")], "'config'"),  # a top-level JSON array
            (dict(GATE_ERROR_CFG, kind="bogus", out="x.csv"), "'kind'"),
        ],
    )
    def test_array_or_unknown_kind_is_config_error(self, capsys, tmp_path, payload, field):
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["sweep", "gate-error", "--config", cfg]) == 2
        assert field in capsys.readouterr().err

    def test_out_required(self, capsys, tmp_path):
        cfg = write_config(tmp_path / "c.json", GATE_ERROR_CFG)
        rc = cli.main(["sweep", "gate-error", "--config", cfg])
        assert rc == 2
        assert "out" in capsys.readouterr().err

    def test_jobs_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TRIPOD_STA_JOBS", "3")
        payload = dict(GATE_ERROR_CFG, out=str(tmp_path / "o.csv"))
        spec = cli.load_spec(write_config(tmp_path / "c.json", payload), "gate-error", {})
        assert spec.jobs == 3

    def _assert_config_error(self, capsys, tmp_path, kind, payload, field, extra=()):
        cfg = write_config(tmp_path / "c.json", dict(payload, out=str(tmp_path / "o.csv")))
        rc = cli.main(kind.split() + ["--config", cfg, *extra])
        assert rc == 2
        assert field in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def _assert_file_error(self, capsys, tmp_path, member: bytes, field):
        # GATE_ERROR_CFG with one more raw JSON member: exit 2, naming field, and no CSV.
        cfg = tmp_path / "c.json"
        cfg.write_bytes(json.dumps(GATE_ERROR_CFG)[:-1].encode() + b", " + member + b"}")
        assert cli.main(["sweep", "gate-error", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
        assert f"field {field!r}" in capsys.readouterr().err
        assert not (tmp_path / "o.csv").exists()

    def test_integer_alpha_beyond_the_float_range_is_config_error(self, capsys, tmp_path):
        self._assert_file_error(capsys, tmp_path, b'"alpha": 1' + b"0" * 400, "alpha")

    def test_integer_past_the_digit_limit_is_config_error(self, capsys, tmp_path):
        self._assert_file_error(capsys, tmp_path, b'"jobs": 1' + b"0" * 4400, "config")

    def test_deep_nesting_is_config_error(self, capsys, tmp_path):
        self._assert_file_error(capsys, tmp_path, b'"x": ' + b"[" * 200_000 + b"]" * 200_000, "config")

    def test_bytes_that_are_not_utf8_are_a_config_error(self, capsys, tmp_path):
        self._assert_file_error(capsys, tmp_path, b'"x": "\xff"', "config")

    def test_nan_dephasing_rate_is_config_error(self, capsys, tmp_path):
        payload = dict(TestNoiseMapSweep.CFG, noise={"gamma_phi": [0.0, 0.0, 0.0, math.nan], "k": 0.2})
        self._assert_config_error(capsys, tmp_path, "sweep noise-map", payload, "noise.gamma_phi")

    def test_non_numeric_alpha_is_config_error(self, capsys, tmp_path):
        payload = dict(GATE_ERROR_CFG, alpha="abc")
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", payload, "alpha")

    def test_boolean_alpha_is_config_error(self, capsys, tmp_path):
        payload = dict(GATE_ERROR_CFG, alpha=True)
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", payload, "alpha")

    def test_boolean_uncertainty_nodes_is_config_error(self, capsys, tmp_path):
        payload = dict(TestNoiseMapSweep.CFG, uncertainty_nodes=True)
        self._assert_config_error(capsys, tmp_path, "sweep noise-map", payload, "uncertainty_nodes")

    def test_boolean_jobs_is_config_error(self, capsys, tmp_path):
        payload = dict(GATE_ERROR_CFG, jobs=True)
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", payload, "jobs")

    def test_zero_tol_override_is_config_error(self, capsys, tmp_path):
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", GATE_ERROR_CFG, "integrator", ["--tol", "0"])

    @pytest.mark.parametrize("tol", ["1", "2"])
    def test_tol_override_of_one_or_more_is_config_error(self, capsys, tmp_path, tol):
        extra = ["--tol", tol]
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", GATE_ERROR_CFG, "'integrator.rel_tol'", extra)

    def test_negative_jobs_is_config_error(self, capsys, tmp_path):
        payload = dict(GATE_ERROR_CFG, jobs=-3)
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", payload, "jobs")

    @pytest.mark.parametrize("via_flag", [False, True])
    @pytest.mark.parametrize("name", ["missing/o.csv", "out_dir", "o\0.csv", "\ud800.csv"])
    def test_unwritable_out_is_config_error(self, capsys, tmp_path, monkeypatch, name, via_flag):
        # A missing directory, a directory as the file, a NUL byte, or a name
        # the file system cannot encode: each used to run the whole sweep,
        # then end in a traceback at the write.
        (tmp_path / "out_dir").mkdir()
        monkeypatch.setattr(cli, "run", lambda spec: pytest.fail("the sweep ran"))
        out = str(tmp_path / name)
        payload = dict(GATE_ERROR_CFG) if via_flag else dict(GATE_ERROR_CFG, out=out)
        cfg = write_config(tmp_path / "c.json", payload)
        rc = cli.main(["sweep", "gate-error", "--config", cfg] + (["--out", out] if via_flag else []))
        assert rc == 2
        assert "'out'" in capsys.readouterr().err

    def test_out_name_too_long_is_config_error(self, capsys, tmp_path, monkeypatch):
        # Checked against the directory's name limit before the sweep; it used
        # to end in a traceback at the write with exit 1, and then in exit 2
        # only after the whole sweep.
        monkeypatch.setattr(cli, "run", lambda spec: pytest.fail("the sweep ran"))
        cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS["pulses export"], out=str(tmp_path / ("o" * 300))))
        assert cli.main(["pulses", "export", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: field 'out': ") and "Traceback" not in err
        assert os.listdir(tmp_path) == ["c.json"]

    @pytest.mark.parametrize("value", ["abc", "0", "-3", "2.5"])
    def test_bad_jobs_env_is_config_error(self, capsys, tmp_path, monkeypatch, value):
        monkeypatch.setenv("TRIPOD_STA_JOBS", value)
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", GATE_ERROR_CFG, "TRIPOD_STA_JOBS")

    @pytest.mark.parametrize(
        "kind, fields",
        [
            ("sweep gate-error", ("tg_grid.min", "tg_grid.max")),
            ("sweep noise-map", ("tg_grid.min", "tg_grid.max")),
            ("oracle compare", ("tg_grid.min", "tg_grid.max")),
            ("contour", ("contour.tg_min", "contour.tg_max")),
            ("pulses export", ("tg_cycles",)),
        ],
    )
    def test_every_kind_runs_at_the_shortest_gate_time(self, tmp_path, kind, fields):
        payload = MINIMAL_CFGS[kind]
        for scale, field in enumerate(fields, 1):
            payload = _with_field(payload, field, scale * cli.MIN_TG_CYCLES)
        cfg = write_config(tmp_path / "c.json", dict(payload, out=str(tmp_path / "o.csv")))
        assert cli.main(kind.split() + ["--config", cfg]) == 0

    # The closed path and the pulse export only: a Lindblad gate this long
    # stops at ODE_MAX_STEPS.
    @pytest.mark.parametrize("kind, field", [("sweep gate-error", "tg_grid.max"), ("pulses export", "tg_cycles")])
    def test_gate_error_and_pulses_run_at_the_longest_gate_time(self, tmp_path, kind, field):
        payload = _with_field(MINIMAL_CFGS[kind], field, cli.MAX_TG_CYCLES)
        cfg = write_config(tmp_path / "c.json", dict(payload, out=str(tmp_path / "o.csv")))
        assert cli.main(kind.split() + ["--config", cfg]) == 0

    def test_gate_error_runs_at_a_tolerance_below_roundoff(self, tmp_path):
        # The Magnus step doubling stops at its roundoff plateau.
        cfg = write_config(tmp_path / "c.json", dict(GATE_ERROR_CFG, out=str(tmp_path / "o.csv")))
        assert cli.main(["sweep", "gate-error", "--config", cfg, "--tol", "1e-15"]) == 0

    def test_default_abs_tol_stops_at_the_floor(self, tmp_path):
        payload = dict(GATE_ERROR_CFG, out=str(tmp_path / "o.csv"), integrator={})
        spec = cli.load_spec(write_config(tmp_path / "c.json", payload), "gate-error", {"tol": 1e-15})
        assert (spec.integrator.rel_tol, spec.integrator.abs_tol) == (1e-15, ABS_TOL_FLOOR)

    @pytest.mark.parametrize(
        "kind", [kind for kind in sorted(MINIMAL_CFGS) if "integrator.abs_tol" in cli.KINDS[KIND_OF[kind]].runs_at]
    )
    def test_every_kind_runs_at_the_abs_tol_floor(self, tmp_path, kind):
        payload = _with_field(MINIMAL_CFGS[kind], "integrator.abs_tol", ABS_TOL_FLOOR)
        cfg = write_config(tmp_path / "c.json", dict(payload, out=str(tmp_path / "o.csv")))
        assert cli.main(kind.split() + ["--config", cfg]) == 0

    @pytest.mark.parametrize(
        "kind, field, value",
        [
            (kind, field, value)
            for kind in ("sweep gate-error", "sweep noise-map", "oracle compare")
            for field, value in (
                ("tg_grid.scale", "cubic"),
                ("tg_grid.min", -1.0),
                ("tg_grid.max", 1.0),
                ("tg_grid.count", 1),
                ("tg_grid.count", cli.MAX_GRID_POINTS + 1),
            )
        ]
        + [
            ("pulses export", "samples", 1),
            # Past MAX_GRID_POINTS; 10^13 points used to end in a numpy memory error.
            ("pulses export", "samples", cli.MAX_GRID_POINTS + 1),
            ("pulses export", "tg_cycles", 0.0),
            ("pulses export", "amp_scale", 0.0),
            # amp_scale*omega0 overflows; it used to write nan and inf cells.
            ("pulses export", "amp_scale", 1e308),
            ("contour", "contour.gamma_gs", []),
            ("contour", "contour.gamma_e", [-1.0]),
            ("contour", "contour.tg_min", -1.0),
            ("contour", "contour.tg_max", 0.5),
            ("contour", "contour.coarse_count", 1),
            ("contour", "contour.coarse_count", cli.MAX_GRID_POINTS + 1),
            ("contour", "contour.golden_rel_tol", 0.0),
        ]
        + [
            (kind, field, value)
            for kind in sorted(MINIMAL_CFGS)
            for field, value in (
                ("noise.gamma_phi", [0.0, 0.0, 0.0]),
                ("noise.k", 1.0),
                ("integrator.rel_tol", -1e-8),
                ("integrator.abs_tol", 0.0),
                ("uncertainty_nodes", 0),
                # Even: the nominal scale 1 would not be a node (also at k = 0).
                ("uncertainty_nodes", 4),
                # Past MAX_UNCERTAINTY_NODES; 10^6 nodes used to end in a numpy memory error.
                ("uncertainty_nodes", MAX_UNCERTAINTY_NODES + 1),
            )
        ]
        + [
            ("sweep gate-error", "flavors", ["satd", "satd"]),
            # pulses exports one flavor; it used to drop the second silently.
            ("pulses export", "flavors", ["adiabatic", "satd"]),
            # Positive gate times below cli.MIN_TG_CYCLES, where the pulse shape and closed forms overflow.
            ("sweep gate-error", "tg_grid.min", 1e-100),
            ("oracle compare", "tg_grid.min", 1e-100),
            # Oracle B and the closed form cover excited-state dephasing only.
            ("oracle compare", "noise.gamma_phi", [0.01, 0.0, 0.0, 0.01]),
            ("pulses export", "tg_cycles", 1e-200),
            ("contour", "contour.tg_min", 1e-200),
        ]
        # An abs_tol below the floor cannot be met; it used to exit 3 or nearly hang.
        + [(kind, "integrator.abs_tol", 0.9 * ABS_TOL_FLOOR) for kind in sorted(MINIMAL_CFGS)]
        # Every numerical error lies in [0, 1], so a tolerance of 1 or more zeroed them all.
        + [(kind, f"integrator.{tol}", 1.0) for kind in sorted(MINIMAL_CFGS) for tol in ("rel_tol", "abs_tol")]
        + [(kind, "noise.gamma_phi", "x") for kind in sorted(MINIMAL_CFGS)]
        + [
            ("sweep gate-error", "flavors", ["bogus"]),
            # A field under a parent that is not an object.
            ("sweep gate-error", "tg_grid", 5),
        ]
        # The peak SATD envelope overflows though amp_scale*omega0 is finite:
        # the first used to write inf and nan cells, the second finite samples
        # that miss the peak.
        + [
            ("pulses export", "amp_scale", {"flavors": ["satd"], "tg_cycles": tg, "amp_scale": scale})
            for tg, scale in ((0.5, 2.8e307), (1e-5, 1e300))
        ]
        # Gate times above cli.MAX_TG_CYCLES: at 1e308 cycles gate-error used to
        # exit 3 after 6.4 s with a NaN estimate.
        + [
            (kind, field, value)
            for kind, fields in (
                ("sweep gate-error", ("tg_grid.min", "tg_grid.max")),
                ("sweep noise-map", ("tg_grid.min", "tg_grid.max")),
                ("oracle compare", ("tg_grid.min", "tg_grid.max")),
                ("contour", ("contour.tg_min", "contour.tg_max")),
                ("pulses export", ("tg_cycles",)),
            )
            for field in fields
            for value in (math.nextafter(cli.MAX_TG_CYCLES, math.inf), 1e308)
        ]
    )
    def test_bad_field_is_config_error(self, capsys, tmp_path, kind, field, value):
        """One bad value per field, for every kind that reads the field; a
        dict value sets several top-level fields, which make field bad."""
        if isinstance(value, dict):
            payload = dict(MINIMAL_CFGS[kind], **value)
        else:
            payload = _with_field(MINIMAL_CFGS[kind], field, value)
        self._assert_config_error(capsys, tmp_path, kind, payload, f"'{field}'")

    @pytest.mark.parametrize(
        "value, message",
        [
            # Both used to read "entries must be 'adiabatic' or 'satd'", which names no bad entry.
            ([], "must be a flavor or a non-empty list of flavors, got []"),
            (5, "must be a flavor or a non-empty list of flavors, got 5"),
            (["satd", "bogus"], "entries must be 'adiabatic' or 'satd', got ['satd', 'bogus']"),
        ],
    )
    def test_bad_flavors_message_names_the_fault(self, capsys, tmp_path, value, message):
        payload = dict(GATE_ERROR_CFG, flavors=value)
        self._assert_config_error(capsys, tmp_path, "sweep gate-error", payload, f"field 'flavors': {message}")

    @pytest.mark.parametrize("kind, path, value, extra", _unread_cases())
    def test_fields_a_kind_does_not_read_are_config_errors(self, tmp_path, capsys, kind, path, value, extra):
        # A shared field the kind fixes (oracle-compare solves one SATD node
        # at k = 0) or does not run at (gate-error no noise, pulses no solve)
        # exits 2 naming the field, even set to the value the kind runs at or
        # to its default; so does --tol where no integrator runs.
        out = tmp_path / "o.csv"
        payload = dict(MINIMAL_CFGS[kind], out=str(out))
        if value is not None:
            payload = _with_field(payload, path, value)
        assert cli.main(kind.split() + ["--config", write_config(tmp_path / "c.json", payload), *extra]) == 2
        assert f"field {path!r}: must be unset ({KIND_OF[kind]} does not read it)" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "kind, field, parsed",
        [(kind, "tg_grid.count", len) for kind in ("sweep gate-error", "sweep noise-map", "oracle compare")]
        + [
            ("pulses export", "samples", lambda fields: fields.samples),
            ("contour", "contour.coarse_count", lambda fields: fields.coarse_count),
        ],
    )
    def test_grid_count_at_the_cap_is_accepted(self, tmp_path, kind, field, parsed):
        payload = _with_field(MINIMAL_CFGS[kind], field, cli.MAX_GRID_POINTS)
        spec = cli.load_spec(write_config(tmp_path / "c.json", dict(payload, out=str(tmp_path / "o.csv"))))
        assert parsed(spec.fields) == cli.MAX_GRID_POINTS


class TestGateErrorSweep:
    def test_rows_and_header(self, tmp_path):
        out = tmp_path / "ge.csv"
        payload = dict(GATE_ERROR_CFG, out=str(out))
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["sweep", "gate-error", "--config", cfg]) == 0
        header, rows = read_table(out)
        assert ",".join(header) == cli.KINDS["gate-error"].header
        assert len(rows) == 4  # 2 gate times x 2 flavors
        for row in rows:
            assert row[1] in ("adiabatic", "satd")
            values = [float(v) for v in row[2:]]
            assert all(math.isfinite(v) for v in values)

    def test_satd_rows_predict_their_own_gate(self, tmp_path):
        out = tmp_path / "ge.csv"
        payload = dict(GATE_ERROR_CFG, out=str(out))
        cfg = write_config(tmp_path / "c.json", payload)
        cli.main(["sweep", "gate-error", "--config", cfg])
        _, rows = read_table(out)
        satd = [r for r in rows if r[1] == "satd"]
        for row in satd:
            eps_full, eps_qubit, eps_full_pred, eps_qubit_pred = map(float, row[2:6])
            assert eps_qubit <= 1e-6
            assert eps_qubit_pred == 0.0
            # closed form tracks the numerics tightly for the accelerated gate
            assert eps_full == pytest.approx(eps_full_pred, rel=1e-4, abs=1e-8)

    def test_determinism_and_parallel_equivalence(self, tmp_path):
        payload = dict(GATE_ERROR_CFG)
        cfg = write_config(tmp_path / "c.json", payload)
        outs = []
        for name, jobs in (("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")):
            out = tmp_path / name
            rc = cli.main(["sweep", "gate-error", "--config", cfg, "--out", str(out), "--jobs", jobs])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_parallel_equals_serial_where_the_step_floor_holds(self, tmp_path):
        # SATD gates below about 2 cycles take at least 2/u* Magnus steps per half.
        payload = dict(GATE_ERROR_CFG, tg_grid={"scale": "log", "min": 1e-3, "max": 30.0, "count": 5})
        cfg = write_config(tmp_path / "c.json", payload)
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}.csv"
            assert cli.main(["sweep", "gate-error", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class InProcessPool:
    """A ProcessPoolExecutor stand-in that runs the tasks in this process,
    where monkeypatches hold, and starts no worker."""

    def __init__(self, max_workers):
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return map(fn, tasks)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("kind", sorted(MINIMAL_CFGS))
def test_every_kind_dispatches_its_tasks_once(tmp_path, monkeypatch, kind, jobs):
    # One task path: the kind's tasks all go through a single _run_tasks call,
    # and no task starts a pool of its own.
    calls = []
    run_tasks = cli._run_tasks

    def counting(worker, tasks, jobs):
        calls.append(len(tasks))
        return run_tasks(worker, tasks, jobs)

    monkeypatch.setattr(cli, "_run_tasks", counting)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS[kind], out=str(tmp_path / "o.csv")))
    assert cli.main(kind.split() + ["--config", cfg, "--jobs", jobs]) == 0
    assert len(calls) == 1


def test_pool_starts_no_more_workers_than_tasks(monkeypatch):
    # A recording stand-in: a real pool forks every worker at the first
    # submit.  Three usable CPUs bound the pool as well as --jobs and the tasks.
    sizes = []

    class RecordingPool(InProcessPool):
        def __init__(self, max_workers):
            sizes.append(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    assert cli._run_tasks(abs, [-1, -2], 64) == [1, 2]
    assert cli._run_tasks(abs, [-1, -2, -3], 2) == [1, 2, 3]
    assert cli._run_tasks(abs, [-1, -2, -3, -4], 64) == [1, 2, 3, 4]
    assert sizes == [2, 2, 3]


def test_import_leaves_the_process_pool_unloaded():
    # A serial run never needs the process pool, so importing the CLI does
    # not pay for loading it.
    code = "import sys, tripod_sta.cli; print('concurrent.futures.process' in sys.modules)"
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


class TestNoiseMapSweep:
    CFG = MINIMAL_CFGS["sweep noise-map"]

    @pytest.mark.parametrize("jobs", [1, 2, 6])
    @pytest.mark.parametrize(
        "kind, cap, flavors",
        [("sweep noise-map", 24, ("adiabatic", "satd")), ("oracle compare", 8, ("satd",))],
        ids=["noise-map", "oracle-compare"],
    )
    def test_tasks_are_the_solve_chunks_of_each_flavor(self, tmp_path, monkeypatch, kind, cap, flavors, jobs):
        # Four states per scale: noise-map's three nodes make 12 per point and
        # oracle-compare's one node 4, so a cap of 24 or 8 makes two points
        # per solve.  Each chunk is one task, whatever --jobs: every flavor's
        # points of it, flavor by flavor in config order, one lockstep pass.
        monkeypatch.setattr(metrics, "MAX_SOLVE_STATES", cap)
        grid = {"scale": "linear", "min": 2, "max": 6, "count": 5}
        payload = dict(MINIMAL_CFGS[kind], out=str(tmp_path / "o.csv"), tg_grid=grid)
        spec = cli.load_spec(write_config(tmp_path / "c.json", payload), overrides={"jobs": jobs})
        tasks = cli.KINDS[spec.kind].tasks(spec)
        assert all(task.keys() == {"points"} for task in tasks)
        chunks = ([2.0], [3.0, 4.0], [5.0, 6.0])
        assert [[(pt["tg_cycles"], pt["flavor"]) for pt in task["points"]] for task in tasks] == [
            [(tg, flavor) for flavor in flavors for tg in chunk] for chunk in chunks
        ]

    def test_both_flavors_of_a_chunk_share_its_one_solve(self, tmp_path, monkeypatch):
        # Three chunks of the grid (as in the test above), each one lockstep
        # pass of both flavors: one ode_solve per chunk, of the first
        # half-segment alone.
        from tripod_sta import dynamics

        solve, groups = dynamics.ode_solve, []

        def counting(rhs, y0, t0, t1, *args, **kwargs):
            groups.append((kwargs["groups"], t0, t1))
            return solve(rhs, y0, t0, t1, *args, **kwargs)

        monkeypatch.setattr(metrics, "MAX_SOLVE_STATES", 24)
        monkeypatch.setattr(dynamics, "ode_solve", counting)
        grid = {"scale": "linear", "min": 2, "max": 6, "count": 5}
        cfg = write_config(tmp_path / "c.json", dict(self.CFG, out=str(tmp_path / "o.csv"), tg_grid=grid))
        assert cli.main(["sweep", "noise-map", "--config", cfg, "--jobs", "1"]) == 0
        assert groups == [(2, 0.0, 0.5)] * 3

    def test_rows_thresholds_and_zero_noise_reduction(self, tmp_path):
        out = tmp_path / "nm.csv"
        cfg = write_config(tmp_path / "c.json", dict(self.CFG, out=str(out)))
        assert cli.main(["sweep", "noise-map", "--config", cfg]) == 0
        text = out.read_text()
        assert "satd_max_amp_threshold_cycles=" in text
        assert "satd_cost_2x_threshold_cycles=" in text
        header, rows = read_table(out)
        assert ",".join(header) == cli.KINDS["noise-map"].header
        assert len(rows) == 8  # 2 tg x 2 flavors x {0, 0.2}
        # the k = 0 row of each point reduces to the plain map fidelity
        p = params(2.0, Flavor.SATD)
        eps = 1.0 - map_fidelity(
            p, make_envelopes(p), NoiseModel((0.0, 0.0, 0.0, 0.01)), IntegratorConfig(1e-7, 1e-9)
        )
        row = next(r for r in rows if r[0] == "2" and r[1] == "satd" and r[2] == "0")
        assert float(row[3]) == pytest.approx(eps, rel=1e-4)

    def test_merged_nominal_matches_standalone_map_fidelity(self, tmp_path):
        # The k = 0 rows come from the scale-1 members of the uncertainty solve.
        spec = cli.load_spec(write_config(tmp_path / "c.json", dict(self.CFG, out=str(tmp_path / "o.csv"))))
        cfg = spec.integrator
        for flavor in spec.flavors:
            p = spec.params(2.0, flavor)
            standalone = 1.0 - map_fidelity(p, make_envelopes(p), NoiseModel(spec.noise.gamma_phi), cfg)
            nominal_row, averaged_row = cli._noise_map_rows(spec, [{"tg_cycles": 2.0, "flavor": flavor}])
            assert nominal_row[3] == averaged_row[3]
            assert abs(nominal_row[3] - standalone) < 10.0 * cfg.rel_tol

    def test_one_chunk_sweep_starts_no_pool(self, tmp_path, monkeypatch):
        # The minimal grid is one chunk, so one task: --jobs 2 runs it in
        # this process.
        sizes = []

        class RecordingPool(InProcessPool):
            def __init__(self, max_workers):
                sizes.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        cfg = write_config(tmp_path / "c.json", dict(self.CFG, out=str(tmp_path / "o.csv")))
        assert cli.main(["sweep", "noise-map", "--config", cfg, "--jobs", "2"]) == 0
        assert sizes == []

    def test_parallel_run_equals_serial_byte_for_byte(self, tmp_path, monkeypatch):
        # Three solves per flavor; each worker's right-hand sides reuse
        # buffers of their own, so two workers write what one writes.
        monkeypatch.setattr(metrics, "MAX_SOLVE_STATES", 12)
        grid = {"scale": "log", "min": 1.7, "max": 3.1, "count": 3}
        cfg = write_config(tmp_path / "c.json", dict(self.CFG, tg_grid=grid))
        outs = [tmp_path / f"jobs{jobs}.csv" for jobs in ("1", "2")]
        for out, jobs in zip(outs, ("1", "2")):
            assert cli.main(["sweep", "noise-map", "--config", cfg, "--out", str(out), "--jobs", jobs]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()

    def test_zero_rate_noise_model_gives_unitary_values(self, tmp_path):
        out = tmp_path / "nm0.csv"
        payload = dict(self.CFG, out=str(out), noise={"gamma_phi": [0, 0, 0, 0], "k": 0.0})
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["sweep", "noise-map", "--config", cfg]) == 0
        _, rows = read_table(out)
        assert len(rows) == 4  # k list collapses to {0}
        satd_rows = [r for r in rows if r[1] == "satd"]
        for r in satd_rows:
            assert float(r[3]) <= 1e-6  # noiseless accelerated gate is exact


class TestContour:
    def test_zero_rates_and_infeasible_window(self, tmp_path):
        out = tmp_path / "ct.csv"
        payload = {
            "kind": "contour",
            "out": str(out),
            "flavors": ["adiabatic", "satd"],
            "noise": {"k": 0.0},
            "uncertainty_nodes": 1,
            "integrator": {"rel_tol": 1e-7, "abs_tol": 1e-9},
            "contour": {
                "gamma_gs": [0.0],
                "gamma_e": [0.0],
                "tg_min": 0.8,
                "tg_max": 1.2,  # below the SATD amplitude threshold
                "coarse_count": 4,
                "golden_rel_tol": 0.05,
            },
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["contour", "--config", cfg]) == 0
        header, rows = read_table(out)
        assert ",".join(header) == cli.KINDS["contour"].header
        by_flavor = {r[2]: r for r in rows}
        assert by_flavor["satd"][5] == "0"  # infeasible: window below threshold
        assert by_flavor["satd"][3] == "nan"
        assert by_flavor["adiabatic"][5] == "1"
        assert float(by_flavor["adiabatic"][4]) >= 0.0

    def test_satd_zero_rates_reaches_zero_error(self, tmp_path):
        # Every printed error is zeroed below rel_tol: the noiseless SATD
        # optimum is integration error only, of either sign, and prints as 0.
        out = tmp_path / "ct2.csv"
        payload = {
            "kind": "contour",
            "out": str(out),
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
        cfg = write_config(tmp_path / "c.json", payload)
        tg_stars = []
        for tol in ("1e-8", "1e-9"):
            assert cli.main(["contour", "--config", cfg, "--tol", tol]) == 0
            _, rows = read_table(out)
            assert rows[0][5] == "1"
            assert rows[0][4] == "0"
            tg_stars.append(rows[0][3])
        # Ties below rel_tol go to the shortest grid gate time, at any tolerance.
        assert tg_stars == ["2", "2"]

    def test_interior_minimum_matches_a_dense_scan(self, tmp_path):
        # Dephasing on every level puts the adiabatic optimum inside the
        # window; the refinement reaches the best of a dense scan.
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path / "c.json", dict(CONTOUR_INTERIOR, out=str(out)))
        assert cli.main(["contour", "--config", cfg]) == 0
        [row] = read_table(out)[1]
        tg_star, eps_star = float(row[3]), float(row[4])
        spec = cli.load_spec(cfg)
        dense = np.linspace(2.0, 10.0, 81)
        points = [spec.params(tg, "adiabatic") for tg in dense]
        noise = NoiseModel((0.01, 0.01, 0.01, 0.01))
        errors = [1.0 - f_avg for _, f_avg in metrics.nominal_and_uncertainty_avg(points, noise, 1, spec.integrator)]
        j = int(np.argmin(errors))
        assert 0 < j < len(dense) - 1
        assert eps_star <= errors[j] + 10.0 * spec.integrator.rel_tol
        assert dense[j - 1] < tg_star < dense[j + 1]

    def test_golden_rel_tol_below_float_spacing_terminates(self, tmp_path, monkeypatch):
        # Refinement stops once no unsolved float fits in the bracket, which
        # a golden_rel_tol below the float spacing of the window never ends;
        # no solve repeats a gate time, even where linspace's do.
        calls = []
        solve = cli.nominal_and_uncertainty_avg

        def counting(points, noise, n_nodes, cfg):
            calls.append([p.t_gate for p in points])
            return solve(points, noise, n_nodes, cfg)

        monkeypatch.setattr(cli, "nominal_and_uncertainty_avg", counting)
        out = tmp_path / "o.csv"
        payload = _with_field(MINIMAL_CFGS["contour"], "contour.golden_rel_tol", 1e-100)
        cfg = write_config(tmp_path / "c.json", dict(payload, flavors=["adiabatic"], out=str(out)))
        assert cli.main(["contour", "--config", cfg]) == 0
        assert len(calls) <= 30
        solved = [tg for tgs in calls for tg in tgs]
        assert len(set(solved)) == len(solved)
        [row] = read_table(out)[1]
        assert 2.0 <= float(row[3]) <= 3.0

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_coarse_solves_follow_point_chunks(self, tmp_path, monkeypatch, jobs):
        # Four states per point at one node: a cap of 8 makes two points per
        # solve, so the five-point coarse grid is three solves, and every
        # refinement call after it, of at most REFINE_POINTS points, follows
        # point_chunks too.
        monkeypatch.setattr(metrics, "MAX_SOLVE_STATES", 8)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        calls = {"adiabatic": [], "satd": []}
        solves = {"adiabatic": [], "satd": []}
        solve = cli.nominal_and_uncertainty_avg
        batch = metrics._first_half_images

        def recording_call(points, noise, n_nodes, cfg):
            calls[points[0].flavor.value].append([p.t_gate for p in points])
            return solve(points, noise, n_nodes, cfg)

        def recording(params, env, noise, rho0s, cfg, amp_scales, t_gates, flavors):
            solves[params.flavor.value].append(list(dict.fromkeys(t_gates.tolist())))
            return batch(params, env, noise, rho0s, cfg, amp_scales, t_gates, flavors)

        monkeypatch.setattr(cli, "nominal_and_uncertainty_avg", recording_call)
        monkeypatch.setattr(metrics, "_first_half_images", recording)
        payload = _with_field(MINIMAL_CFGS["contour"], "contour.coarse_count", 5)
        cfg = write_config(tmp_path / "c.json", dict(payload, out=str(tmp_path / "o.csv")))
        assert cli.main(["contour", "--config", cfg, "--jobs", jobs]) == 0
        assert [len(chunk) for chunk in metrics.point_chunks(5, 0.0, 1)] == [1, 2, 2]
        for flavor, tgs in solves.items():
            assert [len(s) for s in tgs[:3]] == [1, 2, 2]
            grid = [t for s in tgs[:3] for t in s]
            assert grid == [float(t) for t in np.geomspace(grid[0], 3.0, 5)]
            refinements = calls[flavor][1:]
            assert refinements and all(len(c) <= cli.REFINE_POINTS for c in refinements)
            chunks = [c[r.start : r.stop] for c in calls[flavor] for r in metrics.point_chunks(len(c), 0.0, 1)]
            assert tgs == chunks
        assert solves["adiabatic"][0] == [2.0]

    def test_coarse_values_match_per_point_averages(self, tmp_path, monkeypatch):
        # The coarse grid, the first call of each task, shares one mesh; each
        # value stays within 10 rel_tol of the point's own uncertainty average.
        coarse = {}
        solve = cli.nominal_and_uncertainty_avg

        def recording(points, noise, n_nodes, cfg):
            out = solve(points, noise, n_nodes, cfg)
            coarse.setdefault((noise, points[0].flavor), (points, noise, [f_avg for _, f_avg in out]))
            return out

        monkeypatch.setattr(cli, "nominal_and_uncertainty_avg", recording)
        payload = dict(MINIMAL_CFGS["contour"], noise={"k": 0.05}, uncertainty_nodes=3, out=str(tmp_path / "o.csv"))
        cfg = write_config(tmp_path / "c.json", payload)
        spec = cli.load_spec(cfg)
        assert cli.main(["contour", "--config", cfg]) == 0
        assert [len(points) for points, _, _ in coarse.values()] == [3, 3]
        for points, noise, averaged in coarse.values():
            for p, f_avg in zip(points, averaged):
                alone = metrics.map_fidelity_uncertainty_avg(p, noise, 3, spec.integrator)
                assert abs(f_avg - alone) < 10.0 * spec.integrator.rel_tol


class TestPulsesExport:
    def test_first_row_amplitudes(self, tmp_path):
        out = tmp_path / "pl.csv"
        payload = {
            "kind": "pulses",
            "out": str(out),
            "flavors": "adiabatic",
            "tg_cycles": 2.0,
            "amp_scale": 1.3,
            "samples": 7,
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["pulses", "export", "--config", cfg]) == 0
        header, rows = read_table(out)
        assert ",".join(header) == cli.KINDS["pulses"].header
        assert len(rows) == 7
        first = [float(v) for v in rows[0]]
        assert first[1:5] == [0.0, 0.0, 0.0, 0.0]
        assert first[5] == pytest.approx(1.3 * OMEGA0, rel=1e-12)

    def test_unset_flavors_export_adiabatic(self, tmp_path):
        # Not the shared default pair, which pulses would reject.
        payload = {key: value for key, value in MINIMAL_CFGS["pulses export"].items() if key != "flavors"}
        outs = [tmp_path / "unset.csv", tmp_path / "adiabatic.csv"]
        for out, flavors in zip(outs, ({}, {"flavors": "adiabatic"})):
            cfg = write_config(tmp_path / "c.json", dict(payload, out=str(out), **flavors))
            assert cli.main(["pulses", "export", "--config", cfg]) == 0
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestOracleCompare:
    def test_columns_agree(self, tmp_path):
        out = tmp_path / "oc.csv"
        payload = {
            "kind": "oracle-compare",
            "out": str(out),
            "tg_grid": {"scale": "linear", "min": 4.0, "max": 6.0, "count": 2},
            "noise": {"gamma_phi": [0.0, 0.0, 0.0, 0.01]},
            "integrator": {"rel_tol": 1e-8, "abs_tol": 1e-10},
        }
        cfg = write_config(tmp_path / "c.json", payload)
        assert cli.main(["oracle", "compare", "--config", cfg]) == 0
        header, rows = read_table(out)
        assert ",".join(header) == cli.KINDS["oracle-compare"].header
        for row in rows:
            eps_map_num, eps_eq48, eps_b = float(row[3]), float(row[4]), float(row[5])
            assert abs(eps_map_num - eps_eq48) / eps_eq48 < 0.1
            assert abs(eps_b - eps_eq48) / eps_eq48 < 0.1

    def test_header_names_the_one_node_at_k_zero(self, tmp_path):
        out = tmp_path / "o.csv"
        cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS["oracle compare"], out=str(out)))
        assert cli.main(["oracle", "compare", "--config", cfg]) == 0
        comments = [line for line in out.read_text().splitlines() if line.startswith("#")]
        assert comments[1].endswith(" k=0")
        assert comments[2].endswith(" uncertainty_nodes=1")

    def test_map_error_is_the_plain_map_fidelity(self, tmp_path):
        # Both points share one solve, on the mesh of the longer gate: each
        # map error is that solve's nominal value, and within rel_tol of the
        # point's own map_fidelity.
        payload = dict(MINIMAL_CFGS["oracle compare"], out=str(tmp_path / "o.csv"))
        spec = cli.load_spec(write_config(tmp_path / "c.json", payload))
        [task] = cli.KINDS["oracle-compare"].tasks(spec)
        ps = [spec.params(**point) for point in task["points"]]
        noise, cfg = NoiseModel(spec.noise.gamma_phi), spec.integrator
        rows = cli._oracle_compare_rows(spec, **task)
        assert len(rows) == 2
        for p, row, (f_map, _) in zip(ps, rows, metrics.nominal_and_uncertainty_avg(ps, noise, 1, cfg)):
            assert row[3] == 1.0 - f_map
            assert abs(row[3] - (1.0 - map_fidelity(p, make_envelopes(p), noise, cfg))) <= cfg.rel_tol


def test_numerical_failure_exit_code(tmp_path, capsys, monkeypatch):
    from tripod_sta.dynamics import NumericalError

    def boom(*args, **kwargs):
        raise NumericalError("trace defect 1.0 exceeds 1e-6")

    monkeypatch.setattr(cli, "propagate_unitary_batch", boom)
    out = tmp_path / "ge.csv"
    cfg = write_config(tmp_path / "c.json", dict(GATE_ERROR_CFG, out=str(out)))
    rc = cli.main(["sweep", "gate-error", "--config", cfg])
    assert rc == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err
    assert "tg_cycles=2" in err  # offending parameter tuple is reported
    assert not out.exists()


def test_unitarity_breach_exits_3(tmp_path, capsys, monkeypatch):
    from tripod_sta import tripod

    monkeypatch.setattr(tripod, "spin1_image", lambda u: 1.001 * np.eye(4, dtype=complex))
    out = tmp_path / "ge.csv"
    cfg = write_config(tmp_path / "c.json", dict(GATE_ERROR_CFG, out=str(out)))
    assert cli.main(["sweep", "gate-error", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "unitarity defect" in err
    assert "tg_cycles=2.0, flavor=adiabatic" in err
    assert not out.exists()


# A grid whose later points (30 cycles) need more Magnus steps than its first.
WIDE_GATE_ERROR_CFG = dict(GATE_ERROR_CFG, tg_grid={"scale": "linear", "min": 2.0, "max": 30.0, "count": 2})


def test_step_cap_of_later_members_names_the_first_of_them(tmp_path, capsys, monkeypatch):
    from tripod_sta import dynamics

    # 2 cycles meets rel_tol 1e-8 at N = 128 per half-segment, 30 cycles needs 256.
    monkeypatch.setattr(dynamics, "MAGNUS_MAX_STEPS", 128)
    out = tmp_path / "ge.csv"
    cfg = write_config(tmp_path / "c.json", dict(WIDE_GATE_ERROR_CFG, out=str(out)))
    assert cli.main(["sweep", "gate-error", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "reached N = 128" in err
    assert "tg_cycles=30.0, flavor=adiabatic" in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize(
    "broken, named",
    [
        (lambda p: p.t_gate == 30.0 and p.flavor is Flavor.SATD, "tg_cycles=30.0, flavor=satd"),
        (lambda p: p.flavor is Flavor.SATD, "tg_cycles=2.0, flavor=satd"),
    ],
    ids=["last member", "two later members"],
)
def test_unitarity_breach_of_later_members_names_the_first_of_them(tmp_path, capsys, monkeypatch, broken, named, jobs):
    from tripod_sta import dynamics

    # --jobs 2 splits the four points into two contiguous chunks; the
    # stand-in pool runs them in this process, where the patch holds.
    chunks = []

    class RecordingPool(InProcessPool):
        def map(self, fn, tasks):
            chunks.extend([(p["tg_cycles"], p["flavor"]) for p in task["points"]] for _, task in tasks)
            return map(fn, tasks)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    # The batch reaches the lab frame in one stacked lab_operator call.
    real = dynamics.lab_operator

    def scaled(ps, u1, u2):
        return np.array([1.001 if broken(p) else 1.0 for p in ps])[:, None, None] * real(ps, u1, u2)

    monkeypatch.setattr(dynamics, "lab_operator", scaled)
    out = tmp_path / "ge.csv"
    cfg = write_config(tmp_path / "c.json", dict(WIDE_GATE_ERROR_CFG, out=str(out)))
    assert cli.main(["sweep", "gate-error", "--config", cfg, "--jobs", jobs]) == 3
    split = [[(2.0, "adiabatic"), (2.0, "satd")], [(30.0, "adiabatic"), (30.0, "satd")]]
    assert chunks == ([] if jobs == "1" else split)
    assert f"at ({named}): unitarity defect" in capsys.readouterr().err
    assert not out.exists()


def test_oracle_node_cap_exits_3(tmp_path, capsys, monkeypatch):
    from tripod_sta import oracles

    monkeypatch.setattr(oracles, "ORACLE_MAX_NODES", oracles.ORACLE_MIN_NODES)
    out = tmp_path / "oc.csv"
    cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS["oracle compare"], out=str(out)))
    assert cli.main(["oracle", "compare", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "oracle node doubling" in err
    assert "tg_cycles=4.0" in err
    assert not out.exists()


def test_oracle_b_failure_of_a_later_point_names_that_point(tmp_path, capsys, monkeypatch):
    # Both points (4 and 5 cycles) are one task; oracle B fails at the second
    # with the member 0 of its own one-member node doubling.
    from tripod_sta.dynamics import NumericalError

    oracle_b = cli.oracle_b_map_fidelity

    def failing_at_5(p, shape, noise, cfg):
        if p.t_gate == 5.0:
            raise NumericalError("oracle node doubling reached N = 256 with estimate 1e-3", 0)
        return oracle_b(p, shape, noise, cfg)

    monkeypatch.setattr(cli, "oracle_b_map_fidelity", failing_at_5)
    out = tmp_path / "oc.csv"
    cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS["oracle compare"], out=str(out)))
    assert cli.main(["oracle", "compare", "--config", cfg]) == 3
    assert "at (tg_cycles=5.0, flavor=satd): oracle node doubling" in capsys.readouterr().err
    assert not out.exists()


def test_positivity_breach_exits_3(tmp_path, capsys, monkeypatch):
    # A constant leak from |1> onto |0> keeps the trace but breaks positivity.
    leak_lindblad_rhs(monkeypatch, 1e-6 * np.diag([1.0, -1.0, 0.0, 0.0]))
    out = tmp_path / "nm.csv"
    # Without dephasing the axial states stay pure, so the leak shows at once.
    payload = dict(MINIMAL_CFGS["sweep noise-map"], out=str(out), noise={"gamma_phi": [0, 0, 0, 0], "k": 0.2})
    cfg = write_config(tmp_path / "c.json", payload)
    assert cli.main(["sweep", "noise-map", "--config", cfg, "--tol", "1e-10"]) == 3
    err = capsys.readouterr().err
    assert "minimum eigenvalue" in err
    assert "tg_cycles=2.0, flavor=adiabatic" in err
    assert not out.exists()


@pytest.mark.parametrize("leaking, named", [("both", "adiabatic"), ("satd", "satd")])
def test_breach_of_a_later_point_of_a_solve_names_that_point(tmp_path, capsys, monkeypatch, leaking, named):
    # The leak of test_positivity_breach_exits_3 on the states of the second
    # point (t_g = 3) of both flavors, or of the SATD flavor alone, in the
    # one lockstep pass of the one-chunk grid.  The stack holds the
    # adiabatic blocks, then the SATD ones; the first failing state names
    # its point.
    from tripod_sta import dynamics

    lindblad_rhs = dynamics._lindblad_rhs
    leak = dynamics._pack(1e-6 * np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex))

    def leaky_rhs(terms, noise, t_gates):
        rhs = lindblad_rhs(terms, noise, t_gates)
        rows = t_gates == 3.0
        if leaking == "satd":
            rows[: len(rows) // 2] = False
        rows = rows[..., None]
        return lambda tau, u: rhs(tau, u) + rows * leak

    monkeypatch.setattr(dynamics, "_lindblad_rhs", leaky_rhs)
    out = tmp_path / "nm.csv"
    payload = dict(MINIMAL_CFGS["sweep noise-map"], out=str(out), noise={"gamma_phi": [0, 0, 0, 0], "k": 0.2})
    cfg = write_config(tmp_path / "c.json", payload)
    spec = cli.load_spec(cfg)
    assert [len(task["points"]) for task in cli.KINDS["noise-map"].tasks(spec)] == [4]
    assert cli.main(["sweep", "noise-map", "--config", cfg, "--tol", "1e-10"]) == 3
    err = capsys.readouterr().err
    assert f"at (tg_cycles=3.0, flavor={named}): minimum eigenvalue" in err
    assert not out.exists()


def test_ode_step_limit_exits_3_and_names_the_point(tmp_path, capsys, monkeypatch):
    # A long gate would take minutes to reach the real limit; a tiny one
    # stops the first pass (both flavors of t_g = 2 and 3) in its first
    # half, where both groups reach it at the same attempt and the first,
    # adiabatic, raises.  The failure is tied to no member: it names the
    # longest gate, which sets the group's mesh.
    from tripod_sta import qmath

    monkeypatch.setattr(qmath, "ODE_MAX_STEPS", 5)
    out = tmp_path / "nm.csv"
    cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS["sweep noise-map"], out=str(out)))
    assert cli.main(["sweep", "noise-map", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert "at (tg_cycles=3.0, flavor=adiabatic): ODE step limit (ODE_MAX_STEPS attempted steps) reached" in err
    assert not out.exists()


def test_contour_step_limit_gives_its_time_as_tau(tmp_path, capsys, monkeypatch):
    # The Lindblad path steps in scaled time tau = t/t_g; the message says so,
    # and the coarse solve names its longest gate, tg_max.
    from tripod_sta import qmath

    monkeypatch.setattr(qmath, "ODE_MAX_STEPS", 5)
    out = tmp_path / "ct.csv"
    cfg = write_config(tmp_path / "c.json", dict(MINIMAL_CFGS["contour"], out=str(out), flavors=["adiabatic"]))
    assert cli.main(["contour", "--config", cfg]) == 3
    err = capsys.readouterr().err
    assert re.search(r"at \(gamma_gs=0\.0, gamma_e=0\.01, flavor=adiabatic, tg_cycles=3\.0\): ODE step limit", err), err
    assert "reached at tau = " in err
    assert not out.exists()


@pytest.mark.parametrize("stage", ["coarse", "golden"])
def test_contour_breach_names_its_gate_time(tmp_path, capsys, monkeypatch, stage):
    # The leak of test_positivity_breach_exits_3 on the states of the second
    # coarse point, or on every gate time off the coarse grid (the first
    # refinement step), of a noiseless adiabatic contour.
    from tripod_sta import dynamics

    grid = [float(t) for t in np.geomspace(0.8, 1.2, 4)]
    lindblad_rhs = dynamics._lindblad_rhs
    leak = dynamics._pack(1e-6 * np.diag([1.0, -1.0, 0.0, 0.0]).astype(complex))

    def leaky_rhs(terms, noise, t_gates):
        rhs = lindblad_rhs(terms, noise, t_gates)
        rows = (t_gates == grid[1] if stage == "coarse" else ~np.isin(t_gates, grid))[..., None]
        return lambda tau, u: rhs(tau, u) + rows * leak

    monkeypatch.setattr(dynamics, "_lindblad_rhs", leaky_rhs)
    out = tmp_path / "ct.csv"
    window = {"gamma_gs": [0.0], "gamma_e": [0.0], "tg_min": 0.8, "tg_max": 1.2, "coarse_count": 4}
    payload = dict(MINIMAL_CFGS["contour"], out=str(out), flavors=["adiabatic"], contour=window)
    cfg = write_config(tmp_path / "c.json", payload)
    assert cli.main(["contour", "--config", cfg, "--tol", "1e-10"]) == 3
    err = capsys.readouterr().err
    named = re.search(r"at \(gamma_gs=0\.0, gamma_e=0\.0, flavor=adiabatic, tg_cycles=([^)]*)\): minimum", err)
    assert named, err
    tg = float(named.group(1))
    if stage == "coarse":
        assert tg == grid[1]
    else:
        assert grid[0] < tg < grid[-1] and tg not in grid
    assert "satd_tg_min" not in err
    assert not out.exists()
