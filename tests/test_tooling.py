import argparse
import ast
import importlib
from pathlib import Path

import pytest

import tripod_sta
from tripod_sta import cli

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_public_name_resolves():
    for name in tripod_sta.__all__:
        assert getattr(tripod_sta, name) is not None, name


def _command_paths(parser: argparse.ArgumentParser, prefix: tuple = ()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _command_paths(sub, prefix + (word,))
            return
    yield prefix


def test_parser_offers_exactly_the_kind_commands():
    paths = sorted(_command_paths(cli._build_parser()))
    assert paths == sorted(kind.command for kind in cli.KINDS.values())


@pytest.mark.parametrize("name", sorted(cli.KINDS))
def test_help_exits_zero(name, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([*cli.KINDS[name].command, "--help"])
    assert exc.value.code == 0
    assert "--config" in capsys.readouterr().out


def _perfbench_entry_points():
    """(module, name) pairs the benchmark reaches into, read from its source."""
    probes = ast.parse((PERFBENCH / "probes.py").read_text())
    for node in ast.walk(probes):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("tripod_sta"):
            yield from ((node.module, alias.name) for alias in node.names)
    trace = ast.parse((PERFBENCH / "layer_trace.py").read_text())
    hooks = next(n for n in ast.walk(trace) if isinstance(n, ast.FunctionDef) and n.name == "_hooks")
    returned = next(n.value for n in ast.walk(hooks) if isinstance(n, ast.Return))
    for key in returned.keys:
        layer, name = key.value.split(".")
        yield f"tripod_sta.{layer}", name
    yield "tripod_sta.controls", "EnvelopeSet.evaluate"


def test_benchmark_entry_points_exist():
    entry_points = list(_perfbench_entry_points())
    assert len(entry_points) > 10
    for module, dotted in entry_points:
        obj = importlib.import_module(module)
        for part in dotted.split("."):
            assert hasattr(obj, part), f"{module}.{dotted}"
            obj = getattr(obj, part)
