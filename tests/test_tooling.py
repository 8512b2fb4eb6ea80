import argparse

import pytest

import tripod_sta
from tripod_sta import cli


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
