"""Every console script in ``pyproject.toml`` resolves and answers ``--help``.

A module deleted or renamed without its ``[project.scripts]`` line would
otherwise leave an entry point that only fails once installed.
"""

import importlib
import pathlib

import pytest

PYPROJECT = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"


def _console_scripts():
    """``name -> "module:function"`` from the ``[project.scripts]`` table."""
    scripts, inside = {}, False
    for line in PYPROJECT.read_text().splitlines():
        line = line.strip()
        if line.startswith("["):
            inside = line == "[project.scripts]"
        elif inside and "=" in line:
            name, target = (part.strip() for part in line.split("=", 1))
            scripts[name] = target.strip('"')
    return scripts


SCRIPTS = _console_scripts()


def _help_exits_zero(main, argv, capsys):
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--help"])
    assert exit_.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_the_runtime_has_one_console_script():
    assert set(SCRIPTS) == {"repro-experiments", "repro-chaos", "repro-rt"}


@pytest.mark.parametrize("name", sorted(SCRIPTS))
def test_console_script_imports_and_answers_help(name, capsys):
    module, _, function = SCRIPTS[name].partition(":")
    main = getattr(importlib.import_module(module), function)
    _help_exits_zero(main, [], capsys)


@pytest.mark.parametrize("command", ["cluster", "serve", "strata", "tier"])
def test_every_runtime_subcommand_answers_help(command, capsys):
    from repro.rt.cli import main

    _help_exits_zero(main, [command], capsys)
