"""The config dataclasses are the one source of the CLI surface.

Every ``SimConfig``/``FleetConfig`` field declares either the flag that
sets it or why it has none; every declared flag is on a subcommand;
and every flag a subcommand feeds into a config is that field's own
generated flag, so no hand-written copy can drift from it.
"""

import dataclasses

import pytest

import repro.cli as cli
from repro.sim import FleetConfig, SimConfig
from repro.sim.config import Exempt, Flag
from tests.test_cli_surface import subparsers

#: Subcommands whose parsed flags build these config classes.
CONFIG_COMMANDS = {
    "run": (SimConfig,),
    "serve": (SimConfig,),
    "compare": (SimConfig,),
    "sweep": (SimConfig,),
    "fleet": (SimConfig, FleetConfig),
    "profile": (SimConfig,),
    "report": (SimConfig,),
}


def _flags(cls):
    return {f.name: f.metadata["cli"] for f in dataclasses.fields(cls)
            if isinstance(f.metadata.get("cli"), Flag)}


@pytest.mark.parametrize("cls", [SimConfig, FleetConfig])
def test_every_field_declares_a_flag_or_an_exemption(cls):
    for f in dataclasses.fields(cls):
        meta = f.metadata.get("cli")
        assert isinstance(meta, (Flag, Exempt)), f.name
        if isinstance(meta, Flag):
            assert meta.option.startswith("--") and meta.help, f.name
        else:
            assert meta.reason, f.name


@pytest.mark.parametrize("cls", [SimConfig, FleetConfig])
def test_every_declared_flag_is_on_a_subcommand(cls):
    subs = subparsers(cli.build_parser())
    offered = {
        option
        for command, classes in CONFIG_COMMANDS.items() if cls in classes
        for action in subs[command]._actions
        for option in action.option_strings
    }
    missing = {name: meta.option for name, meta in _flags(cls).items()
               if meta.option not in offered}
    assert not missing


@pytest.mark.parametrize("command", sorted(CONFIG_COMMANDS))
def test_every_config_flag_maps_back_to_its_field(command):
    actions = subparsers(cli.build_parser())[command]._actions
    for cls in CONFIG_COMMANDS[command]:
        by_dest = {meta.dest: (name, meta)
                   for name, meta in _flags(cls).items()}
        for action in actions:
            if action.dest not in by_dest:
                continue
            name, meta = by_dest[action.dest]
            # The flag config_from reads is the field's generated one,
            # not a hand-written copy with its own option or help.
            assert action.option_strings == [meta.option], name
            assert action.help == meta.help, name


class _Built(Exception):
    pass


@pytest.fixture
def built(monkeypatch):
    """Stop each command at the config it builds; return that config."""
    configs = []

    def simulation(workload, config, **kwargs):
        configs.append(config)
        raise _Built

    def matrix(benches, policies, factory, **kwargs):
        configs.append(factory())
        raise _Built

    monkeypatch.setattr(cli, "Simulation", simulation)
    monkeypatch.setattr(cli, "collect_matrix", matrix)

    def build(*argv):
        with pytest.raises(_Built):
            cli.main(list(argv))
        return configs[-1]

    return build


def test_sweep_engine_reaches_the_config(built):
    config = built("sweep", "--engine", "reference")
    assert config.engine == "reference"


@pytest.mark.parametrize("argv", [
    ["run", "--bench", "mcf"],
    ["compare", "--bench", "mcf"],
    ["sweep"],
    ["profile", "--bench", "mcf"],
])
def test_seed_reaches_the_config(built, argv):
    assert built(*argv, "--seed", "7").seed == 7
