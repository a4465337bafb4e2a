"""`rtails` prints exactly the committed stdout.

``tests/golden/verify-<suite>.txt`` holds the stdout of ``rtails verify
<suite>`` at default sizes; any change to a verdict, a witness or the task
order shows up as a byte difference.  ``tests/golden/cli-<name>.txt`` holds
the stdout of one of the other subcommands in ``CLI_COMMANDS``, which pins
the JSON and latex renderings and every context of ``rtails coeff``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from rtails.cli import SUITES, main

GOLDEN = Path(__file__).resolve().parent / "golden"

# graphs for `rtails coeff --graph`, named by the placeholder that stands for their path
GRAPHS = {
    # the decorated two-edge chain of the README: genus root -> {4} -> {1, 2, 3}
    "@chain": {
        "vertices": [{"genus": "g", "legs": []}, {"genus": 0, "legs": [4]}, {"genus": 0, "legs": [1, 2, 3]}],
        "edges": [[1, 0], [2, 1]],
        "exp_half": {"1+": 1},
        "exp_leg": {},
    },
    # a one-edge rooted tree {h0, 1} -> {2, 3, 4} with ψ on the head
    "@rooted": {
        "vertices": [{"genus": 0, "legs": ["h0", 1]}, {"genus": 0, "legs": [2, 3, 4]}],
        "edges": [[1, 0]],
        "exp_half": {"0+": 1},
        "exp_leg": {},
    },
    # {h0, 4} -> {1, 2, 3} with ψ on the head and on leg 1: with --m 2, leg 1's
    # weighted block joins the i-rooted layout
    "@rooted-leg": {
        "vertices": [{"genus": 0, "legs": ["h0", 4]}, {"genus": 0, "legs": [1, 2, 3]}],
        "edges": [[1, 0]],
        "exp_half": {"0+": 1},
        "exp_leg": {"1": 1},
    },
    # the coda {1, 3} for I = {1} below the root {h0, 2}
    "@coda": {
        "vertices": [{"genus": 0, "legs": ["h0", 2]}, {"genus": 0, "legs": [1, 3]}],
        "edges": [[1, 0]],
        "exp_half": {},
        "exp_leg": {},
    },
}

# golden name -> argv
CLI_COMMANDS = {
    "fclass-n3": ["fclass", "--n", "3"],
    "fclass-n3-json": ["fclass", "--n", "3", "--format", "json"],
    "fclass-m21": ["fclass", "--multiplicities", "2,1"],
    "fclass-m21-json": ["fclass", "--multiplicities", "2,1", "--format", "json"],
    "relations-g2-n3": ["relations", "--g", "2", "--n", "3"],
    "relations-g2-n3-json": ["relations", "--g", "2", "--n", "3", "--format", "json"],
    "zcycle-n4-i3-j2-json": ["zcycle", "--n", "4", "--i", "3", "--j", "2", "--format", "json"],
    "zcycle-n4-i2-j1-truncated-json": ["zcycle", "--n", "4", "--i", "2", "--j", "1", "--truncated", "--format", "json"],
    "coeff-chain": ["coeff", "--graph", "@chain"],
    "coeff-chain-brute": ["coeff", "--graph", "@chain", "--brute"],
    "coeff-chain-m211": ["coeff", "--graph", "@chain", "--multiplicities", "2,1,1"],
    "coeff-rooted-i2": ["coeff", "--graph", "@rooted", "--i", "2"],
    "coeff-rooted-m2": ["coeff", "--graph", "@rooted-leg", "--i", "2", "--m", "2"],
    "coeff-rooted-m2-brute": ["coeff", "--graph", "@rooted-leg", "--i", "2", "--m", "2", "--brute"],
    "coeff-coda-i1": ["coeff", "--graph", "@coda", "--i", "1", "--coda", "1"],
    "coeff-coda-i1-brute": ["coeff", "--graph", "@coda", "--i", "1", "--coda", "1", "--brute"],
}


def test_every_suite_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.glob("verify-*.txt")) == sorted(f"verify-{s}.txt" for s in SUITES)


def test_every_cli_command_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.glob("cli-*.txt")) == sorted(f"cli-{c}.txt" for c in CLI_COMMANDS)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_stdout_matches_golden(suite, capsys):
    code = main(["verify", suite])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify-{suite}.txt").read_text()


def cli_argv(name: str, directory: Path) -> list:
    """The argv of ``CLI_COMMANDS[name]``, its graph written into ``directory``."""
    argv = []
    for arg in CLI_COMMANDS[name]:
        if arg in GRAPHS:
            path = directory / f"{arg[1:]}.json"
            path.write_text(json.dumps(GRAPHS[arg]))
            arg = str(path)
        argv.append(arg)
    return argv


@pytest.mark.parametrize("name", sorted(CLI_COMMANDS))
def test_cli_stdout_matches_golden(name, tmp_path, capsys):
    code = main(cli_argv(name, tmp_path))
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"cli-{name}.txt").read_text()
