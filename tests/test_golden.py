"""`rtails verify <suite>` prints exactly the committed verdict lines.

``tests/golden/verify-<suite>.txt`` holds the stdout of ``rtails verify
<suite>`` at default sizes; any change to a verdict, a witness or the task
order shows up as a byte difference.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from rtails.cli import SUITES, main

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_every_suite_has_a_golden_file():
    assert sorted(p.name for p in GOLDEN.glob("verify-*.txt")) == sorted(f"verify-{s}.txt" for s in SUITES)


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_verify_stdout_matches_golden(suite, capsys):
    code = main(["verify", suite])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"verify-{suite}.txt").read_text()
