"""CLI reports replayed against committed golden outputs, byte for byte.

tests/golden/commands.json lists each command with its expected exit code;
tests/golden/<name>.out holds its expected stdout.  h5_dense.json is the
Heisenberg algebra h5 in a non-standard basis, so most of its structure
constants are nonzero non-integer rationals.  f2_nonabelian2_dense.json is
the first input of the perfbench dense-analyze workload at seed 1
(perfbench/rebase.py): f^2(nonabelian2) in a dense rational basis.
"""

import json
from pathlib import Path

import pytest

from lieq.cli import run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case, monkeypatch, capsys):
    # file sources are given relative to the repository root, and the
    # report echoes them
    monkeypatch.chdir(ROOT)
    code = run_command(case["argv"])
    out = capsys.readouterr().out
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
