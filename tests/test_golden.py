"""CLI reports replayed against committed golden outputs, byte for byte.

tests/golden/commands.json lists each command with its expected exit code
and stderr, and the environment variables it runs under, if any;
tests/golden/<name>.out holds its expected stdout.  h5_dense.json is the
Heisenberg algebra h5 in a non-standard basis, so most of its structure
constants are nonzero non-integer rationals.  f2_nonabelian2_dense.json is
the first input of the perfbench dense-analyze workload at seed 1
(perfbench/rebase.py): f^2(nonabelian2) in a dense rational basis.
f2_nonabelian2_dense_s21c1.json and f2_nonabelian2_dense_s21c3.json are
copies 1 and 3 of its inputs at seed 21.  dim_over_digit_bound.json has a
dim of 4301 digits, past the default digit limit of the interpreter's
int(), and rational_over_digit_bound.json a bracket value of 5000 digits.
The replays of refused integer options set COLUMNS, since argparse wraps
the usage line it prints to the terminal width.

The coverage guard keeps the replay list whole: every subcommand and every
`verify` theorem is replayed, and the commands and .out files match one to
one.
"""

import json
from pathlib import Path

import pytest

from lieq.cli import build_parser, run_command

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
CASES = json.loads((GOLDEN / "commands.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_report_matches_golden(case, monkeypatch, capsys):
    # file sources are given relative to the repository root, and the
    # report echoes them
    monkeypatch.chdir(ROOT)
    for name, value in case.get("env", {}).items():
        monkeypatch.setenv(name, value)
    code = run_command(case["argv"])
    out, err = capsys.readouterr()
    assert code == case["exit"]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()
    assert err == case["stderr"]


def _choices(parser, dest):
    """The choices of parser's subcommand or positional argument dest."""
    action = next(a for a in parser._actions if a.dest == dest)
    return action.choices


def test_every_subcommand_and_theorem_is_replayed():
    commands = _choices(build_parser(), "command")
    theorems = _choices(commands["verify"], "theorem")
    assert set(commands) <= {c["argv"][0] for c in CASES}
    assert set(theorems) <= {c["argv"][1] for c in CASES if c["argv"][0] == "verify"}


def test_golden_outputs_match_commands():
    names = [c["name"] for c in CASES]
    assert len(set(names)) == len(names)
    assert {p.stem for p in GOLDEN.glob("*.out")} == set(names)
