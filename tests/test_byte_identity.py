"""tools/byte_identity.py, the parent-against-change replay: identical
source trees pass, a planted difference is named, and a bad call exits 2.

The replays run in process over a few golden commands, each still a child
`python -m lieq.cli`; the script itself is run for its usage errors.
"""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "byte_identity.py"
# one exit-0 report, one exit-2 report and one usage error with an env
GOLDEN_SUBSET = (
    "verify-prop4-N1",
    "verify-lemma3-heisenberg-1-zero",
    "analyze-nonabelian2-cap-over-digit-bound",
)


def load_tool():
    spec = importlib.util.spec_from_file_location("byte_identity", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(tmp_path, monkeypatch):
    """(tool module, old tree, new tree): two copies of src/, with the
    golden list cut to GOLDEN_SUBSET."""
    tool = load_tool()
    cases = json.loads(tool.COMMANDS.read_text())
    subset = tmp_path / "commands.json"
    subset.write_text(json.dumps([c for c in cases if c["name"] in GOLDEN_SUBSET]))
    monkeypatch.setattr(tool, "COMMANDS", subset)
    copies = []
    for name in ("old", "new"):
        dest = tmp_path / name
        shutil.copytree(ROOT / "src", dest, ignore=shutil.ignore_patterns("__pycache__"))
        copies.append(dest)
    return tool, *copies


def test_identical_trees_exit_0(trees, tmp_path, capsys):
    tool, old, new = trees
    argv_file = tmp_path / "argv.json"
    argv_file.write_text(json.dumps([["--version"], ["verify", "prop2", "--N", "1_0"]]))
    assert tool.main([str(old), str(new), str(argv_file)]) == 0
    assert capsys.readouterr().out == f"{len(GOLDEN_SUBSET) + 2} commands identical\n"


def test_planted_version_is_caught(trees, tmp_path, capsys):
    tool, old, new = trees
    init = new / "lieq" / "__init__.py"
    text = init.read_text()
    assert "__version__ = " in text
    init.write_text(text.replace("__version__ = ", "__version__ = 'planted' + "))
    argv_file = tmp_path / "argv.json"
    argv_file.write_text(json.dumps([["--version"]]))
    assert tool.main([str(old), str(new), str(argv_file)]) == 1
    assert capsys.readouterr().out == "--version: stdout differ\n"


@pytest.mark.parametrize("args", ([], ["src"], ["src", "tools"]), ids=("none", "one", "no-package"))
def test_bad_call_exits_2(args):
    done = subprocess.run(
        [sys.executable, str(TOOL), *args], cwd=ROOT, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2
    assert done.stdout == "" and done.stderr
