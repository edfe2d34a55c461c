"""tools/code_lines.py, the code-line count of the lieq package, run as a
script: per-module lines and their total, one file, and a missing path."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "code_lines.py"


def run(*args):
    return subprocess.run(
        [sys.executable, str(TOOL), *args], capture_output=True, text=True, timeout=60
    )


def counts(stdout):
    """{name: count} from the '<count>  <name>' lines."""
    return {name: int(count) for count, name in (line.split() for line in stdout.splitlines())}


def test_package_total_is_the_sum_of_its_modules():
    done = run()
    assert done.returncode == 0
    lines = counts(done.stdout)
    total = lines.pop("total")
    assert {f"{p.stem}.py" for p in (ROOT / "src" / "lieq").glob("*.py")} == set(lines)
    assert total == sum(lines.values()) > 0


def test_single_file_is_counted():
    package = counts(run().stdout)
    done = run(str(ROOT / "src" / "lieq" / "cli.py"))
    assert done.returncode == 0
    assert counts(done.stdout) == {"cli.py": package["cli.py"], "total": package["cli.py"]}


def test_missing_path_exits_2():
    done = run(str(ROOT / "no-such-dir"))
    assert done.returncode == 2
    assert done.stdout == "" and "no .py file" in done.stderr
