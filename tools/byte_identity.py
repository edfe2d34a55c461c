"""Replay lieq commands under two source trees and compare them byte for byte.

    python tools/byte_identity.py OLD_SRC NEW_SRC [ARGV_FILE]

OLD_SRC and NEW_SRC are directories that hold the `lieq` package, such as
the src/ directories of two checkouts.  Every command of
tests/golden/commands.json, then every argument list of ARGV_FILE (a JSON
list of lists of strings), runs as a child `python -m lieq.cli ARGS...`,
one at a time and under a timeout, from the repository root, with the
golden command's environment variables, once with each tree alone on
PYTHONPATH.  The exit status is 0 when every command gives the same stdout,
stderr and exit code under both trees, and 1, naming the first command and
what differs, when one does not or when a child times out; a usage error
exits 2.  Uses only the standard library.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ROOT / "tests" / "golden" / "commands.json"
TIMEOUT_S = 300


def commands(argv_file: Path | None) -> list[tuple[str, list, dict]]:
    """(name, argv, env) of the golden commands, then of argv_file's lists,
    each of those named by its arguments."""
    out = [(c["name"], c["argv"], c.get("env", {})) for c in json.loads(COMMANDS.read_text())]
    if argv_file is not None:
        out += [(" ".join(argv), argv, {}) for argv in json.loads(argv_file.read_text())]
    return out


def replay(src: Path, argv: list, env: dict) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of `python -m lieq.cli argv` with src as
    the only PYTHONPATH entry.  Raises subprocess.TimeoutExpired after
    TIMEOUT_S seconds."""
    child_env = {**os.environ, **env, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run(
        [sys.executable, "-m", "lieq.cli", *argv],
        cwd=ROOT,
        env=child_env,
        capture_output=True,
        timeout=TIMEOUT_S,
    )
    return done.returncode, done.stdout, done.stderr


def main(args: list[str]) -> int:
    if len(args) not in (2, 3):
        print("usage: byte_identity.py OLD_SRC NEW_SRC [ARGV_FILE]", file=sys.stderr)
        return 2
    old, new = Path(args[0]).resolve(), Path(args[1]).resolve()
    for src in (old, new):
        if not (src / "lieq" / "cli.py").is_file():
            print(f"byte_identity: no lieq package in {src}", file=sys.stderr)
            return 2
    cases = commands(Path(args[2]) if len(args) == 3 else None)
    for name, argv, env in cases:
        try:
            results = [replay(src, argv, env) for src in (old, new)]
        except subprocess.TimeoutExpired:
            print(f"{name}: timed out after {TIMEOUT_S} s")
            return 1
        (a_code, a_out, a_err), (b_code, b_out, b_err) = results
        differs = [
            part
            for part, same in (("exit code", a_code == b_code), ("stdout", a_out == b_out),
                               ("stderr", a_err == b_err))
            if not same
        ]
        if differs:
            print(f"{name}: {', '.join(differs)} differ")
            return 1
    print(f"{len(cases)} commands identical")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
