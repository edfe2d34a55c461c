"""Benchmark of the ``lieq`` command line, end to end and layer by layer.

    python3 perfbench/run.py --workload catalog-analyze --seed 1 --seconds 40 --trace 0

Run it from the root of a checkout; it runs the ``lieq`` found in ``src/``
of that checkout.  This process starts one ``python -m lieq.cli``
child at a time and starts the next when the previous verdict returns: a
closed loop with one client, as for a user at a shell.  A pass runs the
workload's command list once; passes repeat until ``--seconds`` is spent.

Every verdict is checked against the hand-written answers in
``expected.json``, and every command's stdout must be byte-identical across
the passes of a run, traced or not.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes whose children run under ``layers.py``, and
reports per-layer call counts and self times plus the tracing overhead.
The last line of stdout is one JSON object; the lines before it, and a
results file under ``.perfbench/results/``, give the samples behind each
number, the seed, the environment and a host-speed probe.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import layers
import rebase

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"

CHILD_TIMEOUT_S = 120
SETUP_RUNS = 3  # before the first pass and again after every pass
DENSE_COPIES = 4

# Why each workload exists is recorded in BENCHMARK.json.
COMMANDS = {
    "catalog-analyze": [
        "analyze catalog:heisenberg:1",
        "analyze catalog:heisenberg:2",
        "analyze catalog:abelian:4",
        "analyze catalog:graded-power:heisenberg:1:2",
        "analyze catalog:full-graph:heisenberg:1",
        "analyze catalog:full-graph:full-graph:nonabelian2",
    ],
    "pipelines": [
        "verify theorem2 --g catalog:full-graph:nonabelian2",
        "verify theorem1 --g catalog:heisenberg:1 --torus diagonal",
        "verify theorem1 --g catalog:nonabelian2 --graded-power 2 --torus grading",
        "verify theorem3 --N 1 --n 1",
        "verify prop4 --N 1",
        "tower catalog:full-graph:heisenberg:1",
    ],
}
DENSE_BASE = "f2_nonabelian2"

# The layer each workload was chosen to be dominated by (largest self time).
DOMINANT = {
    "catalog-analyze": "liealg.LieAlgebra.validate",
    "dense-analyze": "linalg.SparseSystem.add_row",
    "pipelines": "linalg.Matrix.commutator",
}

# Self times reported in the JSON line: the layers every workload reaches,
# so no reported time is a constant zero.  The others are in the trace report.
SELF_TIMES = [
    "liealg.LieAlgebra.validate",
    "liealg.LieAlgebra.center",
    "liealg.LieAlgebra.ad_matrix",
    "linalg.SparseSystem.add_row",
    "linalg.SparseSystem.nullspace_basis",
    "linalg.rref",
    "linalg.Matrix.commutator",
    "linalg.Subspace.coords_of",
    "derivations.derivations",
    "derivations.is_complete",
    "fileio.dumps_report",
]


class Command(NamedTuple):
    key: str
    args: list[str]
    answer: dict


class ChildResult(NamedTuple):
    wall: float
    cpu: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: bytes


def host_probe() -> float:
    """Seconds for a fixed stdlib Fraction loop; a diagnostic, never a scale."""
    start = time.perf_counter()
    x = Fraction(0)
    for k in range(1, 4001):
        x += Fraction(k, k * k + 1)
    return time.perf_counter() - start


def environment() -> dict:
    head = ROOT / ".git" / "HEAD"
    sha = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            sha = ref_file.read_text().strip() if ref_file.is_file() else ref
        else:
            sha = ref
    has_mpq = importlib.util.find_spec("gmpy2") is not None
    return {
        "scalar_backend": "gmpy2.mpq" if has_mpq else "fractions.Fraction",
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def run_child(argv: list[str], env: dict, scratch: Path) -> ChildResult:
    out_path, err_path = scratch / "stdout", scratch / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        wall,
        usage.ru_utime + usage.ru_stime,
        usage.ru_maxrss / 1024.0,
        proc.returncode,
        out_path.read_bytes(),
        err_path.read_bytes(),
    )


def verdict_problems(cmd: Command, res: ChildResult, reference: dict) -> list[str]:
    problems = []
    if res.rc != cmd.answer["exit"]:
        problems.append(f"exit code {res.rc}, expected {cmd.answer['exit']}")
    try:
        doc = json.loads(res.stdout)
    except ValueError:
        doc = None
    if not isinstance(doc, dict):
        problems.append("stdout is not a JSON report")
    else:
        for field, want in cmd.answer["fields"].items():
            if doc.get(field) != want:
                problems.append(f"{field} = {doc.get(field)!r}, expected {want!r}")
    first = reference.setdefault(cmd.key, res.stdout)
    if res.stdout != first:
        problems.append("stdout differs from the first pass of this run")
    if problems and res.stderr:
        problems.append("stderr: " + res.stderr.decode(errors="replace").strip()[-300:])
    return problems


def build_commands(workload: str, seed: int, answers: dict, inputs: Path) -> list[Command]:
    rng = random.Random(f"{workload}:{seed}")
    expected = answers[workload]
    if workload == "dense-analyze":
        base = str(BENCH / "algebras" / f"{DENSE_BASE}.json")
        cmds = []
        for copy, text in enumerate(rebase.rebased_texts(base, DENSE_COPIES, rng)):
            path = inputs / f"{DENSE_BASE}-{copy}.json"
            path.write_text(text)
            rel = path.relative_to(ROOT).as_posix()
            cmds.append(Command(f"analyze {rel}", ["analyze", rel], expected[DENSE_BASE]))
        return cmds
    cmds = [Command(key, key.split(), expected[key]) for key in COMMANDS[workload]]
    rng.shuffle(cmds)  # the seed sets the order of the closed loop
    return cmds


class Runner:
    """Starts the children one at a time and keeps the verdict tally."""

    def __init__(self, scratch: Path):
        self.scratch = scratch
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.reference: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _argv(self, cmd: Command, summary: Path | None, cmd_id: str) -> list[str]:
        if summary is None:
            return [sys.executable, "-m", "lieq.cli", *cmd.args]
        return [sys.executable, str(BENCH / "layers.py"), str(summary), cmd_id, "--", *cmd.args]

    def run(self, cmd: Command, summary: Path | None = None, cmd_id: str = "") -> ChildResult:
        res = run_child(self._argv(cmd, summary, cmd_id), self.env, self.scratch)
        self.attempted += 1
        problems = verdict_problems(cmd, res, self.reference)
        if summary is not None and not summary.is_file():
            problems.append("traced child wrote no span summary")
        if problems:
            self.failed += 1
            self.failures.extend(f"{cmd.key}: {p}" for p in problems)
        return res

    def setup_times(self, answers: dict, n: int) -> list[float]:
        """Wall times of ``n`` fresh ``lieq catalog list`` processes."""
        key, answer = next(iter(answers["setup"].items()))
        cmd = Command(key, key.split(), answer)
        return [self.run(cmd).wall for _ in range(n)]

    def run_pass(self, cmds: list[Command], pass_no: int, traced: bool) -> dict:
        spans = self.scratch / "spans"
        start = time.perf_counter()
        results, summaries = [], []
        for i, cmd in enumerate(cmds):
            summary = spans / f"p{pass_no}-c{i}.json" if traced else None
            res = self.run(cmd, summary, f"p{pass_no}-c{i}")
            results.append(res)
            if traced and summary.is_file():
                summaries.append(json.loads(summary.read_text()))
        wall = time.perf_counter() - start
        return {
            "traced": traced,
            "wall": wall,
            "cpu": sum(r.cpu for r in results),
            "peak_rss_mb": max(r.rss_mb for r in results),
            "cmd_walls": {c.key: r.wall for c, r in zip(cmds, results)},
            "summaries": summaries,
        }


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return f"n={n}, too few samples for a tail percentile"
    pct = 100.0 * (n - 10) / n
    return f"n={n}, p{pct:.0f}={sorted(samples)[n - 11]:.6g}"


def end_to_end(passes: list[dict], setup: list[float], runner: Runner) -> tuple[dict, list[str]]:
    walls = [p["wall"] for p in passes]
    cpus = [p["cpu"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    per_cmd = {k: [p["cmd_walls"][k] for p in passes] for k in passes[0]["cmd_walls"]}
    geomean = math.exp(statistics.fmean(math.log(statistics.median(v)) for v in per_cmd.values()))
    metrics = {
        "wall_s": (statistics.median(walls), "s", walls),
        "cmd_geomean_s": (geomean, "s", None),
        "cpu_s": (statistics.median(cpus), "s", cpus),
        "peak_rss_mb": (statistics.median(rss), "MB", rss),
        "setup_s": (statistics.median(setup), "s", setup),
    }
    lines = [f"failed_frac      {runner.failed / runner.attempted:12.6f}     "
             f"({runner.failed} of {runner.attempted} commands failed)"]
    for name, (value, unit, samples) in metrics.items():
        detail = tail(samples) if samples else f"{len(per_cmd)} commands x {len(passes)} passes"
        lines.append(f"{name:16s} {value:12.6f} {unit:3s} median ({detail})")
    for key, v in per_cmd.items():
        lines.append(f"  cmd {statistics.median(v):9.4f} s median of {len(v)}  {key}")
    return {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}, lines


def fold(summaries: list[dict]) -> dict:
    """Totals of one traced pass over its commands."""
    layers_: dict[str, dict] = {}
    for s in summaries:
        for name, rec in s["layers"].items():
            acc = layers_.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            for k in acc:
                acc[k] += rec[k]
    counters = [f"{m}.{p}" for m, p in layers.COUNTERS]
    return {
        "layers": layers_,
        "counts": {k: sum(s["counts"][k] for s in summaries) for k in counters},
        "triples": sum(s["validate_triples"] for s in summaries),
        "rows": sum(s["add_row_rows"] for s in summaries),
        "pivots": sum(s["add_row_pivots"] for s in summaries),
        "max_coeff_bits": max((s["max_coeff_bits"] for s in summaries), default=0),
    }


def per_layer(workload: str, passes: list[dict], failures: list[str]) -> tuple[dict, list[str]]:
    traced = [fold(p["summaries"]) for p in passes if p["traced"]]
    plain = [p["wall"] for p in passes if not p["traced"]]
    first = traced[0]

    span_names = [f"{m}.{p}" for m, p in layers.SPANS]

    def calls(t, name):
        return t["layers"].get(name, {}).get("calls", 0)

    def counted(t):
        return ({n: calls(t, n) for n in span_names}, t["counts"], t["triples"], t["rows"], t["pivots"])

    if any(counted(t) != counted(first) for t in traced[1:]):
        failures.append("call counts differ between traced passes")

    def self_s(name):
        return statistics.median(t["layers"].get(name, {}).get("self_ns", 0) / 1e9 for t in traced)

    metrics = {}
    for name in span_names:
        metrics[f"{name}.calls"] = (calls(first, name), "count")
    for name, n in first["counts"].items():
        metrics[f"{name}.calls"] = (n, "count")
    metrics["liealg.LieAlgebra.validate.triples"] = (first["triples"], "count")
    metrics["linalg.SparseSystem.pivot_yield"] = (
        first["pivots"] / first["rows"] if first["rows"] else 0.0, "ratio")
    metrics["linalg.SparseSystem.max_coeff_bits"] = (first["max_coeff_bits"], "bits")
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = (self_s(name), "s")
    metrics["cli.run_command.incl_s"] = (statistics.median(
        t["layers"].get("cli.run_command", {}).get("incl_ns", 0) / 1e9 for t in traced), "s")
    traced_wall = statistics.median(p["wall"] for p in passes if p["traced"])
    metrics["trace.overhead_frac"] = (traced_wall / statistics.median(plain) - 1.0, "ratio")

    total = sum(rec["self_ns"] for rec in first["layers"].values()) or 1
    lines = [f"traced passes {len(traced)}, untraced passes {len(plain)}; "
             f"self time by layer (first traced pass, share of all span time):"]
    ranked = sorted(first["layers"], key=lambda name: -first["layers"][name]["self_ns"])
    for name in ranked:
        rec = first["layers"][name]
        lines.append(f"  {100 * rec['self_ns'] / total:5.1f}%  {self_s(name):9.4f} s  "
                     f"{rec['calls']:8d} calls  {name}")
    top = ranked[0] if ranked else "none"
    holds = "holds" if top == DOMINANT[workload] else "DOES NOT HOLD"
    lines.append(f"chosen for {DOMINANT[workload]} to lead: {holds} (top layer {top})")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["catalog-analyze", "dense-analyze", "pipelines"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "lieq" / "cli.py").is_file():
        print(f"perfbench: no lieq source tree at {ROOT / 'src'}; "
              "run from the root of a lieq checkout", file=sys.stderr)
        return 2
    answers = json.loads((BENCH / "expected.json").read_text())
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    scratch = WORK / "runs" / tag
    shutil.rmtree(scratch, ignore_errors=True)
    (scratch / "spans").mkdir(parents=True)
    (scratch / "inputs").mkdir()

    probe_start = host_probe()
    runner = Runner(scratch)
    runner.setup_times(answers, 1)  # fills the bytecode caches
    setup = runner.setup_times(answers, SETUP_RUNS)
    cmds = build_commands(args.workload, args.seed, answers, scratch / "inputs")

    passes: list[dict] = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        passes.append(runner.run_pass(cmds, n, traced=False))
        if args.trace:
            passes.append(runner.run_pass(cmds, n + 1, traced=True))
        setup += runner.setup_times(answers, SETUP_RUNS)
        elapsed = time.perf_counter() - start
        step = elapsed / (len(passes) // (2 if args.trace else 1))
        if elapsed + step / 2 > args.seconds:  # stop at the iteration ending nearest the budget
            break
    probe_end = host_probe()

    if args.trace:
        metrics, lines = per_layer(args.workload, passes, runner.failures)
    else:
        metrics, lines = end_to_end(passes, setup, runner)
    env = environment()
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(passes)} in {time.perf_counter() - start:.1f} s  commands/pass {len(cmds)}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(f"host probe {probe_start:.4f} s at start, {probe_end:.4f} s at end (diagnostic only)")
    for line in lines:
        print(line)
    for problem in runner.failures[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    result = {
        "correct": not runner.failures,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  environment=env, host_probe_s=[probe_start, probe_end], setup_samples_s=setup,
                  commands=[c.key for c in cmds], failures=runner.failures,
                  passes=[{k: v for k, v in p.items() if k != "summaries"} for p in passes])
    (results_dir / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
