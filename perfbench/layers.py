"""Per-layer spans and counters for the ``lieq`` modules, installed from outside.

``Tracer.installed()`` wraps the public functions and methods named in
``SPANS`` and ``COUNTERS`` and restores the originals on exit; nothing in
``src/lieq`` changes.  A span records (name, start, end, parent span,
command id) and stays in memory until ``summary()`` folds the spans into
per-name call counts, self time and inclusive time.  Self time is a span's
duration minus the time its child spans cover.

Run as a script, this module is the traced stand-in for
``python -m lieq.cli``::

    python perfbench/layers.py SUMMARY.json COMMAND_ID -- analyze catalog:heisenberg:2

It prints exactly what ``lieq`` prints, exits with the same code and writes
the span summary to SUMMARY.json.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time

# (module, attribute path) of every function or method that gets a span.
SPANS = (
    ("liealg", "LieAlgebra.validate"),
    ("liealg", "LieAlgebra.center"),
    ("liealg", "LieAlgebra.ad_matrix"),
    ("liealg", "LieAlgebra.series"),
    ("liealg", "LieAlgebra.subalgebra_structure"),
    ("linalg", "SparseSystem.add_row"),
    ("linalg", "SparseSystem.nullspace_basis"),
    ("linalg", "rref"),
    ("linalg", "Matrix.commutator"),
    ("linalg", "Subspace.coords_of"),
    ("linalg", "minimal_polynomial"),
    ("derivations", "derivations"),
    ("derivations", "is_derivation"),
    ("derivations", "is_complete"),
    ("derivations", "inner_preimage"),
    ("derivations", "centralizer_in_der"),
    ("derivations", "f_s_subspace"),
    ("derivations", "verify_torus"),
    ("derivations", "derivation_tower"),
    ("constructions", "semidirect"),
    ("constructions", "full_graph"),
    ("constructions", "graded_power"),
    ("constructions", "catalog"),
    ("weights", "refine_eigenspaces"),
    ("weights", "theorem1_pipeline"),
    ("weights", "theorem2_check"),
    ("weights", "theorem3_check"),
    ("weights", "prop4_check"),
    ("fileio", "parse_algebra"),
    ("fileio", "dumps_report"),
    ("cli", "run_command"),
)

# Hot calls get a counter only, so their time stays in the caller's span
# (Jacobi time stays in ``validate``).
COUNTERS = (
    ("liealg", "LieAlgebra.bracket"),
    ("linalg", "Matrix.__init__"),
)

VALIDATE = "liealg.LieAlgebra.validate"
ADD_ROW = "linalg.SparseSystem.add_row"


def _resolve(module: str, path: str):
    """(owner, attribute name, original) for ``lieq.<module>.<path>``.

    Modules are resolved through importlib: ``lieq`` re-exports the function
    ``derivations`` under the name of its module, so attribute access on the
    package would return the function.
    """
    owner = importlib.import_module(f"lieq.{module}")
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    original = owner.__dict__[attr] if classes else getattr(owner, attr)
    return owner, attr, original


def _lieq_namespaces():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "lieq" or name.startswith("lieq."))]


class Tracer:
    """Spans, counters and elimination statistics of one process."""

    def __init__(self, command_id: str = ""):
        self.command_id = command_id
        self.spans: list = []
        self.stack: list[int] = []
        self.counts = {f"{m}.{p}": 0 for m, p in COUNTERS}
        self.triples = 0
        self.rows = 0
        self.pivots = 0
        self.max_coeff_bits = 0
        self._restore: list = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.command_id)

        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _validate_stats(self, fn):
        @functools.wraps(fn)
        def wrapper(alg, *args, **kwargs):
            n = alg.dim
            self.triples += n * (n - 1) * (n - 2) // 6
            return fn(alg, *args, **kwargs)

        return wrapper

    def _add_row_stats(self, fn):
        @functools.wraps(fn)
        def wrapper(system, *args, **kwargs):
            before = len(system.pivot_rows)
            out = fn(system, *args, **kwargs)
            self.rows += 1
            if len(system.pivot_rows) > before:
                self.pivots += 1
                row = next(reversed(system.pivot_rows.values()))
                bits = max(
                    max(v.numerator.bit_length(), v.denominator.bit_length())
                    for v in row.values()
                )
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
            return out

        return wrapper

    # -- install / remove --------------------------------------------------

    def _patch(self, module: str, path: str, make) -> None:
        owner, attr, original = _resolve(module, path)
        wrapper = make(original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self._restore.append((owner, attr, original))
            return
        # Rebind every alias made by ``from .x import f`` as well.
        for ns in _lieq_namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, name, wrapper)
                    self._restore.append((ns, name, original))

    def install(self) -> None:
        importlib.import_module("lieq.cli")  # loads every layer module
        for module, path in COUNTERS:
            name = f"{module}.{path}"
            self._patch(module, path, lambda fn, name=name: self._counter(name, fn))
        for module, path in SPANS:
            name = f"{module}.{path}"
            if name == VALIDATE:
                make = lambda fn, name=name: self._span(name, self._validate_stats(fn))
            elif name == ADD_ROW:
                make = lambda fn, name=name: self._span(name, self._add_row_stats(fn))
            else:
                make = lambda fn, name=name: self._span(name, fn)
            self._patch(module, path, make)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def patched(self) -> list[tuple[str, str]]:
        return [(getattr(o, "__name__", repr(o)), a) for o, a, _ in self._restore]

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls, self_ns and incl_ns, plus counters and statistics."""
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            _, start, end, parent, _ = span
            if parent >= 0:
                child_ns[parent] += end - start
        layers: dict[str, dict] = {}
        for sid, (name, start, end, _, _) in enumerate(self.spans):
            rec = layers.setdefault(name, {"calls": 0, "self_ns": 0, "incl_ns": 0})
            rec["calls"] += 1
            rec["incl_ns"] += end - start
            rec["self_ns"] += end - start - child_ns[sid]
        return {
            "command_id": self.command_id,
            "spans": len(self.spans),
            "layers": layers,
            "counts": dict(self.counts),
            "validate_triples": self.triples,
            "add_row_rows": self.rows,
            "add_row_pivots": self.pivots,
            "max_coeff_bits": self.max_coeff_bits,
        }


def main(argv: list[str]) -> int:
    out_path, command_id, sep, *lieq_argv = argv
    if sep != "--":
        raise SystemExit("usage: layers.py SUMMARY.json COMMAND_ID -- LIEQ_ARGS...")
    tracer = Tracer(command_id)
    try:
        with tracer.installed():
            return importlib.import_module("lieq.cli").run_command(lieq_argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(tracer.summary(), fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
