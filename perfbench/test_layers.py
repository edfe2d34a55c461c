"""The layer wrappers reach every named layer and leave nothing behind.

    PYTHONPATH=src python -m pytest -q perfbench/test_layers.py
"""

import sys
from pathlib import Path

import layers

BENCH = Path(__file__).resolve().parent

SMOKE = [
    ["analyze", str(BENCH / "algebras" / "f2_nonabelian2.json")],
    ["verify", "theorem2", "--g", "catalog:full-graph:nonabelian2"],
    ["verify", "theorem1", "--g", "catalog:heisenberg:1", "--torus", "diagonal"],
    ["verify", "theorem1", "--g", "catalog:nonabelian2", "--graded-power", "2", "--torus", "grading"],
    ["verify", "theorem3", "--N", "1", "--n", "1"],
    ["verify", "prop4", "--N", "1"],
    ["tower", "catalog:full-graph:nonabelian2"],
]


def _lieq_bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if mod is not None and (name == "lieq" or name.startswith("lieq."))
        for attr, value in vars(mod).items()
    }


def test_every_layer_is_reached_and_unwrapped(capsys):
    import lieq.cli  # noqa: F401  (load every layer before taking the snapshot)

    before = _lieq_bindings()
    originals = {
        (m, p): layers._resolve(m, p)[2] for m, p in layers.SPANS + layers.COUNTERS
    }
    tracer = layers.Tracer("smoke")
    with tracer.installed():
        assert tracer.patched(), "nothing was wrapped"
        # ``lieq`` re-exports the function ``derivations`` under its module's
        # name; the alias in the package namespace must be wrapped too.
        assert sys.modules["lieq"].derivations is not originals[("derivations", "derivations")]
        run = sys.modules["lieq.cli"].run_command
        for argv in SMOKE:
            assert run(argv) == 0, argv
    capsys.readouterr()

    summary = tracer.summary()
    for module, path in layers.SPANS:
        name = f"{module}.{path}"
        assert summary["layers"].get(name, {}).get("calls", 0) > 0, name
    for name, n in summary["counts"].items():
        assert n > 0, name
    assert summary["validate_triples"] > 0
    assert 0 < summary["add_row_pivots"] <= summary["add_row_rows"]
    assert summary["max_coeff_bits"] > 0

    assert not tracer.patched()
    assert _lieq_bindings() == before
    for (module, path), original in originals.items():
        assert layers._resolve(module, path)[2] is original, (module, path)


def test_self_time_excludes_child_spans():
    tracer = layers.Tracer("t")
    tracer.spans = [
        ("outer", 0, 100, -1, "t"),
        ("inner", 10, 40, 0, "t"),
        ("inner", 50, 60, 0, "t"),
    ]
    got = tracer.summary()["layers"]
    assert got["outer"] == {"calls": 1, "self_ns": 60, "incl_ns": 100}
    assert got["inner"] == {"calls": 2, "self_ns": 40, "incl_ns": 40}
