import importlib
import json
import subprocess
import sys
import time

import pytest

from lieq.cli import run_command
from lieq.constructions import catalog, full_graph, heisenberg
from lieq.fileio import AlgebraFileError, parse_algebra, serialize_algebra
from lieq.linalg import SparseSystem


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "lieq.cli", *args],
        capture_output=True,
        text=True,
        check=False,
    )


class TestFileFormat:
    def test_round_trip(self):
        for name in ("heisenberg:2", "nonabelian2", "full-graph:heisenberg:1"):
            g = catalog(name)
            back = parse_algebra(serialize_algebra(g))
            assert back.dim == g.dim
            assert back.labels == g.labels
            assert back.sc == g.sc

    def test_empty_brackets_is_abelian(self):
        g = parse_algebra('{"dim": 4, "brackets": []}')
        assert g.dim == 4 and g.sc == [{}] * 4

    def test_heisenberg_file(self):
        text = json.dumps(
            {
                "dim": 3,
                "labels": ["x1", "y1", "c"],
                "brackets": [{"i": 0, "j": 1, "value": [[2, "1"]]}],
            }
        )
        g = parse_algebra(text)
        assert g.bracket_basis(0, 1) == g.basis_element(2)

    def test_jacobi_violation_rejected(self):
        text = json.dumps(
            {
                "dim": 3,
                "brackets": [
                    {"i": 0, "j": 1, "value": [[2, "1"]]},
                    {"i": 0, "j": 2, "value": [[0, "1"]]},
                ],
            }
        )
        with pytest.raises(AlgebraFileError, match=r"\(0, 1, 2\)"):
            parse_algebra(text)

    def test_index_out_of_range(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra('{"dim": 2, "brackets": [{"i": 0, "j": 5, "value": []}]}')

    def test_bad_rational(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra(
                '{"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [[0, "0.5"]]}]}'
            )

    def test_not_json(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra(b"not json")


class TestExitCodes:
    def test_verify_pass_is_zero(self):
        proc = run_cli("verify", "prop4", "--N", "1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["ok"] is True

    def test_check_failure_is_two(self):
        # the documented lemma-3 hypothesis gap: failure report, exit 2
        proc = run_cli("verify", "lemma3", "--g", "catalog:heisenberg:1", "--phi", "zero")
        assert proc.returncode == 2
        payload = json.loads(proc.stdout)
        assert payload["ok"] is False

    def test_usage_error_is_one(self):
        for argv in (
            ["analyze", "catalog:not-a-thing"],
            ["analyze", "catalog:heisenberg:0"],
            ["construct", "catalog:abelian:-1"],
            ["tower", "catalog:graded-power:nonabelian2:0"],
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 1, argv
            assert "error" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_malformed_file_is_one(self, tmp_path):
        p = tmp_path / "bad.json"
        for doc in (
            '{"dim": "x"}',
            '{"dim": 2, "brackets": 7}',
            '{"dim": 2, "brackets": [{"i": 0, "j": 1, "value": 5}]}',
            '{"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [[1, "1"], [1, "2"]]}]}',
            '{"dim": true, "brackets": []}',
            '{"dim": 2, "brackets": [{"i": false, "j": 1, "value": []}]}',
            '{"dim": 2, "brackets": [{"i": 0, "j": true, "value": []}]}',
            '{"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [[true, "1"]]}]}',
            '{"dim": 2, "labels": [1, null]}',
        ):
            with pytest.raises(AlgebraFileError):
                parse_algebra(doc)
            p.write_text(doc)
            proc = run_cli("analyze", str(p))
            assert proc.returncode == 1, doc
            assert "Traceback" not in proc.stderr


class TestCommands:
    def test_catalog_list(self):
        proc = run_cli("catalog", "list")
        assert proc.returncode == 0
        assert "heisenberg:<N>" in proc.stdout

    def test_analyze_abelian(self):
        proc = run_cli("analyze", "catalog:abelian:2")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["complete"] is False
        assert payload["witness_kind"] == "central"
        assert payload["der_dim"] == 4

    def test_verify_theorem3(self):
        proc = run_cli("verify", "theorem3", "--N", "1", "--n", "1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["dims"] == {"f^1(g)": 9, "Der(f^1(g))": 10}

    def test_verify_theorem1_grading(self):
        proc = run_cli(
            "verify",
            "theorem1",
            "--g",
            "catalog:heisenberg:1",
            "--graded-power",
            "2",
            "--torus",
            "grading",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["ok"] is True

    def test_construct_and_analyze_file(self, tmp_path):
        out = tmp_path / "h5.json"
        proc = run_cli("construct", "catalog:heisenberg:2", "--out", str(out))
        assert proc.returncode == 0
        proc = run_cli("analyze", str(out))
        payload = json.loads(proc.stdout)
        assert payload["dim"] == 5 and payload["der_dim"] == 15

    def test_tower(self):
        proc = run_cli("tower", "catalog:full-graph:heisenberg:1")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["dims"] == [9, 10] and payload["stabilized"] is True

    def test_tower_honours_dim_cap(self, monkeypatch, capsys):
        # Der(f(h3)) has dim 10 > 9; test_tower covers the default cap
        monkeypatch.setenv("LIE_DIM_CAP", "9")
        assert run_command(["tower", "catalog:full-graph:heisenberg:1"]) == 2
        payload = json.loads(capsys.readouterr().out)
        assert payload["dims"] == [9] and payload["budget_exceeded"] is True

    def test_tower_rejects_malformed_dim_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("LIE_DIM_CAP", "abc")
        assert run_command(["tower", "catalog:nonabelian2"]) == 1
        assert "LIE_DIM_CAP must be an integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "catalog:abelian:100000"],
            ["analyze", "catalog:heisenberg:100000"],
            ["analyze", "catalog:graded-power:nonabelian2:100000"],
            ["analyze", "catalog:full-graph:abelian:100000"],
            ["analyze", "big.json"],
            ["verify", "prop2", "--N", "100000"],
            ["verify", "prop4", "--N", "100000"],
            ["verify", "theorem3", "--N", "100000"],
            ["verify", "theorem1", "--g", "catalog:nonabelian2", "--graded-power", "100000",
             "--torus", "grading"],
            ["verify", "lemma3", "--g", "catalog:nonabelian2", "--s-dim", "100000"],
        ],
        ids=lambda argv: " ".join(argv[1:]),
    )
    def test_analyze_refuses_dimension_over_cap(self, argv, tmp_path, monkeypatch, capsys):
        # refused by the constructor or loader before the algebra is built:
        # no elimination is started
        monkeypatch.chdir(tmp_path)
        (tmp_path / "big.json").write_text('{"dim": 100000, "brackets": []}')
        created = []
        init = SparseSystem.__init__

        def counting_init(self, ncols):
            created.append(ncols)
            init(self, ncols)

        monkeypatch.setattr(SparseSystem, "__init__", counting_init)
        start = time.perf_counter()
        assert run_command(argv) == 1
        assert time.perf_counter() - start < 0.5
        assert created == []
        out, err = capsys.readouterr()
        assert out == ""
        assert "exceeds LIE_DIM_CAP 64" in err

    def test_analyze_honours_dim_cap(self, monkeypatch, capsys):
        monkeypatch.setenv("LIE_DIM_CAP", "4")
        assert run_command(["analyze", "catalog:heisenberg:2"]) == 1
        assert "dimension 5 exceeds LIE_DIM_CAP 4" in capsys.readouterr().err
        assert run_command(["analyze", "catalog:heisenberg:1"]) == 0

    def test_analyze_refuses_der_over_cap(self, monkeypatch, capsys):
        # abelian:24 is within the cap, but its Der = gl_24 has dimension
        # 576: refused once the Leibniz rank is known, before Der(g) is built
        def fail(*args):
            raise AssertionError("Der(g) was built")

        monkeypatch.setattr(SparseSystem, "nullspace_basis", fail)
        monkeypatch.setattr(importlib.import_module("lieq.derivations"), "commutator_table", fail)
        start = time.perf_counter()
        assert run_command(["analyze", "catalog:abelian:24"]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == ""
        assert "dimension 576 exceeds LIE_DIM_CAP 64" in err

    def test_verify_prop2_refuses_der_over_cap(self, capsys):
        # g = h11 is within the cap, but Der(h11) has dimension 66
        assert run_command(["verify", "prop2", "--N", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "Der(g): dimension 66 exceeds LIE_DIM_CAP 64" in err

    def test_verify_theorem3_honours_dim_cap(self, monkeypatch, capsys):
        # f^3(h3) = Der(f^2(h3)) 20 + f^2(h3) 19 is refused by the full graph
        monkeypatch.setenv("LIE_DIM_CAP", "20")
        assert run_command(["verify", "theorem3", "--N", "1", "--n", "3"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert "dimension 39 exceeds LIE_DIM_CAP 20" in err

    def test_reports_byte_identical(self):
        a = run_cli("verify", "prop2", "--N", "1")
        b = run_cli("verify", "prop2", "--N", "1")
        assert a.stdout == b.stdout
        assert a.stdout.encode() == b.stdout.encode()

    def test_out_writes_report(self, tmp_path):
        out = tmp_path / "report.json"
        proc = run_cli("verify", "prop3", "--N", "1", "--out", str(out))
        assert proc.returncode == 0
        assert out.read_text() == proc.stdout
