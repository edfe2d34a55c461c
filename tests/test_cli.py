import json
import subprocess
import sys
import time

import pytest

import lieq.derivations as DERIVATIONS
import lieq.linalg as LINALG
import lieq.weights as WEIGHTS
from lieq.cli import run_command
from lieq.constructions import catalog, full_graph, heisenberg
from lieq.derivations import diagonal_derivation_torus
from lieq.fileio import AlgebraFileError, parse_algebra, serialize_algebra
from lieq.linalg import Q, SparseSystem, Subspace
from lieq.weights import theorem1_pipeline


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
        assert g.bracket(g.basis_element(0), g.basis_element(1)) == g.basis_element(2)

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
        # 'p' or 'p/q' in ASCII digits only: not decimal notation, other
        # scripts' digits (full-width 1, Arabic-Indic 3) or whitespace
        for value in ("0.5", "\uff11", "\u0663", "1/\u0663", "1\n", " 1", "1 ", "1_0"):
            doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [[0, value]]}]}
            with pytest.raises(AlgebraFileError):
                parse_algebra(json.dumps(doc))

    def test_not_json(self):
        with pytest.raises(AlgebraFileError):
            parse_algebra(b"not json")

    @staticmethod
    def bracket_value(value):
        doc = {"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [[1, value]]}]}
        return parse_algebra(json.dumps(doc)).sc[0][1][1]

    @pytest.mark.parametrize(
        "value, digits",
        [
            ("1" * 5000, 5000),
            ("-" + "7" * 4301, 4301),
            ("3/" + "1" * 4301, 4301),
            ("+" + "0" * 4302, 4302),
        ],
        ids=["p", "signed p", "q", "leading zeros"],
    )
    def test_rational_over_digit_bound(self, value, digits):
        # refused by its digit count, whole message shorter than the digits
        match = f"^a rational string has {digits} digits in p or q, over 4300$"
        with pytest.raises(AlgebraFileError, match=match):
            self.bracket_value(value)

    def test_rational_at_digit_bound_is_read(self):
        p, q = "9" * 4300, "7" * 4300
        assert self.bracket_value(f"{p}/{q}") == Q(int(p), int(q))

    @pytest.mark.parametrize(
        "value",
        ["1" * 5000 + "x", "1/0" + "1" * 5000, "1" * 5000 + "/"],
        ids=["letter", "q with a leading zero", "empty q"],
    )
    def test_malformed_long_rational_keeps_its_message(self, value):
        with pytest.raises(AlgebraFileError) as e:
            self.bracket_value(value)
        assert str(e.value) == f"bad rational string {value!r}"


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
            # a count is ASCII decimal digits only
            ["analyze", "catalog:heisenberg:1_0"],
            ["analyze", "catalog:abelian:+2"],
            ["analyze", "catalog:abelian:\uff12"],
            ["analyze", "catalog:graded-power:nonabelian2:+2"],
        ):
            proc = run_cli(*argv)
            assert proc.returncode == 1, argv
            assert "error" in proc.stderr
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("count", ("1_0", "+2", "-1", "\uff12", " 2", "2 ", ""))
    def test_catalog_count_is_ascii_decimal(self, count, capsys):
        assert run_command(["construct", f"catalog:abelian:{count}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: catalog:abelian:{count}: bad catalog count {count!r}\n"

    @pytest.mark.parametrize("name", ("abelian:{}", "graded-power:nonabelian2:{}"))
    def test_catalog_count_over_digit_bound_is_one(self, name, capsys):
        # int() would refuse it with an interpreter limit; the count is
        # refused first, by its digit count, and the error echoes 40
        # characters of the source, then an ellipsis
        src = "catalog:" + name.format("1" + "0" * 4300)
        assert run_command(["construct", src]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {src[:40]}…: catalog count has 4301 digits, over 4300\n"
        assert "Exceeds the limit" not in captured.err

    @pytest.mark.parametrize("torus", ("diagonal", "grading"))
    def test_graded_power_zero_is_one(self, torus, capsys):
        # 0 is a value, not an absent --graded-power: graded_power refuses it
        argv = ["verify", "theorem1", "--g", "catalog:heisenberg:1", "--graded-power", "0"]
        assert run_command([*argv, "--torus", torus]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"

    @pytest.mark.parametrize("pick", ((0, 1, 0), (0, 1, None)), ids=("repeated", "sum"))
    def test_dependent_torus_generators_raise(self, pick):
        # None stands for t0 + t1: a torus of dimension 2 with 3 generators
        h3 = heisenberg(1)
        t0, t1 = diagonal_derivation_torus(h3)
        total = {k: t0.get(k, 0) + t1.get(k, 0) for k in t0.keys() | t1.keys()}
        torus = [total if k is None else (t0, t1)[k] for k in pick]
        with pytest.raises(ValueError, match="^the torus generators are linearly dependent$"):
            theorem1_pipeline(h3, torus)

    def test_dependent_torus_generators_is_one(self, capsys):
        # the grading derivation of the zero algebra is zero: one generator
        # that spans no torus of dimension 1
        argv = ["verify", "theorem1", "--g", "catalog:abelian:0", "--graded-power", "2"]
        assert run_command([*argv, "--torus", "grading"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: the torus generators are linearly dependent\n"

    def test_negative_max_steps_is_one(self, capsys):
        # refused by argparse, as a count with a sign
        argv = ["tower", "catalog:full-graph:heisenberg:1", "--max-steps", "-1"]
        assert run_command(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith("error: argument --max-steps: bad count '-1'\n")

    INTEGER_OPTIONS = {
        "--N": ["verify", "prop2"],
        "--n": ["verify", "theorem3"],
        "--graded-power": ["verify", "theorem1", "--g", "catalog:nonabelian2"],
        "--s-dim": ["verify", "lemma3", "--g", "catalog:heisenberg:1"],
        "--max-steps": ["tower", "catalog:full-graph:heisenberg:1"],
    }

    @pytest.mark.parametrize("option", INTEGER_OPTIONS)
    @pytest.mark.parametrize("value", ("1_0", "+1", " 1", "١", "１"))
    def test_integer_option_is_ascii_decimal(self, option, value, capsys):
        # int() reads each of these as 10 or 1; a catalog count refuses them
        assert run_command([*self.INTEGER_OPTIONS[option], option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: bad count {value!r}\n")

    @pytest.mark.parametrize("option", INTEGER_OPTIONS)
    def test_integer_option_over_digit_bound(self, option, capsys):
        value = "1" * 5000
        assert run_command([*self.INTEGER_OPTIONS[option], option, value]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(f"error: argument {option}: count has 5000 digits, over 4300\n")
        assert len(captured.err.encode()) < 1024

    def test_integer_option_at_digit_bound_is_read(self, capsys):
        # nonabelian2 is complete, so the tower stops at step 0
        argv = ["tower", "catalog:nonabelian2", "--max-steps", "1" + "0" * 4299]
        assert run_command(argv) == 0
        assert json.loads(capsys.readouterr().out)["stable_index"] == 0

    def test_long_catalog_names_are_clipped(self, capsys):
        # 40 characters of a refused value are echoed, then an ellipsis
        for src, tail in (
            ("catalog:abelian:" + "x" * 5000, "bad catalog count 'xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx…'"),
            ("catalog:" + "y" * 5000, "unknown catalog name 'yyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyyy…'"),
        ):
            assert run_command(["construct", src]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith(f"error: {src[:40]}…: {tail}")
            assert len(captured.err.encode()) < 1024

    @pytest.mark.parametrize("theorem", ("theorem1", "theorem2", "lemma3"))
    def test_verify_without_source_is_one(self, theorem):
        proc = run_cli("verify", theorem)
        assert proc.returncode == 1
        assert "an algebra source is required" in proc.stderr
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
            '{"dim": 2, "brackets": [{"i": 0, "j": 1, "value": [[0, "\\uff11"]]}]}',
            '{"dim": 2, "labels": [1, null]}',
            b'\xff\xfe{"dim": 0}',  # not UTF-8
        ):
            with pytest.raises(AlgebraFileError):
                parse_algebra(doc)
            p.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
            proc = run_cli("analyze", str(p))
            assert proc.returncode == 1, doc
            assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "doc",
        [
            '{"dim": %s}',
            '{"dim": 3, "brackets": [{"i": %s, "j": 1, "value": []}]}',
            '{"dim": 3, "brackets": [{"i": 0, "j": %s, "value": []}]}',
        ],
        ids=["dim", "i", "j"],
    )
    def test_integer_over_digit_bound_is_one(self, doc, tmp_path, capsys):
        # the JSON decoder's int() refuses it with an interpreter limit,
        # reported as a malformed file that names its path
        p = tmp_path / "huge.json"
        p.write_text(doc % ("7" * 5000))
        with pytest.raises(AlgebraFileError, match="^an integer has too many digits$"):
            parse_algebra(p.read_text())
        assert run_command(["analyze", str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: an integer has too many digits\n"

    @pytest.mark.parametrize(
        "doc",
        [
            "[" * 100000,
            '{"dim": 2, "brackets": [{"i": 0, "j": 1, "value": '
            + "[" * 100000 + "]" * 100000 + "}]}",
        ],
        ids=["top-level", "bracket-value"],
    )
    @pytest.mark.parametrize(
        "argv",
        [["analyze"], ["construct"], ["verify", "theorem2", "--g"]],
        ids=lambda argv: argv[0],
    )
    def test_deeply_nested_file_is_one(self, doc, argv, tmp_path, capsys):
        # the JSON decoder recurses once per bracket; the loader reports
        # the recursion limit as a malformed file, not a traceback
        p = tmp_path / "deep.json"
        p.write_text(doc)
        with pytest.raises(AlgebraFileError, match="nested too deeply"):
            parse_algebra(doc)
        assert run_command([*argv, str(p)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {p}: not valid JSON: nested too deeply\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "catalog:heisenberg:1"],
            ["construct", "catalog:heisenberg:1"],
            ["tower", "catalog:nonabelian2"],
            ["verify", "prop2", "--N", "1"],
        ],
        ids=lambda argv: argv[0],
    )
    def test_unwritable_out_is_one(self, tmp_path, argv):
        out = tmp_path / "missing" / "report"
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 1
        assert f"error: cannot write {out}" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestInternalChecks:
    """A breached internal invariant is a failed check, not an input error:
    exit 2, one "internal check failed" line on stderr and no traceback.
    Each site is reached through run_command with a planted fault."""

    THEOREM1 = ["verify", "theorem1", "--g", "catalog:heisenberg:1", "--torus", "diagonal"]

    @staticmethod
    def assert_internal_failure(argv, msg, capsys):
        assert run_command(argv) == 2
        out, err = capsys.readouterr()
        assert err == f"internal check failed: {msg}\n"
        assert out == ""
        assert "Traceback" not in err

    def test_exact_rank_below_modular_rank(self, monkeypatch, capsys):
        # drops the one Leibniz row of h3 that no other row repeats
        class DroppingSystem(SparseSystem):
            dropped = False

            def add_row(self, row):
                if len(row) > 1 and not DroppingSystem.dropped:
                    DroppingSystem.dropped = True
                    return
                super().add_row(row)

        monkeypatch.setattr(DERIVATIONS, "SparseSystem", DroppingSystem)
        self.assert_internal_failure(
            ["analyze", "catalog:heisenberg:1"], "Leibniz rank over Q below its rank mod P", capsys
        )

    def test_inner_derivation_outside_der(self, monkeypatch, capsys):
        class EmptyKernel(SparseSystem):
            def kernel(self):
                return Subspace(self.ncols, {})

        monkeypatch.setattr(DERIVATIONS, "SparseSystem", EmptyKernel)
        self.assert_internal_failure(
            ["analyze", "catalog:heisenberg:1"], "inner derivation outside computed Der(g)", capsys
        )

    def test_der_not_closed_under_commutator(self, monkeypatch, capsys):
        # D_a D_b + D_b D_a in place of the commutator
        mul_into = DERIVATIONS._mul_into
        monkeypatch.setattr(
            DERIVATIONS, "_mul_into", lambda acc, a, b, n, sign: mul_into(acc, a, b, n, 1)
        )
        self.assert_internal_failure(
            ["analyze", "catalog:heisenberg:1"], "Der(g) not closed under commutator", capsys
        )

    def test_minimal_polynomial_above_dimension(self, monkeypatch, capsys):
        class EveryPowerNew(SparseSystem):
            fed = 0
            rank = property(lambda self: self.fed)  # as if every power were new

            def add_row(self, row):
                self.fed += 1
                super().add_row(row)

        monkeypatch.setattr(LINALG, "SparseSystem", EveryPowerNew)
        self.assert_internal_failure(
            self.THEOREM1, "minimal polynomial search exceeded dimension", capsys
        )

    def test_torus_generator_outside_der(self, monkeypatch, capsys):
        # theorem 1's Der(g) finds no coordinates for any derivation
        class Outside(Subspace):
            def coords_of_row(self, row):
                return None

        derivations = WEIGHTS.derivations

        def losing(g):
            ds = derivations(g)
            return ds._replace(space=Outside(ds.space.ambient_dim, ds.space.rows))

        monkeypatch.setattr(WEIGHTS, "derivations", losing)
        self.assert_internal_failure(
            self.THEOREM1, "derivation outside computed Der(g)", capsys
        )


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
        assert "LIE_DIM_CAP must be a non-negative integer" in capsys.readouterr().err

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

        def counting_init(self, ncols, rows):
            created.append(ncols)
            init(self, ncols, rows)

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
        capsys.readouterr()
        # the cap is ASCII decimal digits and nothing else
        malformed = ("abc", "1_0", "\u0666\u0664", "+64", " 5", "5 ", "-1", "")
        for cap, message in (
            ("1", "dimension 2 exceeds LIE_DIM_CAP 1"),
            *((c, f"LIE_DIM_CAP must be a non-negative integer, not {c!r}") for c in malformed),
            # past int()'s digit limit, refused by its digit count
            ("7" * 5000, "LIE_DIM_CAP has 5000 digits, over 4300"),
            ("0" * 4300 + "5", "LIE_DIM_CAP has 4301 digits, over 4300"),
            # a malformed cap is echoed to 40 characters
            ("z" * 5000, f"LIE_DIM_CAP must be a non-negative integer, not '{'z' * 40}…'\n"),
        ):
            monkeypatch.setenv("LIE_DIM_CAP", cap)
            assert run_command(["analyze", "catalog:nonabelian2"]) == 1
            out, err = capsys.readouterr()
            assert out == ""
            assert message in err
            assert "Exceeds the limit" not in err
        # 4300 digits are read
        monkeypatch.setenv("LIE_DIM_CAP", "1" + "0" * 4299)
        assert run_command(["analyze", "catalog:nonabelian2"]) == 0

    def test_analyze_refuses_der_over_cap(self, monkeypatch, capsys):
        # abelian:24 is within the cap, but its Der = gl_24 has dimension
        # 576: refused once the Leibniz rank is known, before Der(g) is built
        def fail(*args):
            raise AssertionError("Der(g) was built")

        monkeypatch.setattr(SparseSystem, "nullspace_basis", fail)
        monkeypatch.setattr(DERIVATIONS, "commutator_table", fail)
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
