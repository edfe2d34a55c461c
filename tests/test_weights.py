import importlib
import random

import pytest

from lieq.cli import run_command
from lieq.constructions import (
    abelian,
    full_graph,
    full_graph_iter,
    graded_power,
    grading_derivation,
    heisenberg,
    nonabelian2,
)
from lieq.derivations import (
    DerHomomorphism,
    derivations,
    diagonal_derivation_torus,
    f_s_subspace,
    inner_preimage,
)
from lieq.linalg import Matrix, Q, Subspace, ZERO, refine_eigenspaces
from lieq.weights import (
    DegeneratePairError,
    _lemma4_homomorphism_check,
    _lemma4_image,
    TorusError,
    is_nondegenerate_pair,
    lemma3_check,
    prop2_check,
    prop3_check,
    prop4_check,
    theorem1_pipeline,
    theorem2_check,
    theorem3_check,
    weight_decomposition,
)


@pytest.fixture(scope="module")
def gp2():
    return graded_power(heisenberg(1), 2)


class TestWeightDecomposition:
    def test_empty_torus(self):
        wd = weight_decomposition(heisenberg(1), [])
        assert len(wd.parts) == 1
        fun, sub = wd.parts[0]
        assert fun == ()
        assert sub == Subspace.full(3)
        assert wd.has_zero_weight()

    def test_grading_torus_two_parts(self, gp2):
        wd = weight_decomposition(gp2.algebra, [grading_derivation(gp2)])
        assert [fun for fun, _ in wd.parts] == [(Q(1),), (Q(2),)]
        assert [sub.dim for _, sub in wd.parts] == [3, 3]
        assert wd.total_dim() == 6

    def test_same_eigenvectors_two_generators(self, gp2):
        # second generator d*d - 2d has the same eigenspaces with shifted
        # eigenvalues (1 -> -1, 2 -> 0); it is not itself a derivation, so
        # the refinement is called directly, without torus verification
        d = grading_derivation(gp2)
        d2 = d @ d - d.scale(2)
        parts1 = refine_eigenspaces(gp2.algebra.dim, [d])
        parts2 = refine_eigenspaces(gp2.algebra.dim, [d, d2])
        assert [fun for fun, _ in parts2] == [(Q(1), Q(-1)), (Q(2), Q(0))]
        assert [sub for _, sub in parts1] == [sub for _, sub in parts2]
        assert weight_decomposition(gp2.algebra, [d]).parts == tuple(parts1)

    def test_eigenspaces_verified_directly(self, gp2):
        # re-verified by matrix application, independent of the refinement
        d = grading_derivation(gp2)
        wd = weight_decomposition(gp2.algebra, [d])
        for fun, sub in wd.parts:
            for v in sub.vectors():
                assert d.apply(v) == tuple(fun[0] * x for x in v)

    def test_nonderivation_torus_rejected(self, gp2):
        d = grading_derivation(gp2)
        bad = d @ d - d.scale(2)
        with pytest.raises(TorusError):
            weight_decomposition(gp2.algebra, [bad])

    def test_bracket_respects_weights(self):
        # [g_a, g_b] inside g_{a+b} (or zero when a+b is not a weight)
        g3 = heisenberg(1)
        cases = [
            (graded_power(g3, 3).algebra, None),
            (g3, diagonal_derivation_torus(g3)),
        ]
        gp3 = graded_power(g3, 3)
        cases[0] = (gp3.algebra, [grading_derivation(gp3)])
        for g, mats in cases:
            wd = weight_decomposition(g, mats)
            funs = {fun: sub for fun, sub in wd.parts}
            for fa, sa in wd.parts:
                for fb, sb in wd.parts:
                    target = tuple(a + b for a, b in zip(fa, fb))
                    prod = g.product_space(sa, sb)
                    if target in funs:
                        assert funs[target].contains(prod)
                    else:
                        assert prod.dim == 0


class TestNondegeneratePair:
    def test_empty_torus_degenerate(self):
        flag, _ = is_nondegenerate_pair(heisenberg(1), [])
        assert not flag

    def test_graded_power_nondegenerate(self, gp2):
        flag, wd = is_nondegenerate_pair(gp2.algebra, [grading_derivation(gp2)])
        assert flag
        assert not wd.has_zero_weight()

    def test_weight_zero_on_center(self):
        g = heisenberg(1)
        d = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        flag, wd = is_nondegenerate_pair(g, [d])
        assert not flag
        zero_part = next(sub for fun, sub in wd.parts if fun == (Q(0),))
        assert zero_part.contains_vector(g.basis_element(2))

    def test_h3_power2_nondegenerate(self):
        # Proposition-1 style instance on the graded square
        gp = graded_power(heisenberg(1), 2)
        flag, _ = is_nondegenerate_pair(gp.algebra, [grading_derivation(gp)])
        assert flag


class TestTheorem1:
    def test_grading_instance(self, gp2):
        rep = theorem1_pipeline(gp2.algebra, [grading_derivation(gp2)])
        assert rep.ok
        names = [c.name for c in rep.checks]
        assert "images_span_der_h1" in names and "h_complete" in names
        assert rep.dims["Der(h1)"] == rep.dims["tau"] + rep.dims["g"]

    def test_degenerate_rejected(self):
        with pytest.raises(DegeneratePairError):
            theorem1_pipeline(heisenberg(1), [])

    def test_maximal_torus_branch(self):
        # diagonal torus on h3 equals its own centralizer: h1 is certified
        g = heisenberg(1)
        rep = theorem1_pipeline(g, diagonal_derivation_torus(g))
        assert rep.ok
        assert any(c.name == "maximal_torus_h1_complete" for c in rep.checks)

    def test_maximal_torus_on_graded_square(self):
        g = graded_power(heisenberg(1), 2).algebra
        mats = diagonal_derivation_torus(g)
        assert len(mats) == 5
        rep = theorem1_pipeline(g, mats)
        assert rep.ok
        assert any(c.name == "maximal_torus_h1_complete" for c in rep.checks)

    def test_torus_verified_once(self, monkeypatch):
        # every binding of each function is counted, so a second call from
        # any module shows
        modules = [importlib.import_module(f"lieq.{m}") for m in ("linalg", "derivations", "weights")]
        calls = {}
        for name in ("verify_torus", "refine_eigenspaces"):
            original = getattr(modules[-1], name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            for mod in modules:
                if getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, counting)
        h3 = heisenberg(1)
        gp = graded_power(nonabelian2(), 2)
        for g, mats in ((h3, diagonal_derivation_torus(h3)), (gp.algebra, [grading_derivation(gp)])):
            calls.update(verify_torus=0, refine_eigenspaces=0)
            assert theorem1_pipeline(g, mats).ok
            assert calls == {"verify_torus": 1, "refine_eigenspaces": 1}

    def test_der_h1_solved_once(self, monkeypatch, capsys):
        # the dimension of the algebra of every derivations() call, through
        # every binding: g, h1, then h from is_complete(h); the maximal-torus
        # branch reuses Der(h1)
        original = derivations
        dims = []

        def recording(g):
            dims.append(g.dim)
            return original(g)

        for name in ("lieq", "lieq.derivations", "lieq.weights", "lieq.cli"):
            mod = importlib.import_module(name)
            if getattr(mod, "derivations", None) is original:
                monkeypatch.setattr(mod, "derivations", recording)
        argv = ["verify", "theorem1", "--g", "catalog:heisenberg:1", "--torus", "diagonal"]
        assert run_command(argv) == 0
        assert "maximal_torus_h1_complete" in capsys.readouterr().out
        assert dims == [3, 5, 5]


class TestLemma3:
    def test_faithful_identity_phi(self):
        g = heisenberg(1)
        ds = derivations(g)
        rep = lemma3_check(ds.algebra, g, DerHomomorphism.identity_on_der(ds))
        assert rep.ok

    def test_scaling_derivation_kills_center(self):
        g = heisenberg(1)
        d = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        s = abelian(1)
        rep = lemma3_check(s, g, DerHomomorphism(s, g, [d]))
        assert rep.ok
        assert rep.dims["center(h)"] == 0

    def test_hypothesis_gap_instance(self):
        # abelian s, phi = 0: central s vectors also centralize h, so the
        # literal statement fails; it must be reported, not crash
        s, g = abelian(1), heisenberg(1)
        rep = lemma3_check(s, g, DerHomomorphism.zero(s, g))
        assert not rep.ok
        assert rep.dims["center(h)"] == 2 and rep.dims["Z_s(g)"] == 1

    def test_zero_phi_trivial_center_source(self):
        s, g = nonabelian2(), abelian(2)
        rep = lemma3_check(s, g, DerHomomorphism.zero(s, g))
        assert rep.ok  # center of product = {0} + g = Z_s


class TestTheorem2:
    def test_complete_base(self):
        rep = theorem2_check(nonabelian2())
        assert rep.ok
        assert rep.dims["F(g)"] == 2  # F = ad(g), so f(g) is complete

    def test_nonzero_center_rejected(self):
        with pytest.raises(ValueError):
            theorem2_check(heisenberg(1))

    def test_full_graph_heisenberg(self):
        rep = theorem2_check(full_graph(heisenberg(1)).whole)
        assert rep.ok
        assert rep.dims["Der(f(g))"] == rep.dims["Der(g)"] + rep.dims["F(g)"]
        law = next(c for c in rep.checks if c.name == "homomorphism_law")
        assert law.passed


def dense_lemma4_image(dsg, s, d):
    """The dense formulation of the lemma-4 image, kept as an oracle: s and D
    are matrices, and their brackets with the Der(g) basis are
    Matrix.commutator calls."""
    g = dsg.base
    cols = []
    for s1 in dsg.basis_mats:
        top = dsg.coords_of(s.commutator(s1))
        bottom = inner_preimage(dsg, d.commutator(s1))
        cols.append(tuple(top) + tuple(bottom))
    sd = s + d
    for i in range(g.dim):
        cols.append((ZERO,) * dsg.dim + sd.apply(g.basis_element(i)))
    return Matrix.from_columns(cols)


class TestLemma4Oracle:
    @pytest.fixture(scope="class")
    def mixed(self):
        # theorem 2's setting on g = f(h3), with h-tilde elements (s, D)
        # whose parts are both nonzero, unlike the pipeline's basis
        dsg = derivations(full_graph(heisenberg(1)).whole)
        fsub = f_s_subspace(dsg, DerHomomorphism.identity_on_der(dsg))
        rng = random.Random(11)

        def combo(vecs):
            out = [ZERO] * dsg.dim
            for v in vecs:
                c = Q(rng.randint(-2, 2))
                out = [a + c * x for a, x in zip(out, v)]
            return tuple(out)

        units = [dsg.algebra.basis_element(j) for j in range(dsg.dim)]
        pairs = [(combo(units), combo(fsub.vectors())) for _ in range(4)]
        return dsg, pairs

    def test_image_matches_dense(self, mixed):
        dsg, pairs = mixed
        for s, d in pairs:
            dense = dense_lemma4_image(dsg, dsg.from_coords(s), dsg.from_coords(d))
            assert _lemma4_image(dsg, s, d) == dense

    def test_law_matches_dense(self, mixed):
        dsg, pairs = mixed
        images = [_lemma4_image(dsg, s, d) for s, d in pairs]
        assert _lemma4_homomorphism_check(dsg, pairs, images) == (True, "")
        mats = [(dsg.from_coords(s), dsg.from_coords(d)) for s, d in pairs]
        for a, (s1, d1) in enumerate(mats):
            for b in range(a + 1, len(mats)):
                s2, d2 = mats[b]
                db = s1.commutator(d2) - s2.commutator(d1) + d1.commutator(d2)
                expect = dense_lemma4_image(dsg, s1.commutator(s2), db)
                assert images[a].commutator(images[b]) == expect


class TestTheorem3AndProps:
    def test_theorem3_level1(self):
        rep = theorem3_check(1, 1)
        assert rep.ok
        assert rep.dims == {"f^1(g)": 9, "Der(f^1(g))": 10}

    @pytest.mark.parametrize("n", (1, 2))
    def test_der_der_matches_dense(self, n):
        # oracle: [Der, Der] as the span of the dense commutators in Q^(n^2)
        ds = derivations(full_graph_iter(heisenberg(1), n)[-1].whole)
        mats = ds.basis_mats
        dense = Subspace.from_vectors(
            ds.base.dim ** 2,
            [
                mats[a].commutator(mats[b]).flatten()
                for a in range(len(mats))
                for b in range(a + 1, len(mats))
            ],
        )
        rep = theorem3_check(1, n)
        check = next(c for c in rep.checks if c.name == f"f^{n}_der_der_inside_ad")
        assert check.passed == ds.inner_flat.contains(dense)
        assert check.detail == f"[Der,Der] dim {dense.dim}, ad dim {ds.inner_flat.dim}"

    def test_prop2_dims(self):
        for N, expected in ((1, 6), (2, 15)):
            rep = prop2_check(N)
            assert rep.ok
            assert rep.dims["Der(g)"] == expected

    def test_prop3(self):
        rep = prop3_check(1)
        assert rep.ok

    def test_prop4(self):
        rep = prop4_check(1)
        assert rep.ok
        assert rep.dims == {"f(g)": 9, "Der(f(g))": 10}

    def test_bad_args(self):
        with pytest.raises(ValueError):
            theorem3_check(0, 1)
