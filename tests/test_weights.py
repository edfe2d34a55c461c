import itertools
import json
import random
import re
from types import SimpleNamespace

import pytest

import lieq.cli
import lieq.constructions
import lieq.derivations
import lieq.linalg
import lieq.weights
from lieq.cli import run_command
from lieq.constructions import (
    abelian,
    full_graph,
    graded_power,
    grading_derivation,
    heisenberg,
    nonabelian2,
    semidirect,
)
from lieq.derivations import (
    derivations,
    diagonal_derivation_torus,
    f_s_subspace,
    inner_preimage,
    is_complete,
    is_derivation,
    verify_torus,
)
from lieq.linalg import (
    Matrix,
    ONE,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    combine,
    image_with_preimages,
    minimal_polynomial,
    rational_roots,
    refine_eigenspaces,
)
from lieq.weights import (
    DegeneratePairError,
    PipelineReport,
    _add_image_checks,
    _lemma2_form_check,
    _lemma4_homomorphism_check,
    _lemma4_image,
    _outer_witness_ok,
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

from oracles import (
    column,
    der_coords,
    der_mats,
    entries,
    entries_mat,
    mat_comb,
    mat_vec,
    rebased,
    sparse,
)


@pytest.fixture(scope="module")
def gp2():
    return graded_power(heisenberg(1), 2)


@pytest.fixture(scope="module")
def grading():
    """The grading derivation of gp2, by its sparse entries."""
    return grading_derivation(heisenberg(1), 2)


class TestWeightDecomposition:
    def test_empty_torus(self):
        parts = weight_decomposition(heisenberg(1), [])
        assert len(parts) == 1
        fun, sub = parts[0]
        assert fun == ()
        assert sub == Subspace.full(3)
        assert any(not any(fun) for fun, _ in parts)

    def test_grading_torus_two_parts(self, gp2, grading):
        parts = weight_decomposition(gp2, [grading])
        assert [fun for fun, _ in parts] == [(Q(1),), (Q(2),)]
        assert [sub.dim for _, sub in parts] == [3, 3]
        assert sum(sub.dim for _, sub in parts) == 6

    def test_same_eigenvectors_two_generators(self, gp2, grading):
        # second generator d*d - 2d has the same eigenspaces with shifted
        # eigenvalues (1 -> -1, 2 -> 0); it is not itself a derivation, so
        # the refinement is called directly, without torus verification,
        # with the spectra verify_torus computes
        d = entries_mat(grading, gp2.dim)
        d2 = mat_comb((1, d @ d), (-2, d))
        spec, spec2 = (rational_roots(minimal_polynomial(m)) for m in (d, d2))
        parts1 = refine_eigenspaces(gp2.dim, [d], [spec])
        parts2 = refine_eigenspaces(gp2.dim, [d, d2], [spec, spec2])
        assert [fun for fun, _ in parts2] == [(Q(1), Q(-1)), (Q(2), Q(0))]
        assert [sub for _, sub in parts1] == [sub for _, sub in parts2]
        assert weight_decomposition(gp2, [grading]) == tuple(parts1)

    def test_eigenspaces_verified_directly(self, gp2, grading):
        # re-verified by matrix application, independent of the refinement
        d = entries_mat(grading, gp2.dim)
        for fun, sub in weight_decomposition(gp2, [grading]):
            for v in sub.vectors():
                assert mat_vec(d, v) == tuple(fun[0] * x for x in v)

    def test_nonderivation_torus_rejected(self, gp2, grading):
        d = entries_mat(grading, gp2.dim)
        bad = mat_comb((1, d @ d), (-2, d))
        with pytest.raises(TorusError):
            weight_decomposition(gp2, [entries(bad)])

    def test_bracket_respects_weights(self):
        # [g_a, g_b] inside g_{a+b} (or zero when a+b is not a weight)
        g3 = heisenberg(1)
        cases = [
            (graded_power(g3, 3), [grading_derivation(g3, 3)]),
            (g3, diagonal_derivation_torus(g3)),
        ]
        for g, torus in cases:
            parts = weight_decomposition(g, torus)
            funs = {fun: sub for fun, sub in parts}
            for fa, sa in parts:
                for fb, sb in parts:
                    target = tuple(a + b for a, b in zip(fa, fb))
                    prod = g.product_space(sa, sb)
                    if target in funs:
                        assert funs[target].contains(prod)
                    else:
                        assert prod.dim == 0


def unipotent(n):
    """The integer unipotent P = I + (superdiagonal of ones) and its inverse."""
    p = Matrix([[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])
    pinv = Matrix([[(-1) ** (j - i) if j >= i else 0 for j in range(n)] for i in range(n)])
    return p, pinv


def conjugated(torus, p, pinv):
    """The entries of P^-1 D P for each generator D of torus, given by its
    entries."""
    return [entries(pinv @ entries_mat(d, p.rows) @ p) for d in torus]


def rebased_diagonal_torus(g):
    """g in the basis of the columns of unipotent(g.dim), with its diagonal
    torus D conjugated to P^-1 D P, by their entries."""
    p, pinv = unipotent(g.dim)
    return rebased(g, p, pinv), conjugated(diagonal_derivation_torus(g), p, pinv)


class TestRebasedTorus:
    # h3^(3) in the basis of the columns of the integer unipotent
    # P = I + (superdiagonal of ones), with its diagonal torus D conjugated
    # to P^-1 D P: several generators whose weight spaces are mostly not
    # coordinate subspaces
    @pytest.fixture(scope="class")
    def pair(self):
        g = graded_power(heisenberg(1), 3)
        n = g.dim
        p, pinv = unipotent(n)
        assert p @ pinv == Matrix.identity(n)
        torus = diagonal_derivation_torus(g)
        return g, torus, rebased(g, p, pinv), conjugated(torus, p, pinv), pinv

    def test_weight_spaces_map_under_p_inverse(self, pair):
        g, torus, h, conj, pinv = pair
        rep, rep2 = verify_torus(g, torus), verify_torus(h, conj)
        assert rep.ok and rep2.ok
        assert len(conj) == 6 and len(rep2.parts) == 9
        coordinate = [all(sum(1 for x in v if x) == 1 for v in sub.vectors()) for _, sub in rep2.parts]
        assert coordinate.count(False) == 8
        assert [fun for fun, _ in rep.parts] == [fun for fun, _ in rep2.parts]
        assert [sub.dim for _, sub in rep.parts] == [sub.dim for _, sub in rep2.parts]
        for (_, sub), (_, sub2) in zip(rep.parts, rep2.parts):
            assert Subspace.from_vectors(g.dim, [mat_vec(pinv, v) for v in sub.vectors()]) == sub2

    def test_theorem1_agrees(self, pair):
        g, torus, h, conj, _ = pair
        rep, rep2 = theorem1_pipeline(g, torus), theorem1_pipeline(h, conj)
        assert rep.ok and rep2.ok
        assert rep.dims == rep2.dims
        assert [c.name for c in rep.checks] == [c.name for c in rep2.checks]


def dense_refine_eigenspaces(n, mats, spectra):
    """The per-part kernel-lift refinement that refine_eigenspaces replaced,
    kept as an oracle: a part with basis V splits, for each lam, into the
    lift of the kernel of the matrix with columns (b - lam) v."""
    parts = [((), Subspace.full(n))]
    for b, spectrum in zip(mats, spectra, strict=True):
        new_parts = []
        for fun, sub in parts:
            vecs = sub.vectors()
            images = [mat_vec(b, v) for v in vecs]
            for lam in spectrum:
                shifted = Matrix.from_columns(
                    [[x - lam * y for x, y in zip(bv, v)] for bv, v in zip(images, vecs)]
                )
                kernel = SparseSystem(len(vecs), map(sparse, shifted.data)).kernel()
                lifted = [
                    [sum((c * v[k] for c, v in zip(coeffs, vecs)), ZERO) for k in range(n)]
                    for coeffs in kernel.vectors()
                ]
                if lifted:
                    new_parts.append((fun + (lam,), Subspace.from_vectors(n, lifted)))
        parts = new_parts
    return sorted(parts, key=lambda p: p[0])


def _rebased_h3_cube_torus():
    g = graded_power(heisenberg(1), 3)
    return g.dim, rebased_diagonal_torus(g)[1]


# (n, torus), each generator by its entries
REFINE_CASES = {
    "h3^(2) grading": lambda: (6, [grading_derivation(heisenberg(1), 2)]),
    "h5 diagonal": lambda: (5, diagonal_derivation_torus(heisenberg(2))),
    "h3^(3) diagonal": lambda: (
        9, diagonal_derivation_torus(graded_power(heisenberg(1), 3))
    ),
    "h3^(3) diagonal, rebased": _rebased_h3_cube_torus,
    # one generator twice, and the zero matrix as the one generator
    "repeated generator": lambda: (5, diagonal_derivation_torus(heisenberg(2))[:1] * 2),
    "zero generator": lambda: (2, [{}]),
}


@pytest.mark.parametrize("name", list(REFINE_CASES))
def test_refine_eigenspaces_matches_kernel_lift(name):
    n, torus = REFINE_CASES[name]()
    mats = [entries_mat(d, n) for d in torus]
    spectra = [rational_roots(minimal_polynomial(b)) for b in mats]
    parts = refine_eigenspaces(n, mats, spectra)
    assert parts == dense_refine_eigenspaces(n, mats, spectra)
    assert sum(sub.dim for _, sub in parts) == n


class TestNondegeneratePair:
    def test_empty_torus_degenerate(self):
        flag, _ = is_nondegenerate_pair(heisenberg(1), [])
        assert not flag

    def test_graded_power_nondegenerate(self, gp2, grading):
        flag, parts = is_nondegenerate_pair(gp2, [grading])
        assert flag
        assert all(any(fun) for fun, _ in parts)

    def test_weight_zero_on_center(self):
        g = heisenberg(1)
        d = Matrix([[1, 0, 0], [0, -1, 0], [0, 0, 0]])
        flag, parts = is_nondegenerate_pair(g, [entries(d)])
        assert not flag
        zero_part = next(sub for fun, sub in parts if fun == (Q(0),))
        assert zero_part.contains_vector(g.basis_element(2))

    def test_h3_power2_nondegenerate(self):
        # Proposition-1 style instance on the graded square
        gp = graded_power(heisenberg(1), 2)
        flag, _ = is_nondegenerate_pair(gp, [grading_derivation(heisenberg(1), 2)])
        assert flag


class TestTheorem1:
    def test_grading_instance(self, gp2, grading):
        rep = theorem1_pipeline(gp2, [grading])
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
        g = graded_power(heisenberg(1), 2)
        torus = diagonal_derivation_torus(g)
        assert len(torus) == 5
        rep = theorem1_pipeline(g, torus)
        assert rep.ok
        assert any(c.name == "maximal_torus_h1_complete" for c in rep.checks)

    def test_torus_verified_once(self, monkeypatch):
        # every binding of each function is counted, so a second call from
        # any module shows
        modules = [lieq.linalg, lieq.derivations, lieq.weights]
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
        for g, torus in ((h3, diagonal_derivation_torus(h3)), (gp, [grading_derivation(nonabelian2(), 2)])):
            calls.update(verify_torus=0, refine_eigenspaces=0)
            assert theorem1_pipeline(g, torus).ok
            assert calls == {"verify_torus": 1, "refine_eigenspaces": 1}

    def test_der_h1_solved_once(self, monkeypatch, capsys):
        # the dimension of the algebra of every derivations() call, through
        # every binding: g, h1, then h for is_complete(derivations(h)); the
        # maximal-torus branch reuses Der(h1)
        original = derivations
        dims = []

        def recording(g):
            dims.append(g.dim)
            return original(g)

        for mod in (lieq.derivations, lieq.constructions, lieq.weights, lieq.cli):
            monkeypatch.setattr(mod, "derivations", recording)
        argv = ["verify", "theorem1", "--g", "catalog:heisenberg:1", "--torus", "diagonal"]
        assert run_command(argv) == 0
        assert "maximal_torus_h1_complete" in capsys.readouterr().out
        assert dims == [3, 5, 5]


def weight_part_lemma2_check(dh1, p, parts):
    """The weight-part formulation that _lemma2_form_check replaced, kept as
    an oracle: the g-part of D b_j is written in the concatenated bases of
    the weight spaces g_alpha, and on each g_alpha the block of generator j
    must be alpha(b_j) x_alpha for one x_alpha.  The torus slot of
    h1 = b x g is its first p coordinates."""
    n = dh1.base.dim - p
    # the rows (v_k, e_k) tag part row k by e_k, and to_parts[i] holds the
    # coordinates of e_i in the part bases
    part_rows = [row for _, sub in parts for row in sub.rows.values()]
    tagged = [row | {n + k: ONE} for k, row in enumerate(part_rows)]
    _, to_parts, _ = image_with_preimages(n, 2 * n, tagged)
    offsets, off = [], 0
    for _, sub in parts:
        offsets.append((off, off + sub.dim))
        off += sub.dim
    for d in der_mats(dh1):
        gcomps = [combine(column(d, j)[p:], to_parts, n) for j in range(p)]
        for (fun, _), (lo, hi) in zip(parts, offsets):
            blocks = [tuple(gc[lo:hi]) for gc in gcomps]
            j0 = next((j for j, a in enumerate(fun) if a != 0), None)
            if j0 is None:
                if any(any(blk) for blk in blocks):
                    return False
                continue
            x_alpha = tuple(v / fun[j0] for v in blocks[j0])
            if any(blk != tuple(fun[j] * v for v in x_alpha) for j, blk in enumerate(blocks)):
                return False
    return True


# (g, torus, p); on the rebased h3 the generators are not symmetric matrices,
# so their rows and columns differ
LEMMA2_CASES = {
    "h3 diagonal": lambda: (heisenberg(1), diagonal_derivation_torus(heisenberg(1)), 2),
    "h5 diagonal": lambda: (heisenberg(2), diagonal_derivation_torus(heisenberg(2)), 3),
    "h3 diagonal, rebased": lambda: (*rebased_diagonal_torus(heisenberg(1)), 2),
}


def lemma2_setting(g, torus):
    h1 = semidirect(abelian(len(torus)), g, torus)
    return derivations(h1), weight_decomposition(g, torus)


def perturbed(dh1, p, rng):
    """dh1 with one to three entries of the g-parts of the torus columns of
    its basis matrices moved by small integers."""
    mats = [list(map(list, d.data)) for d in der_mats(dh1)]
    for _ in range(rng.randint(1, 3)):
        d = rng.choice(mats)
        d[rng.randrange(p, len(d))][rng.randrange(p)] += rng.choice((-2, -1, 1, 2))
    rows = {k: entries(Matrix(d)) for k, d in enumerate(mats)}
    return SimpleNamespace(base=dh1.base, space=SimpleNamespace(rows=rows))


class TestLemma2Form:
    @pytest.mark.parametrize("name", list(LEMMA2_CASES))
    def test_matches_weight_part_oracle(self, name):
        g, torus, p = LEMMA2_CASES[name]()
        assert len(torus) == p
        dh1, parts = lemma2_setting(g, torus)
        assert _lemma2_form_check(dh1, torus) == (True, "")
        assert weight_part_lemma2_check(dh1, p, parts)
        rng = random.Random(19)
        verdicts = []
        for _ in range(300):
            bent = perturbed(dh1, p, rng)
            ok, detail = _lemma2_form_check(bent, torus)
            assert ok == weight_part_lemma2_check(bent, p, parts)
            assert ok or re.fullmatch(
                r"derivation \d+: the torus slot breaks the alpha\(b\) x_alpha form", detail
            )
            verdicts.append(ok)
        assert True in verdicts and False in verdicts

    def test_one_generator_never_rejects(self, gp2, grading):
        # with no zero weight the one generator b is invertible on g, so
        # every g-part is b X for some X
        torus = [grading]
        dh1, parts = lemma2_setting(gp2, torus)
        rng = random.Random(23)
        for _ in range(20):
            bent = perturbed(dh1, 1, rng)
            assert _lemma2_form_check(bent, torus) == (True, "")
            assert weight_part_lemma2_check(bent, 1, parts)


class TestLemma3:
    def test_faithful_identity_phi(self):
        g = heisenberg(1)
        ds = derivations(g)
        rep = lemma3_check(ds.algebra, g, ds.space.rows.values())
        assert rep.ok

    def test_scaling_derivation_kills_center(self):
        g = heisenberg(1)
        d = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        s = abelian(1)
        rep = lemma3_check(s, g, [entries(d)])
        assert rep.ok
        assert rep.dims["center(h)"] == 0

    def test_hypothesis_gap_instance(self):
        # abelian s, phi = 0: central s vectors also centralize h, so the
        # literal statement fails; it must be reported, not crash
        s, g = abelian(1), heisenberg(1)
        rep = lemma3_check(s, g, [{}])
        assert not rep.ok
        assert rep.dims["center(h)"] == 2 and rep.dims["Z_s(g)"] == 1

    def test_zero_phi_trivial_center_source(self):
        s, g = nonabelian2(), abelian(2)
        rep = lemma3_check(s, g, [{}] * 2)
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
        rep = theorem2_check(full_graph(heisenberg(1)))
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
    for s1 in der_mats(dsg):
        top = der_coords(dsg, s.commutator(s1))
        bottom = inner_preimage(dsg, der_coords(dsg, d.commutator(s1)))
        cols.append(tuple(top) + tuple(bottom))
    sd = mat_comb((1, s), (1, d))
    for i in range(g.dim):
        cols.append((ZERO,) * dsg.dim + mat_vec(sd, g.basis_element(i)))
    return Matrix.from_columns(cols)


def lemma4_image(fg, dsg, s, d):
    """D_{(s, D)} = ad_f(g)(s, 0) plus the part that Lemma 4 adds for D."""
    return mat_comb((1, fg.ad_matrix(tuple(s) + dsg.base.zero())), (1, _lemma4_image(dsg, d)))


def dense_bracket_image(dsg, pair1, pair2):
    """The dense image of the bracket of two h-tilde elements."""
    n = dsg.base.dim
    (s1, d1), (s2, d2) = [
        (entries_mat(dsg.from_coords(s), n), entries_mat(dsg.from_coords(d), n))
        for s, d in (pair1, pair2)
    ]
    db = mat_comb((1, s1.commutator(d2)), (-1, s2.commutator(d1)), (1, d1.commutator(d2)))
    return dense_lemma4_image(dsg, s1.commutator(s2), db)


def theorem2_setting(g):
    dsg = derivations(g)
    fsub = f_s_subspace(dsg, dsg.space.rows.values())
    return dsg, fsub, full_graph(g, dsg)


def pipeline_basis(dsg, fsub, fg):
    """theorem2_check's h-tilde basis, the Der(g) units and then F(g)'s
    basis, with its images."""
    zero = dsg.algebra.zero()
    basis = [(dsg.algebra.basis_element(j), zero) for j in range(dsg.dim)]
    basis += [(zero, v) for v in fsub.vectors()]
    return basis, [lemma4_image(fg, dsg, s, d) for s, d in basis]


class TestLemma4Oracle:
    @pytest.fixture(scope="class")
    def mixed(self):
        # theorem 2's setting on g = f(h3), with h-tilde elements (s, D)
        # whose parts are both nonzero, unlike the pipeline's basis
        dsg, fsub, fg = theorem2_setting(full_graph(heisenberg(1)))
        rng = random.Random(11)

        def combo(vecs):
            out = [ZERO] * dsg.dim
            for v in vecs:
                c = Q(rng.randint(-2, 2))
                out = [a + c * x for a, x in zip(out, v)]
            return tuple(out)

        units = [dsg.algebra.basis_element(j) for j in range(dsg.dim)]
        pairs = [(combo(units), combo(fsub.vectors())) for _ in range(4)]
        return dsg, fsub, fg, pairs

    @pytest.fixture(
        scope="class", params=[nonabelian2, lambda: heisenberg(1)], ids=["f(nonabelian2)", "f(h3)"]
    )
    def pipeline(self, request):
        # theorem 2's setting on g = f(nonabelian2) and f(h3), on the
        # pipeline's basis
        dsg, fsub, fg = theorem2_setting(full_graph(request.param()))
        return (dsg, fsub, *pipeline_basis(dsg, fsub, fg))

    def test_image_matches_dense(self, mixed):
        dsg, _, fg, pairs = mixed
        for s, d in pairs:
            s_mat, d_mat = (entries_mat(dsg.from_coords(v), dsg.base.dim) for v in (s, d))
            dense = dense_lemma4_image(dsg, s_mat, d_mat)
            assert lemma4_image(fg, dsg, s, d) == dense

    def test_law_matches_dense(self, mixed):
        dsg, fsub, fg, pairs = mixed
        images = [lemma4_image(fg, dsg, s, d) for s, d in pairs]
        for a in range(len(pairs)):
            for b in range(a + 1, len(pairs)):
                expect = dense_bracket_image(dsg, pairs[a], pairs[b])
                assert images[a].commutator(images[b]) == expect
        # the linear check, on the basis it is written for
        basis, basis_images = pipeline_basis(dsg, fsub, fg)
        flats = [entries(m) for m in basis_images]
        assert _lemma4_homomorphism_check(dsg, fsub, basis, basis_images, flats) == (True, "")

    @pytest.mark.parametrize("k", (0, 1))
    def test_scaled_image_breaks_law(self, pipeline, k):
        # doubling image k breaks the law; the pair the check names holds k
        # here, so it breaks the law by the dense oracle as well
        dsg, fsub, basis, images = pipeline
        scaled = list(images)
        scaled[k] = mat_comb((2, images[k]))
        flats = [entries(m) for m in scaled]
        ok, detail = _lemma4_homomorphism_check(dsg, fsub, basis, scaled, flats)
        assert not ok
        match = re.fullmatch(r"law fails on basis pair \((\d+), (\d+)\)", detail)
        a, b = int(match[1]), int(match[2])
        expect = dense_bracket_image(dsg, basis[a], basis[b])
        assert images[a].commutator(images[b]) == expect
        assert scaled[a].commutator(scaled[b]) != expect


class TestTheorem3AndProps:
    def test_theorem3_level1(self):
        rep = theorem3_check(1, 1)
        assert rep.ok
        assert rep.dims == {"f^1(g)": 9, "Der(f^1(g))": 10}

    @pytest.mark.parametrize("n", (1, 2))
    def test_der_der_matches_dense(self, n):
        # oracle: [Der, Der] as the span of the dense commutators in Q^(n^2)
        fn = heisenberg(1)
        for _ in range(n):
            fn = full_graph(fn)
        ds = derivations(fn)
        mats = der_mats(ds)
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


def rejecting(k):
    """An is_derivation that rejects its call number k (from 0) and defers
    every other call to the real check."""
    calls = itertools.count()
    return lambda g, m: next(calls) != k and is_derivation(g, m)


def failed_checks(monkeypatch, capsys, argv, rejector):
    """{name: detail} of the failed checks of `lieq verify ...`, which must
    exit 2, run with lieq.weights.is_derivation replaced by rejector."""
    monkeypatch.setattr(lieq.weights, "is_derivation", rejector)
    assert run_command(["verify", *argv]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"] is False
    return {c["name"]: c["detail"] for c in doc["checks"] if not c["pass"]}


class TestFailingChecks:
    """The failing branches of the image and outer-witness checks, which no
    golden replay reaches: every replayed pipeline passes."""

    @pytest.mark.parametrize(
        "argv",
        (
            ["theorem1", "--g", "catalog:heisenberg:1", "--torus", "diagonal"],
            ["theorem2", "--g", "catalog:nonabelian2"],
        ),
        ids=("theorem1", "theorem2"),
    )
    def test_rejected_image_fails_images_are_derivations(self, argv, monkeypatch, capsys):
        failed = failed_checks(monkeypatch, capsys, argv, rejecting(1))
        assert failed == {"images_are_derivations": "image 1 fails the Leibniz identity"}

    @pytest.mark.parametrize(
        "argv, name",
        (
            (["theorem3", "--N", "1", "--n", "1"], "f^1_outer_witness_verified"),
            (["prop3", "--N", "1"], "outer_witness_verified"),
        ),
        ids=("theorem3", "prop3"),
    )
    def test_rejected_witness_fails_outer_witness_verified(self, argv, name, monkeypatch, capsys):
        # the witness is the one is_derivation call of these pipelines
        assert failed_checks(monkeypatch, capsys, argv, rejecting(0)) == {name: ""}


class TestPlantedFailures:
    """Failures that no pipeline input produces, planted in the check
    helpers: an inner "outer witness", and images whose span has the
    dimension of Der but is not Der."""

    def test_inner_witness_is_rejected(self):
        fg = full_graph(heisenberg(1))
        ds = derivations(fg)
        cert = is_complete(ds)
        assert _outer_witness_ok(fg, ds, cert)
        # ad(e0) passes the Leibniz check, but it is inner
        inner = entries(fg.ad_matrix(fg.basis_element(0)))
        assert is_derivation(fg, inner) and inner
        assert not _outer_witness_ok(fg, ds, cert._replace(witness=("outer", inner)))

    def test_swapped_image_fails_span(self):
        g = heisenberg(1)
        ds = derivations(g)
        images = list(ds.space.rows.values())
        report = PipelineReport("planted")
        _add_image_checks(report, g, ds, images, "g", "Der(g)")
        assert report.ok
        # a matrix unit outside Der(g): images 1.. and it still span dim Der(g)
        units = ({3 * r + c: Q(1)} for r, c in itertools.product(range(3), repeat=2))
        images[0] = next(m for m in units if not is_derivation(g, m))
        report = PipelineReport("planted")
        span = _add_image_checks(report, g, ds, images, "g", "Der(g)")
        assert span.dim == ds.dim
        assert [(c.name, c.passed, c.detail) for c in report.checks] == [
            ("images_are_derivations", False, "image 0 fails the Leibniz identity"),
            ("images_span_der_g", False, f"span dim {ds.dim}, Der(g) dim {ds.dim}"),
        ]
