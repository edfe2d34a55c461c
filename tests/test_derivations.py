import importlib
import random
from pathlib import Path

import pytest

from lieq.constructions import (
    abelian,
    catalog,
    full_graph,
    graded_power,
    grading_derivation,
    heisenberg,
    nonabelian2,
)
from lieq.derivations import (
    DerHomomorphism,
    NonzeroCenterError,
    NotInnerError,
    centralizer_in_der,
    commutator_table,
    derivation_tower,
    derivations,
    diagonal_derivation_torus,
    f_s_subspace,
    inner_preimage,
    is_complete,
    is_derivation,
    verify_torus,
    z_s_subspace,
)
from lieq.fileio import parse_algebra
from lieq.liealg import DimensionCapError, LieAlgebra
from lieq.linalg import (
    Matrix,
    P,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    clear_denominators,
    nullspace,
    rank_bareiss,
)

# the module itself: the package re-exports the function under its name
DERIVATIONS_MODULE = importlib.import_module("lieq.derivations")

GOLDEN = Path(__file__).resolve().parent / "golden"

# The catalog algebras that the perfbench catalog-analyze and pipelines
# commands load, and the committed dense-rational inputs.
STRUCTURE_SOURCES = (
    "heisenberg:1",
    "heisenberg:2",
    "abelian:4",
    "nonabelian2",
    "graded-power:heisenberg:1:2",
    "graded-power:nonabelian2:2",
    "full-graph:heisenberg:1",
    "full-graph:nonabelian2",
    "full-graph:full-graph:nonabelian2",
    "h5_dense.json",
    "f2_nonabelian2_dense.json",
)


def load_structure_source(name):
    if name.endswith(".json"):
        return parse_algebra((GOLDEN / name).read_bytes())
    return catalog(name)


def dense_leibniz_matrix(g):
    """The whole dense Leibniz constraint matrix, one Fraction row per
    ordered basis pair (i, j) and coordinate k.  Assembled from scratch via
    g.bracket on unit vectors; shares nothing with the row assembly in
    lieq.derivations."""
    n = g.dim
    units = [g.basis_element(i) for i in range(n)]
    br = [[g.bracket(units[a], units[b]) for b in range(n)] for a in range(n)]
    rows = []
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = [ZERO] * (n * n)
                for l in range(n):
                    row[k * n + l] += br[i][j][l]
                    row[l * n + i] -= br[l][j][k]
                    row[l * n + j] -= br[i][l][k]
                rows.append(row)
    return Matrix(rows)


def brute_force_der_dim(g):
    """Oracle: dim Der(g) = n^2 - rank of the dense Leibniz constraint
    matrix, with rank taken by fraction-free Bareiss elimination; shares
    nothing with the sparse solver in lieq.derivations."""
    return g.dim ** 2 - rank_bareiss(dense_leibniz_matrix(g))


def sl2_plus_center():
    """sl2 + Q: a centre, and dim Der = 4 = dim g, one more than dim ad."""
    return LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


@pytest.fixture(scope="module")
def h3():
    return heisenberg(1)


@pytest.fixture(scope="module")
def ds_h3(h3):
    return derivations(h3)


@pytest.fixture(scope="module")
def fh3(h3, ds_h3):
    return full_graph(h3, ds_h3).whole


@pytest.fixture(scope="module")
def ds_fh3(fh3):
    return derivations(fh3)


class TestDerivations:
    def test_abelian_full_matrix_space(self):
        for n in (1, 2, 3):
            assert derivations(abelian(n)).dim == n * n

    def test_heisenberg1_dim_vs_oracle(self, h3, ds_h3):
        assert brute_force_der_dim(h3) == 6
        assert ds_h3.dim == 6

    def test_heisenberg2_dim_vs_oracle(self):
        g = heisenberg(2)
        assert brute_force_der_dim(g) == 15
        assert derivations(g).dim == 15

    def test_basis_passes_independent_verifier(self, ds_h3, ds_fh3):
        for ds in (ds_h3, ds_fh3):
            for m in ds.basis_mats:
                assert is_derivation(ds.base, m)

    def test_random_span_passes_verifier(self, ds_fh3):
        rng = random.Random(8)
        for _ in range(10):
            coeffs = [Q(rng.randint(-3, 3)) for _ in range(ds_fh3.dim)]
            assert is_derivation(ds_fh3.base, ds_fh3.from_coords(coeffs))

    def test_closure_under_commutator(self, ds_h3):
        for a in range(ds_h3.dim):
            for b in range(a + 1, ds_h3.dim):
                comm = ds_h3.basis_mats[a].commutator(ds_h3.basis_mats[b])
                assert ds_h3.coords_of(comm) is not None

    def test_algebra_matches_commutators(self, ds_h3):
        alg = ds_h3.algebra
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                coords = alg.bracket_basis(a, b)
                recon = ds_h3.from_coords(coords)
                assert recon == ds_h3.basis_mats[a].commutator(ds_h3.basis_mats[b])

    def test_from_coords_wrong_length(self, ds_h3):
        with pytest.raises(ValueError):
            ds_h3.from_coords([1])
        with pytest.raises(ValueError):
            ds_h3.from_coords([0] * (ds_h3.dim + 1))

    def test_inner_dimension(self, h3, ds_h3):
        assert ds_h3.inner.dim == h3.dim - h3.center().dim

    def test_canonical_basis_deterministic(self, h3, ds_h3):
        again = derivations(heisenberg(1))
        assert again.space == ds_h3.space
        assert again.basis_mats == ds_h3.basis_mats


class TestRankBound:
    """derivations() feeds no Leibniz row to the exact elimination when the
    rank mod P reaches n^2 - dim ad(g), and otherwise stops feeding rows
    when the exact rank reaches it."""

    @staticmethod
    def rows_fed(g, monkeypatch):
        fed = []

        class CountingSystem(SparseSystem):
            def add_row(self, row):
                fed.append(row)
                super().add_row(row)

        monkeypatch.setattr(DERIVATIONS_MODULE, "SparseSystem", CountingSystem)
        ds = derivations(g)
        return len(fed), ds

    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_space_is_nullspace_of_every_row(self, name):
        g = load_structure_source(name)
        ds = derivations(g)
        assert ds.space == nullspace(dense_leibniz_matrix(g))
        for m in ds.basis_mats:
            assert is_derivation(g, m)

    def test_bound_fires_on_complete_algebra(self, monkeypatch):
        for name in ("f2_nonabelian2_dense.json", "full-graph:full-graph:nonabelian2"):
            g = load_structure_source(name)
            n = g.dim
            fed, ds = self.rows_fed(g, monkeypatch)
            assert fed == 0
            assert ds.dim == ds.inner.dim == n
            # the per-ad coordinates the modular certificate skips
            ads = [ds.coords_of(g.ad_matrix(g.basis_element(i))) for i in range(n)]
            assert ds.inner == Subspace.from_vectors(ds.dim, ads)

    def test_unlucky_prime_takes_exact_path(self, monkeypatch):
        # nonabelian2 scaled by P: complete over Q, every Leibniz row is 0 mod P
        g = LieAlgebra(2, {(0, 1): {1: P}})
        fed, ds = self.rows_fed(g, monkeypatch)
        assert fed > 0
        assert ds.dim == ds.inner.dim == 2

    def test_exact_rank_audited_by_modular_rank(self, monkeypatch):
        # drops D[2][2] = D[0][0] + D[1][1], the one Leibniz row of h3 that
        # no other row repeats, so the exact rank falls to 2 of 3
        class DroppingSystem(SparseSystem):
            dropped = False

            def add_row(self, row):
                if len(row) > 1 and not DroppingSystem.dropped:
                    DroppingSystem.dropped = True
                    return
                super().add_row(row)

        monkeypatch.setattr(DERIVATIONS_MODULE, "SparseSystem", DroppingSystem)
        with pytest.raises(RuntimeError, match="below its rank mod P"):
            derivations(heisenberg(1))

    @pytest.mark.parametrize("make", [lambda: heisenberg(1), sl2_plus_center])
    def test_every_row_fed_with_center(self, make, monkeypatch):
        # with a centre, dim ad(g) < n; on sl2 + Q the full rank n^2 - n
        # is one short of the bound, so a bound of n^2 - n would stop early
        g = make()
        n = g.dim
        fed, ds = self.rows_fed(g, monkeypatch)
        assert g.center().dim > 0 and ds.dim >= n
        assert fed == n * n * (n - 1) // 2


class TestLeibnizRowOrder:
    """derivations() builds the Leibniz rows once, sorted by length with
    ties in (i, j, k) order, and both the modular pass and the exact loop
    read that one list."""

    @staticmethod
    def spy(monkeypatch):
        seen = {"built": 0, "mod_p": [], "exact": []}
        build = DERIVATIONS_MODULE._leibniz_rows
        rank = DERIVATIONS_MODULE.rank_mod_p

        def counting_build(g):
            seen["built"] += 1
            return build(g)

        def reading_rank(rows, stop):
            def feed():
                for row in rows:
                    seen["mod_p"].append(row)
                    yield row

            return rank(feed(), stop)

        class RecordingSystem(SparseSystem):
            def add_row(self, row):
                seen["exact"].append(row)
                super().add_row(row)

        monkeypatch.setattr(DERIVATIONS_MODULE, "_leibniz_rows", counting_build)
        monkeypatch.setattr(DERIVATIONS_MODULE, "rank_mod_p", reading_rank)
        monkeypatch.setattr(DERIVATIONS_MODULE, "SparseSystem", RecordingSystem)
        return seen

    def test_rows_built_once_when_both_passes_run(self, monkeypatch):
        seen = self.spy(monkeypatch)
        derivations(heisenberg(1))
        assert seen["mod_p"] and seen["exact"]
        assert seen["built"] == 1

    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_rows_read_sparsest_first(self, name, monkeypatch):
        g = load_structure_source(name)
        in_order = list(DERIVATIONS_MODULE._leibniz_rows(g))
        seen = self.spy(monkeypatch)
        derivations(g)
        for read in (seen["mod_p"], seen["exact"]):
            lengths = [len(row) for row in read]
            assert lengths == sorted(lengths)
            # a stable sort: rows of one length keep their (i, j, k) order
            assert read == sorted(in_order, key=len)[: len(read)]

    def test_modular_pass_reads_fewer_rows_on_dense_input(self, monkeypatch):
        # in (i, j, k) order the rank reached n^2 - dim ad(g) = 56 at row 145
        # of 224; sparsest first it does at row 106, and rank_mod_p draws
        # one more row to see that it is done
        seen = self.spy(monkeypatch)
        ds = derivations(load_structure_source("f2_nonabelian2_dense.json"))
        assert ds.dim == ds.inner.dim == 8
        assert len(seen["mod_p"]) == 107
        assert seen["exact"] == []


class TestDerDimCap:
    """Der(g) is refused above max(LIE_DIM_CAP, 64) once the Leibniz rank
    is known, before its basis or structure constants are built."""

    def test_refused_before_basis(self, monkeypatch):
        # Der(abelian(9)) = gl_9 has dimension 81
        def fail(*args):
            raise AssertionError("Der(g) was built")

        monkeypatch.setattr(SparseSystem, "nullspace_basis", fail)
        monkeypatch.setattr(DERIVATIONS_MODULE, "commutator_table", fail)
        with pytest.raises(DimensionCapError, match=r"Der\(g\): dimension 81 exceeds LIE_DIM_CAP 64"):
            derivations(abelian(9))

    def test_raised_cap_raises_the_bound(self, monkeypatch):
        monkeypatch.setenv("LIE_DIM_CAP", "81")
        assert derivations(abelian(9)).dim == 81

    def test_lower_cap_keeps_the_default_bound(self, monkeypatch):
        g, big = heisenberg(1), abelian(9)
        monkeypatch.setenv("LIE_DIM_CAP", "4")
        assert derivations(g).dim == 6
        with pytest.raises(DimensionCapError, match="dimension 81 exceeds LIE_DIM_CAP 64"):
            derivations(big)

    def test_tower_reports_the_refusal_as_budget_exceeded(self, monkeypatch):
        # with the floor at 0, Der(f(h3)) of dim 10 is refused by
        # derivations() itself at LIE_DIM_CAP=9
        monkeypatch.setattr(DERIVATIONS_MODULE, "DEFAULT_DIM_CAP", 0)
        monkeypatch.setenv("LIE_DIM_CAP", "9")
        rep = derivation_tower(full_graph(heisenberg(1)).whole)
        assert (rep.dims, rep.stabilized, rep.budget_exceeded) == ((9,), False, True)


class TestCommutatorTable:
    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_matches_dense_commutator_coords(self, name):
        # the table built the way the integer stage replaced: a dense
        # Fraction commutator per pair, then coordinates by reconstruction
        ds = derivations(load_structure_source(name))
        table = {}
        for a in range(ds.dim):
            for b in range(a + 1, ds.dim):
                comm = ds.basis_mats[a].commutator(ds.basis_mats[b])
                coords = ds.space.coords_of(comm.flatten())
                assert coords is not None
                table[(a, b)] = {k: c for k, c in enumerate(coords) if c}
        assert ds.algebra.sc == LieAlgebra(ds.dim, table, check=False).sc

    def test_not_closed_raises(self):
        # span{E01, E10} in gl2: [E01, E10] = E00 - E11 lies outside
        span = Subspace.from_vectors(4, [(0, 1, 0, 0), (0, 0, 1, 0)])
        with pytest.raises(RuntimeError, match="not closed under commutator"):
            commutator_table(span, 2)

    def test_closed_span_with_mixed_denominators(self):
        # the upper triangular matrices conjugated by P = [[2, 1], [1, 3]]:
        # a closed span whose RREF rows have the denominators 1, 2 and 1
        p = Matrix([[2, 1], [1, 3]])
        p_inv = Matrix([[Q(3, 5), Q(-1, 5)], [Q(-1, 5), Q(2, 5)]])
        upper = [Matrix([[1, 0], [0, 0]]), Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [0, 1]])]
        span = Subspace.from_vectors(4, [(p @ m @ p_inv).flatten() for m in upper])
        assert [clear_denominators(dict(enumerate(v)))[1] for v in span.vectors()] == [1, 2, 1]
        mats = [Matrix.unflatten(v, 2, 2) for v in span.vectors()]
        table = commutator_table(span, 2)
        assert set(table) == {(0, 1), (0, 2), (1, 2)}
        for (a, b), coords in table.items():
            recon = Matrix.zero(2, 2)
            for t, c in coords.items():
                recon = recon + mats[t].scale(c)
            assert recon == mats[a].commutator(mats[b])


class TestInnerPreimage:
    def test_zero(self, fh3, ds_fh3):
        z = Matrix.zero(fh3.dim, fh3.dim)
        assert inner_preimage(ds_fh3, z) == fh3.zero()

    def test_round_trip_basis(self):
        g = nonabelian2()
        ds = derivations(g)
        x = g.basis_element(0)
        assert inner_preimage(ds, g.ad_matrix(x)) == x

    def test_round_trip_random(self, fh3, ds_fh3):
        rng = random.Random(17)
        for _ in range(5):
            x = tuple(Q(rng.randint(-2, 2)) for _ in range(fh3.dim))
            assert inner_preimage(ds_fh3, fh3.ad_matrix(x)) == x

    def test_not_inner(self, fh3, ds_fh3):
        outer = next(
            m
            for k, m in enumerate(ds_fh3.basis_mats)
            if not ds_fh3.inner_flat.contains_vector(m.flatten())
        )
        with pytest.raises(NotInnerError):
            inner_preimage(ds_fh3, outer)

    def test_nonzero_center_rejected(self, h3, ds_h3):
        with pytest.raises(NonzeroCenterError):
            inner_preimage(ds_h3, Matrix.zero(3, 3))


class TestIsComplete:
    def test_abelian_central_witness(self):
        cert = is_complete(abelian(1))
        assert not cert.complete
        assert cert.witness[0] == "central"

    def test_nonabelian2_complete(self):
        cert = is_complete(nonabelian2())
        assert cert.complete
        assert cert.center_dim == 0 and cert.der_dim == cert.inner_dim == 2

    def test_heisenberg_not_complete(self, h3, ds_h3):
        cert = is_complete(h3, ds_h3)
        assert not cert.complete
        assert cert.witness[0] == "central"
        kind, v = cert.witness
        assert h3.ad_matrix(v).is_zero()

    def test_outer_witness_verified(self, fh3, ds_fh3):
        cert = is_complete(fh3, ds_fh3)
        assert not cert.complete
        kind, m = cert.witness
        assert kind == "outer"
        assert is_derivation(fh3, m)
        assert not ds_fh3.inner_flat.contains_vector(m.flatten())


class TestCentralizer:
    def test_empty_is_everything(self, ds_h3):
        assert centralizer_in_der(ds_h3, []) == Subspace.full(ds_h3.dim)

    def test_identity_central_in_gl(self):
        g = abelian(2)
        ds = derivations(g)
        ident = Matrix.identity(2)
        assert centralizer_in_der(ds, [ident]).dim == 4

    def test_grading_derivation_block_oracle(self):
        # On h3^+2 the centralizer of the grading derivation is the space of
        # degree-0 derivations: block-diagonal ones.  Independent count: solve
        # per-block by brute force on the block-diagonal ansatz.
        gp = graded_power(heisenberg(1), 2)
        g = gp.algebra
        ds = derivations(g)
        d = grading_derivation(gp)
        tau = centralizer_in_der(ds, [d])
        # every tau element commutes with d, i.e. preserves both slots
        for m in ds.subspace_mats(tau):
            assert m.commutator(d).is_zero()
        # block matrices inside Der that commute with d, counted directly
        blocky = [
            v
            for v in ds.space.vectors()
            if Matrix.unflatten(v, 6, 6).commutator(d).is_zero()
        ]
        assert tau.dim >= Subspace.from_vectors(36, blocky).dim

    def test_non_derivation_rejected(self, h3, ds_h3):
        bad = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            centralizer_in_der(ds_h3, [bad])


class TestFsAndZs:
    def test_phi_zero_gives_everything(self, h3, ds_h3):
        s = abelian(1)
        phi = DerHomomorphism.zero(s, h3)
        assert f_s_subspace(ds_h3, phi) == Subspace.full(ds_h3.dim)
        assert z_s_subspace(h3, phi) == h3.center()

    def test_identity_phi_on_complete_algebra(self):
        g = nonabelian2()
        ds = derivations(g)
        phi = DerHomomorphism.identity_on_der(ds)
        assert f_s_subspace(ds, phi) == ds.inner  # F = ad(g) when Der = ad

    def test_inner_always_inside_f(self, ds_fh3, fh3):
        phi = DerHomomorphism.identity_on_der(ds_fh3)
        f = f_s_subspace(ds_fh3, phi)
        assert f.contains(ds_fh3.inner)
        assert Subspace.full(ds_fh3.dim).contains(f)

    def test_target_with_other_structure_rejected(self):
        # diag(0, 0, 1) is a derivation of abelian(3) but not of h3, which
        # has the same dimension
        d = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        phi = DerHomomorphism(abelian(1), abelian(3), [d])
        with pytest.raises(ValueError, match="does not match"):
            f_s_subspace(derivations(heisenberg(1)), phi)

    def test_zs_killed_by_scaling_derivation(self, h3, ds_h3):
        # derivation with Dc = c (the one-dimensional 'b' part): kills Z_s
        d = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert is_derivation(h3, d)
        s = abelian(1)
        phi = DerHomomorphism(s, h3, [d])
        assert z_s_subspace(h3, phi).dim == 0

    def test_zs_kernel_intersection(self):
        g = abelian(2)
        phi = DerHomomorphism(abelian(1), g, [Matrix([[1, 0], [0, 0]])])
        zs = z_s_subspace(g, phi)
        assert zs == Subspace.from_vectors(2, [g.basis_element(1)])


class TestVerifyTorus:
    def test_empty_passes(self, h3):
        assert verify_torus(h3, []).ok

    def test_grading_derivation_passes(self):
        gp = graded_power(heisenberg(1), 2)
        rep = verify_torus(gp.algebra, [grading_derivation(gp)])
        assert rep.ok
        assert rep.eigenvalues == ((Q(1), Q(2)),)

    def test_nilpotent_derivation_fails(self, h3):
        ad_x1 = h3.ad_matrix(h3.basis_element(0))
        rep = verify_torus(h3, [ad_x1])
        assert not rep.ok
        assert any(name == "semisimple" for name, _ in rep.failures)

    def test_noncommuting_fails(self):
        g = abelian(2)
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        rep = verify_torus(g, [a, b])
        assert not rep.ok
        assert any(name == "commuting" for name, _ in rep.failures)

    def test_diagonal_torus(self, h3):
        mats = diagonal_derivation_torus(h3)
        assert len(mats) == 2
        assert verify_torus(h3, mats).ok


class TestDerivationTower:
    def test_complete_algebra_stabilizes_immediately(self):
        rep = derivation_tower(nonabelian2())
        assert rep.stabilized and rep.stable_index == 0
        assert rep.dims == (2,)

    def test_full_graph_heisenberg_stabilizes_at_one(self, fh3):
        rep = derivation_tower(fh3)
        assert rep.stabilized and rep.stable_index == 1
        assert rep.dims == (9, 10)

    def test_nonzero_center_rejected(self):
        with pytest.raises(NonzeroCenterError):
            derivation_tower(abelian(2))

    def test_budget_exceeded_marker(self, fh3):
        rep = derivation_tower(fh3, max_steps=0)
        assert not rep.stabilized and rep.budget_exceeded


class TestDerHomomorphism:
    def test_non_derivation_image_rejected(self, h3):
        bad = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        with pytest.raises(ValueError):
            DerHomomorphism(abelian(1), h3, [bad])

    def test_bracket_incompatibility_rejected(self):
        g = abelian(2)
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        # abelian source but non-commuting images
        with pytest.raises(ValueError):
            DerHomomorphism(abelian(2), g, [a, b])

    def test_apply_wrong_length(self, ds_h3):
        phi = DerHomomorphism.identity_on_der(ds_h3)
        with pytest.raises(ValueError):
            phi.apply([Q(1)])
        with pytest.raises(ValueError):
            phi.apply([Q(1)] * (ds_h3.dim + 1))

    def test_apply_linear(self, h3, ds_h3):
        phi = DerHomomorphism.identity_on_der(ds_h3)
        c = (Q(2), Q(-1)) + (ZERO,) * 4
        expect = ds_h3.basis_mats[0].scale(2) - ds_h3.basis_mats[1]
        assert phi.apply(c) == expect


class TestIdentityOnDer:
    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_validating_constructor_accepts(self, name):
        # identity_on_der skips validation because the law holds by
        # construction; the validating constructor audits that here
        ds = derivations(load_structure_source(name))
        checked = DerHomomorphism(ds.algebra, ds.base, ds.basis_mats)
        phi = DerHomomorphism.identity_on_der(ds)
        assert phi.source is checked.source
        assert phi.target is checked.target
        assert phi.images == checked.images


# Dense oracles for centralizer_in_der, f_s_subspace and [Der, Der]: every
# bracket of derivations is a Matrix.commutator in Q^(n^2), independent of
# the Der(g) structure constants that the library reads.


def dense_centralizer(ds, b_mats):
    """Nullspace of the flattened [D_k, B] rows."""
    rows = []
    for b in b_mats:
        cols = [m.commutator(b).flatten() for m in ds.basis_mats]
        rows += [row for row in zip(*cols) if any(row)]
    return nullspace(Matrix(rows)) if rows else Subspace.full(ds.dim)


def dense_f_s(ds, phi):
    """[D_k, phi(s)] tested against the complement of inner_flat in Q^(n^2)."""
    comp = ds.inner_flat.orthogonal_complement()
    rows = []
    for img in phi.images:
        cols = [m.commutator(img).flatten() for m in ds.basis_mats]
        for w in comp.vectors():
            row = [
                sum((a * b for a, b in zip(w, col) if a and b), ZERO) for col in cols
            ]
            if any(row):
                rows.append(row)
    return nullspace(Matrix(rows)) if rows else Subspace.full(ds.dim)


def dense_der_der(ds):
    """Span of the commutators of the Der basis matrices, in Q^(n^2)."""
    mats = ds.basis_mats
    flats = [
        mats[a].commutator(mats[b]).flatten()
        for a in range(len(mats))
        for b in range(a + 1, len(mats))
    ]
    return Subspace.from_vectors(ds.base.dim ** 2, flats)


def _graded_square_grading():
    gp = graded_power(heisenberg(1), 2)
    phi = DerHomomorphism(abelian(1), gp.algebra, [grading_derivation(gp)])
    return derivations(gp.algebra), phi


def _identity_on(g):
    ds = derivations(g)
    return ds, DerHomomorphism.identity_on_der(ds)


ORACLE_CASES = {
    "h3^(2), grading torus": _graded_square_grading,
    "f(h3), identity": lambda: _identity_on(full_graph(heisenberg(1)).whole),
    # its Der basis carries non-integer denominators
    "h5_dense.json, identity": lambda: _identity_on(load_structure_source("h5_dense.json")),
}


@pytest.fixture(scope="module", params=list(ORACLE_CASES))
def oracle_case(request):
    return ORACLE_CASES[request.param]()


class TestDenseOracles:
    def test_centralizer_matches_dense(self, oracle_case):
        ds, phi = oracle_case
        for gens in (phi.images, phi.images[:2], phi.images[1::2]):
            assert centralizer_in_der(ds, gens) == dense_centralizer(ds, gens)

    def test_f_s_matches_dense(self, oracle_case):
        ds, phi = oracle_case
        assert f_s_subspace(ds, phi) == dense_f_s(ds, phi)

    def test_der_der_matches_dense(self, oracle_case):
        ds, _ = oracle_case
        der_der = ds.algebra.derived_subalgebra()
        dense = dense_der_der(ds)
        flats = Subspace.from_vectors(
            ds.base.dim ** 2, [m.flatten() for m in ds.subspace_mats(der_der)]
        )
        assert flats == dense
        assert ds.inner.contains(der_der) == ds.inner_flat.contains(dense)
