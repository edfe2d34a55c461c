import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieq.derivations as DERIVATIONS_MODULE
from lieq.cli import run_command
from lieq.constructions import (
    abelian,
    catalog,
    full_graph,
    graded_power,
    grading_derivation,
    heisenberg,
    nonabelian2,
    semidirect,
)
from lieq.derivations import (
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
from lieq.liealg import DimensionCapError, InvalidStructureError, LieAlgebra
from lieq.linalg import (
    Matrix,
    P,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    clear_denominators,
    q_str,
    rank_bareiss,
)

from oracles import (
    STRUCTURE_SOURCES,
    bumped,
    dense_is_derivation,
    der_coords,
    der_mats,
    entries,
    entries_mat,
    identity,
    load_structure_source,
    mat_comb,
    mat_mul,
    sl2_plus_center,
    sparse,
    zeros,
)


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


def dense_leibniz_kernel(g):
    """Der(g) as the kernel of the dense Leibniz constraint matrix."""
    return SparseSystem(g.dim ** 2, map(sparse, dense_leibniz_matrix(g).data)).kernel()


def brute_force_der_dim(g):
    """Oracle: dim Der(g) = n^2 - rank of the dense Leibniz constraint
    matrix, with rank taken by fraction-free Bareiss elimination; shares
    nothing with the sparse solver in lieq.derivations."""
    return g.dim ** 2 - rank_bareiss(dense_leibniz_matrix(g))


@pytest.fixture(scope="module")
def h3():
    return heisenberg(1)


@pytest.fixture(scope="module")
def ds_h3(h3):
    return derivations(h3)


@pytest.fixture(scope="module")
def fh3(h3, ds_h3):
    return full_graph(ds_h3)


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
            for d in ds.space.rows.values():
                assert is_derivation(ds.base, d)

    def test_random_span_passes_verifier(self, ds_fh3):
        rng = random.Random(8)
        for _ in range(10):
            coeffs = [Q(rng.randint(-3, 3)) for _ in range(ds_fh3.dim)]
            assert is_derivation(ds_fh3.base, ds_fh3.from_coords(coeffs))

    def test_closure_under_commutator(self, ds_h3):
        mats = der_mats(ds_h3)
        for a in range(ds_h3.dim):
            for b in range(a + 1, ds_h3.dim):
                comm = mats[a].commutator(mats[b])
                assert der_coords(ds_h3, comm) is not None

    def test_algebra_matches_commutators(self, ds_h3):
        alg, mats = ds_h3.algebra, der_mats(ds_h3)
        for a in range(alg.dim):
            for b in range(a + 1, alg.dim):
                coords = alg.bracket(alg.basis_element(a), alg.basis_element(b))
                recon = entries_mat(ds_h3.from_coords(coords), 3)
                assert recon == mats[a].commutator(mats[b])

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
        assert der_mats(again) == der_mats(ds_h3)


def theorem1_torus(name, torus):
    g = catalog(name)
    if torus == "diagonal":
        return g, diagonal_derivation_torus(g)
    n = 3 if name == "heisenberg:1" else 2
    return graded_power(g, n), [grading_derivation(g, n)]


THEOREM1_TORI = (
    ("heisenberg:1", "diagonal"),
    ("heisenberg:2", "diagonal"),
    ("graded-power:heisenberg:1:3", "diagonal"),
    ("heisenberg:1", "grading"),
    ("nonabelian2", "grading"),
)


class TestIsDerivationOracle:
    """The sparse is_derivation, given entries, against the dense check it
    replaced, given the matrix: on derivations, on derivations with one
    entry changed, and on random small integer matrices."""

    @staticmethod
    def agree_on_perturbations(g, derivs, rng):
        n = g.dim
        for d in derivs:
            m = entries_mat(d, n)
            assert is_derivation(g, d) and dense_is_derivation(g, m)
            for _ in range(3):
                by = Q(rng.choice((-2, -1, 1, 2)), rng.randint(1, 3))
                m2 = bumped(m, rng.randrange(n), rng.randrange(n), by)
                assert is_derivation(g, entries(m2)) == dense_is_derivation(g, m2)
        for _ in range(5):
            m2 = Matrix([[rng.randint(-1, 1) for _ in range(n)] for _ in range(n)])
            assert is_derivation(g, entries(m2)) == dense_is_derivation(g, m2)

    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_basis_and_perturbed(self, name):
        g = load_structure_source(name)
        rows = derivations(g).space.rows.values()
        self.agree_on_perturbations(g, rows, random.Random(name))

    @pytest.mark.parametrize("name, torus", THEOREM1_TORI)
    def test_theorem1_tori(self, name, torus):
        g, gens = theorem1_torus(name, torus)
        self.agree_on_perturbations(g, gens, random.Random(name + torus))

    def test_some_perturbations_stay_derivations(self):
        # on abelian(2) every matrix is a derivation: both checks accept
        g = abelian(2)
        m = bumped(zeros(2, 2), 0, 1, Q(3))
        assert is_derivation(g, entries(m)) and dense_is_derivation(g, m)
        # adding a derivation keeps a derivation, on a nonabelian algebra
        g = heisenberg(1)
        ds = derivations(g)
        mats = der_mats(ds)
        m = mat_comb((1, mats[0]), (Q(-2, 3), mats[1]))
        assert is_derivation(g, entries(m)) and dense_is_derivation(g, m)

    def test_index_outside_the_matrix_is_no_derivation(self):
        # an index n*n or -1 names no entry of an n x n matrix: False, and
        # nothing raised, whatever the rest of the entries are
        for g in (heisenberg(1), abelian(2), abelian(0)):
            n = g.dim
            for t in (n * n, -1):
                assert not is_derivation(g, {t: Q(1)})
                assert not is_derivation(g, {t: Q(0)})
        assert not is_derivation(abelian(2), {0: Q(1), 4: Q(1)})

    def test_zero_entries_are_ignored(self):
        # diag(0, 0, 1) is no derivation of h3; the zero matrix is one,
        # however many zeros its entries spell out
        g = heisenberg(1)
        assert is_derivation(g, {})
        assert is_derivation(g, dict.fromkeys(range(9), Q(0)))
        assert not is_derivation(g, {8: Q(1)})
        assert not is_derivation(g, {8: Q(1), 0: Q(0), 4: Q(0)})
        for d in derivations(g).space.rows.values():
            padded = dict.fromkeys(range(9), Q(0)) | d
            assert is_derivation(g, padded)


CATALOG_ANALYZE = (
    "heisenberg:1",
    "heisenberg:2",
    "abelian:4",
    "graded-power:heisenberg:1:2",
    "full-graph:heisenberg:1",
    "full-graph:full-graph:nonabelian2",
)


@pytest.mark.parametrize("name", CATALOG_ANALYZE)
def test_derivations_reads_ad_off_sc(name, monkeypatch):
    # no ad matrix is built; ad(g) read off sc equals the span of the ad
    # matrices
    g = catalog(name)
    calls = []
    original = LieAlgebra.ad_matrix

    def counting(self, x):
        calls.append(x)
        return original(self, x)

    monkeypatch.setattr(LieAlgebra, "ad_matrix", counting)
    ds = derivations(g)
    assert calls == []
    n = g.dim
    flats = [original(g, g.basis_element(i)).flatten() for i in range(n)]
    assert ds.inner_flat == Subspace.from_vectors(n * n, flats)


def counting_matrices(monkeypatch):
    """The list of every Matrix built from here on."""
    built = []
    init = Matrix.__init__

    def counting(self, data):
        built.append(self)
        init(self, data)

    monkeypatch.setattr(Matrix, "__init__", counting)
    return built


@pytest.mark.parametrize("name", ["full-graph:heisenberg:1", "full-graph:full-graph:nonabelian2"])
def test_der_and_full_graph_build_no_matrix(name, monkeypatch):
    # Der(g) is held as its sparse rows, and full_graph hands them to
    # semidirect as they are; f(h3) has an outer derivation, and
    # f^2(nonabelian2) is complete
    g = catalog(name)
    built = counting_matrices(monkeypatch)
    ds = derivations(g)
    assert full_graph(ds).dim == g.dim + ds.dim
    assert built == []


@pytest.mark.parametrize("name", CATALOG_ANALYZE)
def test_analyze_builds_only_the_outer_witness(name, monkeypatch, capsys):
    # the outer witness is a canonical Der row, so analyze builds no Matrix,
    # with an outer witness (full-graph:heisenberg:1 alone) or without
    built = counting_matrices(monkeypatch)
    assert run_command(["analyze", f"catalog:{name}"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert (doc.get("witness_kind") == "outer") == (name == "full-graph:heisenberg:1")
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [
        "analyze catalog:full-graph:heisenberg:1 --full",
        "verify theorem3 --N 1 --n 2",
        "verify prop2 --N 1",
        "verify prop3 --N 1",
        "verify prop4 --N 1",
        "tower catalog:full-graph:heisenberg:1",
        "verify lemma3 --g catalog:heisenberg:1 --phi identity",
    ],
)
def test_commands_build_no_matrix(argv, monkeypatch, capsys):
    # the outer witnesses of analyze --full, theorem 3 and prop 3 are
    # re-verified and printed from their sparse entries
    built = counting_matrices(monkeypatch)
    assert run_command(argv.split()) == 0
    capsys.readouterr()
    assert built == []


class TestRankBound:
    """derivations() feeds no Leibniz row to the exact elimination when the
    rank mod P reaches n^2 - dim ad(g), and otherwise feeds every row."""

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
        assert ds.space == dense_leibniz_kernel(g)
        for d in ds.space.rows.values():
            assert is_derivation(g, d)

    def test_bound_fires_on_complete_algebra(self, monkeypatch):
        for name in ("f2_nonabelian2_dense.json", "full-graph:full-graph:nonabelian2"):
            g = load_structure_source(name)
            n = g.dim
            fed, ds = self.rows_fed(g, monkeypatch)
            assert fed == 0
            assert ds.dim == ds.inner.dim == n
            # the per-ad coordinates the modular certificate skips
            ads = [der_coords(ds, g.ad_matrix(g.basis_element(i))) for i in range(n)]
            assert ds.inner == Subspace.from_vectors(ds.dim, ads)

    @pytest.mark.parametrize("name", ["nonabelian2", "full-graph:nonabelian2"])
    def test_unlucky_prime_takes_exact_path(self, name, monkeypatch):
        # scaled by P: complete over Q, every Leibniz row is 0 mod P
        base = catalog(name)
        g = LieAlgebra(
            base.dim,
            {
                (i, j): {k: P * c for k, c in v.items()}
                for i, row in enumerate(base.sc)
                for j, v in row.items()
                if i < j
            },
        )
        n = g.dim
        fed, ds = self.rows_fed(g, monkeypatch)
        assert fed == n * n * (n - 1) // 2
        assert ds.dim == ds.inner.dim == n
        assert ds.space == dense_leibniz_kernel(g)

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
        rep = derivation_tower(full_graph(derivations(heisenberg(1))))
        assert (rep.dims, rep.stabilized, rep.budget_exceeded) == ((9,), False, True)


class TestCommutatorTable:
    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_matches_dense_commutator_coords(self, name):
        # the table built the way the integer stage replaced: a dense
        # Fraction commutator per pair, then coordinates by reconstruction
        ds = derivations(load_structure_source(name))
        mats = der_mats(ds)
        table = {}
        for a in range(ds.dim):
            for b in range(a + 1, ds.dim):
                comm = mats[a].commutator(mats[b])
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
        span = Subspace.from_vectors(4, [mat_mul(mat_mul(p, m), p_inv).flatten() for m in upper])
        assert [clear_denominators(dict(enumerate(v)))[1] for v in span.vectors()] == [1, 2, 1]
        mats = [entries_mat(row, 2) for row in span.rows.values()]
        table = commutator_table(span, 2)
        assert set(table) == {(0, 1), (0, 2), (1, 2)}
        for (a, b), coords in table.items():
            recon = mat_comb((0, mats[0]), *((c, mats[t]) for t, c in coords.items()))
            assert recon == mats[a].commutator(mats[b])


class TestInnerPreimage:
    """inner_preimage takes Der coordinates, here those of a matrix."""

    @staticmethod
    def preimage(ds, m):
        return inner_preimage(ds, der_coords(ds, m))

    def test_zero(self, fh3, ds_fh3):
        z = zeros(fh3.dim, fh3.dim)
        assert self.preimage(ds_fh3, z) == fh3.zero()

    def test_round_trip_basis(self):
        g = nonabelian2()
        ds = derivations(g)
        x = g.basis_element(0)
        assert self.preimage(ds, g.ad_matrix(x)) == x

    def test_round_trip_random(self, fh3, ds_fh3):
        rng = random.Random(17)
        for _ in range(5):
            x = tuple(Q(rng.randint(-2, 2)) for _ in range(fh3.dim))
            assert self.preimage(ds_fh3, fh3.ad_matrix(x)) == x

    @pytest.mark.parametrize(
        "name", ["f2_nonabelian2_dense.json", "f2_nonabelian2_dense_s21c1.json"]
    )
    def test_round_trip_fractional(self, name):
        # centre-free, with structure constants of denominators up to 17 and
        # 44: preimages scaled by a common denominator would not round-trip
        g = load_structure_source(name)
        ds = derivations(g)
        rng = random.Random(name)
        for _ in range(3):
            x = tuple(Q(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(g.dim))
            assert self.preimage(ds, g.ad_matrix(x)) == x

    def test_not_inner(self, fh3, ds_fh3):
        outer = next(
            m
            for k, m in enumerate(der_mats(ds_fh3))
            if not ds_fh3.inner_flat.contains_vector(m.flatten())
        )
        with pytest.raises(NotInnerError):
            self.preimage(ds_fh3, outer)

    def test_nonzero_center_rejected(self, h3, ds_h3):
        with pytest.raises(NonzeroCenterError):
            self.preimage(ds_h3, zeros(3, 3))


class TestIsComplete:
    def test_abelian_central_witness(self):
        cert = is_complete(derivations(abelian(1)))
        assert not cert.complete
        assert cert.witness[0] == "central"

    def test_nonabelian2_complete(self):
        cert = is_complete(derivations(nonabelian2()))
        assert cert.complete
        assert cert.center_dim == 0 and cert.der_dim == cert.inner_dim == 2

    def test_heisenberg_not_complete(self, h3, ds_h3):
        cert = is_complete(ds_h3)
        assert not cert.complete
        assert cert.witness[0] == "central"
        kind, v = cert.witness
        assert not any(h3.ad_matrix(v).flatten())

    def test_outer_witness_verified(self, fh3, ds_fh3):
        # the witness is a canonical Der row, by its sparse entries
        cert = is_complete(ds_fh3)
        assert not cert.complete
        kind, w = cert.witness
        assert kind == "outer"
        assert w in ds_fh3.space.rows.values()
        assert is_derivation(fh3, w)
        assert not ds_fh3.inner_flat.contains_vector(entries_mat(w, fh3.dim).flatten())


# The certificate of each structure source, recorded when is_complete still
# solved for Z(g) apart from Der(g), so reading Z(g) off Der(g) must keep
# it: (center_dim, der_dim, inner_dim, complete, witness), the witness as
# its kind, its Der basis index when outer, and its nonzero entries
# (row-major for a derivation) as strings.
SOURCE_CERTIFICATES = {
    "heisenberg:1": (1, 6, 2, False, ("central", {2: "1"})),
    "heisenberg:2": (1, 15, 4, False, ("central", {4: "1"})),
    "abelian:4": (4, 16, 0, False, ("central", {0: "1"})),
    "nonabelian2": (0, 2, 2, True, None),
    "graded-power:heisenberg:1:2": (4, 24, 2, False, ("central", {2: "1"})),
    "graded-power:nonabelian2:2": (2, 10, 2, False, ("central", {2: "1"})),
    "full-graph:heisenberg:1": (
        0, 10, 9, False, ("outer", 6, {43: "1", 51: "-1", 60: "2", 70: "2", 80: "2"})
    ),
    "full-graph:nonabelian2": (0, 4, 4, True, None),
    "full-graph:full-graph:nonabelian2": (0, 8, 8, True, None),
    "h5_dense.json": (1, 15, 4, False, ("central", {0: "1", 2: "-1/3", 3: "-1/3", 4: "1/3"})),
    "f2_nonabelian2_dense.json": (0, 8, 8, True, None),
}


@pytest.mark.parametrize("name", STRUCTURE_SOURCES)
def test_is_complete_reads_the_one_ad_elimination(name, monkeypatch):
    # Z(g) comes from the elimination that gives ad(g): is_complete calls
    # no LieAlgebra.center, through its one binding, the class attribute
    g = load_structure_source(name)
    original = LieAlgebra.center
    calls = []

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(LieAlgebra, "center", counting)
    ds = derivations(g)
    cert = is_complete(ds)
    assert calls == []
    assert ds.center == original(g)
    witness = cert.witness
    if witness is not None:
        kind, w = witness
        flat = entries_mat(w, g.dim).flatten() if kind == "outer" else w
        nonzero = {t: q_str(x) for t, x in enumerate(flat) if x}
        if kind == "outer":
            witness = (kind, der_mats(ds).index(entries_mat(w, g.dim)), nonzero)
        else:
            witness = (kind, nonzero)
    assert (*cert[:4], witness) == SOURCE_CERTIFICATES[name]


class TestCentralizer:
    def test_empty_is_everything(self, ds_h3):
        assert centralizer_in_der(ds_h3, []) == Subspace.full(ds_h3.dim)

    def test_identity_central_in_gl(self):
        g = abelian(2)
        ds = derivations(g)
        ident = identity(2)
        assert centralizer_in_der(ds, [der_coords(ds, ident)]).dim == 4

    def test_grading_derivation_block_oracle(self):
        # On h3^+2 the centralizer of the grading derivation is the space of
        # degree-0 derivations: block-diagonal ones.  Independent count: solve
        # per-block by brute force on the block-diagonal ansatz.
        g = graded_power(heisenberg(1), 2)
        ds = derivations(g)
        grading = grading_derivation(heisenberg(1), 2)
        tau = centralizer_in_der(ds, [ds.space.coords_of_row(grading)])
        d = entries_mat(grading, 6)
        # every tau element commutes with d, i.e. preserves both slots
        for v in tau.vectors():
            assert not any(entries_mat(ds.from_coords(v), 6).commutator(d).flatten())
        # block matrices inside Der that commute with d, counted directly
        blocky = [
            v
            for v in ds.space.vectors()
            if not any(entries_mat(sparse(v), 6).commutator(d).flatten())
        ]
        assert tau.dim >= Subspace.from_vectors(36, blocky).dim

    def test_non_derivation_rejected(self, h3, ds_h3):
        # a generator is given by its Der coordinates, which a
        # non-derivation does not have
        bad = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert der_coords(ds_h3, bad) is None


class TestFsAndZs:
    def test_phi_zero_gives_everything(self, h3, ds_h3):
        images = [{}]  # phi = 0 on abelian(1)
        assert f_s_subspace(ds_h3, images) == Subspace.full(ds_h3.dim)
        assert z_s_subspace(h3, images) == h3.center()

    def test_identity_phi_on_complete_algebra(self):
        g = nonabelian2()
        ds = derivations(g)
        assert f_s_subspace(ds, ds.space.rows.values()) == ds.inner  # F = ad(g) when Der = ad

    def test_inner_always_inside_f(self, ds_fh3, fh3):
        f = f_s_subspace(ds_fh3, ds_fh3.space.rows.values())
        assert f.contains(ds_fh3.inner)
        assert Subspace.full(ds_fh3.dim).contains(f)

    def test_target_with_other_structure_rejected(self):
        # diag(0, 0, 1) is a derivation of abelian(3) but not of h3, which
        # has the same dimension
        d = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert is_derivation(abelian(3), entries(d))
        with pytest.raises(ValueError, match=r"outside Der\(g\)"):
            f_s_subspace(derivations(heisenberg(1)), [entries(d)])
        # so is an entry index outside range(9)
        with pytest.raises(ValueError, match=r"outside Der\(g\)"):
            f_s_subspace(derivations(heisenberg(1)), [{9: Q(1)}])

    def test_zs_killed_by_scaling_derivation(self, h3, ds_h3):
        # derivation with Dc = c (the one-dimensional 'b' part): kills Z_s
        d = Matrix([[1, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert is_derivation(h3, entries(d))
        assert z_s_subspace(h3, [entries(d)]).dim == 0

    def test_zs_kernel_intersection(self):
        g = abelian(2)
        d = Matrix([[1, 0], [0, 0]])
        assert is_derivation(g, entries(d))
        zs = z_s_subspace(g, [entries(d)])
        assert zs == Subspace.from_vectors(2, [g.basis_element(1)])


class TestVerifyTorus:
    def test_empty_passes(self, h3):
        assert verify_torus(h3, []).ok

    def test_grading_derivation_passes(self):
        gp = graded_power(heisenberg(1), 2)
        rep = verify_torus(gp, [grading_derivation(heisenberg(1), 2)])
        assert rep.ok
        assert [fun for fun, _ in rep.parts] == [(Q(1),), (Q(2),)]

    def test_nilpotent_derivation_fails(self, h3):
        ad_x1 = h3.ad_matrix(h3.basis_element(0))
        rep = verify_torus(h3, [entries(ad_x1)])
        assert not rep.ok
        assert rep.failures == [
            ("diagonalizable", "no common eigenbasis: the joint eigenspaces do not fill g")
        ]

    def test_noncommuting_fails(self):
        g = abelian(2)
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        rep = verify_torus(g, [entries(a), entries(b)])
        assert not rep.ok
        assert [name for name, _ in rep.failures] == ["diagonalizable"]

    def test_each_nonderivation_named(self, h3):
        # the identity sends z = [x, y] to z, not to [x, y] + [x, y] = 2z
        eye = identity(3)
        gens = [entries(eye), diagonal_derivation_torus(h3)[0], entries(mat_comb((2, eye)))]
        rep = verify_torus(h3, gens)
        assert not rep.ok and rep.parts is None
        assert rep.failures == [
            ("derivation", "generator 0 fails the Leibniz identity"),
            ("derivation", "generator 2 fails the Leibniz identity"),
        ]

    def test_diagonal_torus(self, h3):
        # diag(1, 0, 1) and diag(0, 1, 1), by their entries on the diagonal
        torus = diagonal_derivation_torus(h3)
        assert torus == [{0: Q(1), 8: Q(1)}, {4: Q(1), 8: Q(1)}]
        assert verify_torus(h3, torus).ok


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

    def test_negative_max_steps_rejected(self, fh3):
        with pytest.raises(ValueError, match="max_steps must be >= 0"):
            derivation_tower(fh3, max_steps=-1)


def dense_combine(coeffs, vectors, n):
    """sum_r c_r v_r in Q^n for dense vectors v_r."""
    out = [ZERO] * n
    for c, v in zip(coeffs, vectors, strict=True):
        out = [a + c * x for a, x in zip(out, v)]
    return out


def dense_homomorphism_check(s, g, images):
    """Whether the images of s's basis give a homomorphism s -> Der(g),
    checked densely, kept as an oracle for the Jacobi validation of
    s x_phi g: each image passes `is_derivation`, then phi([s_a, s_b]) =
    [phi(s_a), phi(s_b)] by Matrix.commutator on every basis pair."""
    if not all(is_derivation(g, entries(m)) for m in images):
        return False
    n, e = g.dim, s.basis_element
    flats = [m.flatten() for m in images]
    return all(
        tuple(dense_combine(s.bracket(e(a), e(b)), flats, n * n))
        == images[a].commutator(images[b]).flatten()
        for a in range(s.dim)
        for b in range(a + 1, s.dim)
    )


def semidirect_accepts(s, g, images):
    try:
        semidirect(s, g, [entries(m) for m in images])
    except InvalidStructureError:
        return False
    return True


class TestDerHomomorphism:
    """The Jacobi validation of s x_phi g is the check that phi is a Lie
    homomorphism s -> Der(g)."""

    def test_non_derivation_image_rejected(self, h3):
        bad = Matrix([[0, 0, 0], [0, 0, 0], [0, 0, 1]])
        assert not dense_homomorphism_check(abelian(1), h3, [bad])
        with pytest.raises(ValueError, match="Jacobi identity fails"):
            semidirect(abelian(1), h3, [entries(bad)])

    def test_bracket_incompatibility_rejected(self):
        g = abelian(2)
        a = Matrix([[0, 1], [0, 0]])
        b = Matrix([[0, 0], [1, 0]])
        # abelian source but non-commuting images, each a derivation
        assert is_derivation(g, entries(a)) and is_derivation(g, entries(b))
        assert not dense_homomorphism_check(abelian(2), g, [a, b])
        with pytest.raises(ValueError, match="Jacobi identity fails"):
            semidirect(abelian(2), g, [entries(a), entries(b)])

    def test_wrong_shape_rejected(self, h3):
        with pytest.raises(ValueError, match="per basis vector"):
            semidirect(abelian(2), h3, [{}])
        # an entry of a 3 x 3 image has its index in range(9)
        for check in (lambda im: semidirect(abelian(1), h3, im), lambda im: z_s_subspace(h3, im)):
            with pytest.raises(ValueError, match=r"^phi needs 3 x 3 images: .* range\(9\)$"):
                check([{9: Q(1)}])
            with pytest.raises(ValueError, match=r"^phi needs 3 x 3 images"):
                check([{-1: Q(1)}])


ORACLE_ALGEBRAS = ("heisenberg:1", "abelian:2", "nonabelian2")
ORACLE_SOURCES = ("abelian:1", "abelian:2", "nonabelian2")


@st.composite
def phi_candidates(draw):
    """(s, g, images): each image a small integer multiple of one shared
    integer combination D0 of Der(g)'s basis, sometimes plus a small random
    integer matrix.  Multiples of D0 commute, so both verdicts occur: an
    abelian source is accepted without a perturbation, and nonabelian2 when
    the image of y (with [x, y] = y) is zero as well."""
    g = catalog(draw(st.sampled_from(ORACLE_ALGEBRAS)))
    s = catalog(draw(st.sampled_from(ORACLE_SOURCES)))
    n = g.dim
    basis = der_mats(derivations(g))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(basis), max_size=len(basis)))
    d0 = mat_comb((0, zeros(n, n)), *zip(coeffs, basis))
    images = []
    for _ in range(s.dim):
        img = mat_comb((draw(st.integers(-2, 2)), d0))
        if draw(st.booleans()):
            entries = st.integers(-1, 1)
            img = mat_comb((1, img), (1, Matrix(draw(st.lists(
                st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
            )))))
        images.append(img)
    return s, g, images


@settings(max_examples=80, deadline=None, derandomize=True)
@given(phi_candidates())
def test_semidirect_accepts_exactly_the_homomorphisms(case):
    s, g, images = case
    assert semidirect_accepts(s, g, images) == dense_homomorphism_check(s, g, images)


class TestIdentityOnDer:
    @pytest.mark.parametrize("name", STRUCTURE_SOURCES)
    def test_validating_constructor_accepts(self, name):
        # the identity Der(g) -> Der(g) is a homomorphism by construction;
        # the product's Jacobi validation and the dense oracle both agree
        g = load_structure_source(name)
        ds = derivations(g)
        assert semidirect(ds.algebra, g, ds.space.rows.values()).validate().ok
        assert dense_homomorphism_check(ds.algebra, g, der_mats(ds))


# Dense oracles for centralizer_in_der, f_s_subspace and [Der, Der]: every
# bracket of derivations is a Matrix.commutator in Q^(n^2), independent of
# the Der(g) structure constants that the library reads.


def dense_centralizer(ds, b_mats):
    """Nullspace of the flattened [D_k, B] rows."""
    rows = []
    for b in b_mats:
        cols = [m.commutator(b).flatten() for m in der_mats(ds)]
        rows += [row for row in zip(*cols) if any(row)]
    return SparseSystem(ds.dim, map(sparse, rows)).kernel()


def dense_f_s(ds, images):
    """[D_k, phi(s)] tested against the complement of inner_flat in Q^(n^2)."""
    comp = ds.inner_flat.orthogonal_complement()
    rows = []
    for img in images:
        cols = [m.commutator(img).flatten() for m in der_mats(ds)]
        for w in comp.vectors():
            row = [
                sum((a * b for a, b in zip(w, col) if a and b), ZERO) for col in cols
            ]
            if any(row):
                rows.append(row)
    return SparseSystem(ds.dim, map(sparse, rows)).kernel()


def dense_z_s(g, images):
    """The centre meets the nullspace of the images stacked into one matrix."""
    zs = g.center()
    if not images:
        return zs
    rows = (sparse(row) for m in images for row in m.data)
    return zs.intersect(SparseSystem(g.dim, rows).kernel())


def dense_der_der(ds):
    """Span of the commutators of the Der basis matrices, in Q^(n^2)."""
    mats = der_mats(ds)
    flats = [
        mats[a].commutator(mats[b]).flatten()
        for a in range(len(mats))
        for b in range(a + 1, len(mats))
    ]
    return Subspace.from_vectors(ds.base.dim ** 2, flats)


def _graded_square_grading():
    grading = grading_derivation(heisenberg(1), 2)
    return derivations(graded_power(heisenberg(1), 2)), [entries_mat(grading, 6)]


def _identity_on(g):
    ds = derivations(g)
    return ds, der_mats(ds)


ORACLE_CASES = {
    "h3^(2), grading torus": _graded_square_grading,
    "f(h3), identity": lambda: _identity_on(full_graph(derivations(heisenberg(1)))),
    # its Der basis carries non-integer denominators
    "h5_dense.json, identity": lambda: _identity_on(load_structure_source("h5_dense.json")),
}


@pytest.fixture(scope="module", params=list(ORACLE_CASES))
def oracle_case(request):
    return ORACLE_CASES[request.param]()


class TestDenseOracles:
    def test_centralizer_matches_dense(self, oracle_case):
        ds, images = oracle_case
        for gens in (images, images[:2], images[1::2]):
            coords = [der_coords(ds, m) for m in gens]
            assert centralizer_in_der(ds, coords) == dense_centralizer(ds, gens)

    def test_f_s_matches_dense(self, oracle_case):
        ds, images = oracle_case
        assert f_s_subspace(ds, [entries(m) for m in images]) == dense_f_s(ds, images)

    def test_z_s_matches_dense(self, oracle_case):
        ds, images = oracle_case
        for gens in (images, images[:1], images[:2], images[1::2], []):
            assert z_s_subspace(ds.base, [entries(m) for m in gens]) == dense_z_s(ds.base, gens)

    def test_kernels_build_no_matrix(self, oracle_case, monkeypatch):
        # the kernels read sparse ad rows off the Der algebra's structure
        # constants and the rows of the images: no ad matrix, no Matrix
        ds, images = oracle_case
        coords = [der_coords(ds, m) for m in images]
        images = [entries(m) for m in images]
        calls = []
        ad_matrix, init = LieAlgebra.ad_matrix, Matrix.__init__

        def counting_ad(self, x):
            calls.append("ad_matrix")
            return ad_matrix(self, x)

        def counting_init(self, data):
            calls.append("Matrix")
            init(self, data)

        monkeypatch.setattr(LieAlgebra, "ad_matrix", counting_ad)
        monkeypatch.setattr(Matrix, "__init__", counting_init)
        centralizer_in_der(ds, coords)
        f_s_subspace(ds, images)
        z_s_subspace(ds.base, images)
        assert calls == []

    def test_der_der_matches_dense(self, oracle_case):
        ds, _ = oracle_case
        full = Subspace.full(ds.dim)
        der_der = ds.algebra.product_space(full, full)
        dense = dense_der_der(ds)
        n = ds.base.dim
        flats = Subspace.from_vectors(
            n ** 2, [entries_mat(ds.from_coords(v), n).flatten() for v in der_der.vectors()]
        )
        assert flats == dense
        assert ds.inner.contains(der_der) == ds.inner_flat.contains(dense)
