import pytest

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
    derivations,
    is_complete,
    is_derivation,
    verify_torus,
)
from lieq.liealg import DimensionCapError
from lieq.linalg import Matrix, Q, Subspace, ZERO

from oracles import column, der_mats, entries, entries_mat, identity, zeros


class TestHeisenberg:
    def test_n1(self):
        g = heisenberg(1)
        assert g.dim == 3
        assert g.labels == ("x1", "y1", "c")
        assert g.bracket(g.basis_element(0), g.basis_element(1)) == (ZERO, ZERO, Q(1))

    def test_n2_pairing(self):
        g = heisenberg(2)
        assert g.dim == 5
        x1, y2 = g.basis_element(0), g.basis_element(3)
        x2, y1 = g.basis_element(1), g.basis_element(2)
        c = g.basis_element(4)
        assert g.bracket(x1, y2) == g.zero()
        assert g.bracket(x2, y2) == c
        assert g.bracket(x1, y1) == c

    def test_center_is_c(self):
        for N in (1, 2, 3):
            g = heisenberg(N)
            z = g.center()
            assert z.dim == 1
            assert z.vectors()[0] == g.basis_element(g.dim - 1)

    def test_derived_equals_center(self):
        g = heisenberg(2)
        full = Subspace.full(g.dim)
        assert g.product_space(full, full) == g.center()

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            heisenberg(0)


class TestSemidirect:
    def test_zero_phi_direct_sum(self):
        s, g = abelian(2), heisenberg(1)
        w = semidirect(s, g, [entries(zeros(3, 3))] * 2)
        assert w.dim == 5
        # mixed brackets vanish, g block reproduced verbatim
        e, f = w.basis_element, g.basis_element
        for i in range(2):
            for j in range(2, 5):
                assert w.bracket(e(i), e(j)) == w.zero()
        assert w.bracket(e(2), e(3)) == (ZERO,) * 2 + g.bracket(f(0), f(1))

    def test_grading_semidirect_dim7(self):
        s = abelian(1)
        grading = grading_derivation(heisenberg(1), 2)
        w = semidirect(s, graded_power(heisenberg(1), 2), [grading])
        assert w.dim == 7
        assert w.validate().ok

    def test_mixed_bracket_equals_phi_action(self):
        g = heisenberg(1)
        ds = derivations(g)
        w = semidirect(ds.algebra, g, ds.space.rows.values())
        p = ds.dim
        e = w.basis_element
        mats = der_mats(ds)
        for i in range(p):
            for j in range(g.dim):
                got = w.bracket(e(i), e(p + j))
                expect = (ZERO,) * p + column(mats[i], j)
                assert got == expect

    def test_identity_phi_matches_full_graph(self):
        g = heisenberg(1)
        ds = derivations(g)
        via_semidirect = semidirect(ds.algebra, g, ds.space.rows.values())
        via_full_graph = full_graph(ds)
        assert via_semidirect.sc == via_full_graph.sc

    def test_g_slot_preserves_table(self):
        g = heisenberg(2)
        ds = derivations(g)
        w = full_graph(ds)
        p = ds.dim
        e, f = w.basis_element, g.basis_element
        for i, row in enumerate(g.sc):
            for j in row:
                assert w.bracket(e(p + i), e(p + j)) == (ZERO,) * p + g.bracket(f(i), f(j))


class TestFullGraph:
    def test_abelian1(self):
        w = full_graph(derivations(abelian(1)))
        assert w.dim == 2
        # [D, x] = x: nonabelian
        assert w.bracket(w.basis_element(0), w.basis_element(1)) != w.zero()

    def test_heisenberg_dim9(self):
        assert full_graph(derivations(heisenberg(1))).dim == 9

    def test_center_free(self):
        assert full_graph(derivations(heisenberg(1))).center().dim == 0

    def test_dim_identity(self):
        for g in (heisenberg(1), nonabelian2(), abelian(2)):
            ds = derivations(g)
            assert full_graph(ds).dim == ds.dim + g.dim


class TestFullGraphIter:
    def test_heisenberg_dims_9_19(self):
        f1 = full_graph(derivations(heisenberg(1)))
        assert [f1.dim, full_graph(derivations(f1)).dim] == [9, 19]

    def test_abelian1_chain(self):
        f1 = full_graph(derivations(abelian(1)))
        ds1 = derivations(f1)
        assert full_graph(ds1).dim == f1.dim + ds1.dim

    def test_cap_enforced(self, monkeypatch):
        # f(h3) 9, f^2(h3) 19, then f^3(h3) = Der(f^2) 20 + 19 is refused
        monkeypatch.setenv("LIE_DIM_CAP", "20")
        f2 = full_graph(derivations(full_graph(derivations(heisenberg(1)))))
        with pytest.raises(DimensionCapError, match="dimension 39 exceeds LIE_DIM_CAP 20"):
            full_graph(derivations(f2))


class TestGradedPower:
    def test_n1_is_abelian(self):
        gp = graded_power(heisenberg(1), 1)
        assert gp.dim == 3
        assert gp.sc == [{}] * 3

    def test_h3_power2(self):
        g = graded_power(heisenberg(1), 2)
        assert g.dim == 6
        assert g.labels == ("x1@1", "y1@1", "c@1", "x1@2", "y1@2", "c@2")
        # [x@1, y@1] = c@2; slot-2 brackets vanish
        assert g.bracket(g.basis_element(0), g.basis_element(1)) == g.basis_element(5)
        for i in range(3, 6):
            for j in range(i + 1, 6):
                assert g.bracket(g.basis_element(i), g.basis_element(j)) == g.zero()

    def test_grading_respected(self):
        g0 = heisenberg(2)
        n = 3
        g = graded_power(g0, n)
        m = g0.dim
        for i, row in enumerate(g.sc):
            for j, v in row.items():
                si, sj = i // m + 1, j // m + 1
                k = si + sj
                assert k <= n
                for t in v:
                    assert t // m + 1 == k

    def test_nilpotent(self):
        for base in (heisenberg(1), nonabelian2()):
            for n in (2, 3):
                assert graded_power(base, n).series().is_nilpotent

    def test_grading_derivation(self):
        gp = graded_power(heisenberg(1), 2)
        d = grading_derivation(heisenberg(1), 2)
        expect = Matrix(
            [[Q(k) if i == j else ZERO for j in range(6)] for i, k in enumerate([1, 1, 1, 2, 2, 2])]
        )
        # its nonzero entries, on the diagonal
        assert d == entries(expect)
        assert entries_mat(d, 6) == expect
        assert is_derivation(gp, d)
        assert verify_torus(gp, [d]).ok

    def test_grading_derivation_n1_identity(self):
        assert grading_derivation(heisenberg(1), 1) == entries(identity(3))


class TestCatalog:
    def test_abelian(self):
        assert catalog("abelian:3").dim == 3

    def test_heisenberg(self):
        assert catalog("heisenberg:2").dim == 5

    def test_nonabelian2_complete(self):
        assert is_complete(derivations(catalog("nonabelian2"))).complete

    def test_composed_names(self):
        assert catalog("full-graph:heisenberg:1").dim == 9
        assert catalog("graded-power:heisenberg:1:2").dim == 6

    def test_unknown(self):
        with pytest.raises(KeyError):
            catalog("so3")


def test_all_constructors_validate():
    gp = graded_power(heisenberg(1), 2)
    candidates = [
        heisenberg(2).validate(),
        gp.validate(),
        full_graph(derivations(heisenberg(1))).validate(),
        semidirect(abelian(1), gp, [grading_derivation(heisenberg(1), 2)]).validate(),
        derivations(heisenberg(1)).algebra.validate(),
    ]
    assert all(r.ok for r in candidates)
