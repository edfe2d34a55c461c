import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieq.constructions import abelian, catalog, heisenberg, nonabelian2
from lieq.liealg import InvalidStructureError, LieAlgebra, NotClosedError
from lieq.linalg import Matrix, Q, Subspace, rank_bareiss, solve

from oracles import (
    STRUCTURE_SOURCES,
    bracket_span,
    column,
    dense_center,
    load_structure_source,
    sl2_plus_center,
)


@pytest.fixture
def h3():
    return heisenberg(1)


def rand_element(g, rng):
    return tuple(Q(rng.randint(-3, 3)) for _ in range(g.dim))


def cyclic_sum_failures(g):
    """The brute-force Jacobi oracle: the triples i < j < k whose cyclic sum
    [[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j], bracketed
    densely by LieAlgebra.bracket, is nonzero, in lexicographic order."""
    e = [g.basis_element(i) for i in range(g.dim)]
    expected = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                s1 = g.bracket(g.bracket(e[i], e[j]), e[k])
                s2 = g.bracket(g.bracket(e[j], e[k]), e[i])
                s3 = g.bracket(g.bracket(e[k], e[i]), e[j])
                if any(a + b + c for a, b, c in zip(s1, s2, s3)):
                    expected.append((i, j, k))
    return expected


VALID_SOURCES = (
    "heisenberg:2",
    "nonabelian2",
    "full-graph:nonabelian2",
    "graded-power:heisenberg:1:2",
)


@st.composite
def sparse_tables(draw):
    """(dim, table): a random sparse table, or the table of a Lie algebra
    with up to two of its constants perturbed, so both verdicts occur."""
    entry = st.builds(Q, st.integers(-3, 3).filter(bool), st.integers(1, 3))
    if draw(st.booleans()):
        n = draw(st.integers(3, 6))
        pair = st.sampled_from([(i, j) for i in range(n) for j in range(i + 1, n)])
        coords = st.dictionaries(st.integers(0, n - 1), entry, min_size=1, max_size=2)
        return n, draw(st.dictionaries(pair, coords, max_size=n))
    g = catalog(draw(st.sampled_from(VALID_SOURCES)))
    table = {(i, j): dict(v) for i, row in enumerate(g.sc) for j, v in row.items() if i < j}
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, g.dim - 2))
        j = draw(st.integers(i + 1, g.dim - 1))
        k = draw(st.integers(0, g.dim - 1))
        v = table.setdefault((i, j), {})
        v[k] = v.get(k, Q(0)) + draw(entry)
    return g.dim, table


class TestValidate:
    def test_abelian_passes(self):
        assert abelian(5).validate().ok

    def test_heisenberg_passes(self, h3):
        assert h3.validate().ok

    def test_jacobi_rejection(self):
        # [e1,e2] = e1, [e1,e3] = e2, [e2,e3] = 0: the cyclic sum on (1,2,3)
        # is [[e1,e2],e3] + [[e2,e3],e1] + [[e3,e1],e2] = [e1,e3] = e2 != 0
        table = {(0, 1): {0: Q(1)}, (0, 2): {1: Q(1)}}
        with pytest.raises(InvalidStructureError):
            LieAlgebra(3, table)
        report = LieAlgebra(3, table, check=False).validate()
        assert report.jacobi_failures == [(0, 1, 2)]

    def test_dense_table_failures_match_cyclic_sums(self):
        # h5 in the basis given by the columns of an integer matrix P, so
        # most structure constants are nonzero rationals; then one perturbed
        # constant breaks the Jacobi identity on several triples.
        h5 = heisenberg(2)
        p = Matrix(
            [
                [1, 1, 0, 2, -1],
                [0, 1, 1, 0, 1],
                [1, 1, 2, 1, 0],
                [0, -1, 0, 1, 1],
                [1, 0, 1, 0, 2],
            ]
        )
        assert rank_bareiss(p) == 5
        cols = [column(p, i) for i in range(5)]
        table = {
            (i, j): dict(enumerate(solve(p, h5.bracket(cols[i], cols[j]))))
            for i in range(5)
            for j in range(i + 1, 5)
        }
        assert sum(1 for v in table.values() for x in v.values() if x) > 20
        assert LieAlgebra(5, table).validate().jacobi_failures == []

        bad = dict(table)
        bad[(1, 3)] = {**bad[(1, 3)], 0: bad[(1, 3)][0] + Q(1, 2)}
        g = LieAlgebra(5, bad, check=False)
        expected = cyclic_sum_failures(g)
        assert len(expected) > 1
        assert g.validate().jacobi_failures == expected
        with pytest.raises(InvalidStructureError, match=r"\(%d, %d, %d\)" % expected[0]):
            LieAlgebra(5, bad)

    def test_mixed_denominator_failures_match_cyclic_sums(self):
        # the non-nilpotent algebra nonabelian2 + sl2 in the basis given by
        # the columns of a rational P, so the constants carry different
        # denominators; validate scales them to one before summing in int
        g0 = LieAlgebra(
            5,
            {
                (0, 1): {1: Q(1)},
                (2, 3): {3: Q(2)},
                (2, 4): {4: Q(-2)},
                (3, 4): {2: Q(1)},
            },
        )
        p = Matrix(
            [
                [Q(1, 2), 1, 0, 0, Q(1, 3)],
                [0, Q(1, 3), 1, 0, 0],
                [1, 0, Q(5, 6), 1, 0],
                [0, 0, 0, Q(1, 2), 1],
                [Q(1, 3), 0, 1, 0, Q(5, 6)],
            ]
        )
        assert rank_bareiss(p) == 5
        cols = [column(p, i) for i in range(5)]
        table = {
            (i, j): dict(enumerate(solve(p, g0.bracket(cols[i], cols[j]))))
            for i in range(5)
            for j in range(i + 1, 5)
        }
        denominators = {c.denominator for v in table.values() for c in v.values() if c}
        assert len(denominators - {1}) >= 3
        assert LieAlgebra(5, table).validate().jacobi_failures == []

        bad = dict(table)
        bad[(0, 2)] = {**bad[(0, 2)], 3: bad[(0, 2)][3] + Q(5, 6)}
        g = LieAlgebra(5, bad, check=False)
        expected = cyclic_sum_failures(g)
        assert 1 < len(expected) < 10
        assert g.validate().jacobi_failures == expected

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_tables())
    def test_failures_match_cyclic_sums_on_sparse_tables(self, case):
        # validate sums only the nonzero terms of each cyclic sum; the
        # oracle brackets every triple densely
        n, table = case
        g = LieAlgebra(n, table, check=False)
        assert g.validate().jacobi_failures == cyclic_sum_failures(g)

    def test_bad_indices(self):
        with pytest.raises(ValueError):
            LieAlgebra(2, {(1, 0): {0: Q(1)}})
        with pytest.raises(ValueError):
            LieAlgebra(2, {(0, 1): {2: Q(1)}})


class TestBracket:
    def test_abelian(self):
        g = abelian(3)
        rng = random.Random(1)
        x, y = rand_element(g, rng), rand_element(g, rng)
        assert g.bracket(x, y) == g.zero()

    def test_heisenberg_canonical_pair(self, h3):
        x1, y1, c = (h3.basis_element(i) for i in range(3))
        assert h3.bracket(x1, y1) == c

    def test_bilinear_expansion(self, h3):
        x1, y1 = h3.basis_element(0), h3.basis_element(1)
        u = tuple(a + b for a, b in zip(x1, y1))
        v = tuple(a - b for a, b in zip(x1, y1))
        assert h3.bracket(u, v) == (Q(0), Q(0), Q(-2))

    def test_alternating(self, h3):
        rng = random.Random(2)
        for _ in range(20):
            x = rand_element(h3, rng)
            assert h3.bracket(x, x) == h3.zero()

    def test_jacobi_random_triples(self):
        rng = random.Random(3)
        for g in (heisenberg(2), nonabelian2()):
            for _ in range(30):
                x, y, z = (rand_element(g, rng) for _ in range(3))
                s1 = g.bracket(x, g.bracket(y, z))
                s2 = g.bracket(y, g.bracket(z, x))
                s3 = g.bracket(z, g.bracket(x, y))
                assert all(a + b + c == 0 for a, b, c in zip(s1, s2, s3))


class TestAdMatrix:
    def test_abelian_zero(self):
        g = abelian(4)
        assert not any(g.ad_matrix(g.basis_element(0)).flatten())

    def test_heisenberg_rank_one(self, h3):
        ad_x1 = h3.ad_matrix(h3.basis_element(0))
        # sends y1 to c, kills everything else
        assert column(ad_x1, 1) == (Q(0), Q(0), Q(1))
        assert column(ad_x1, 0) == (Q(0), Q(0), Q(0))
        assert column(ad_x1, 2) == (Q(0), Q(0), Q(0))

    def test_central_element(self, h3):
        assert not any(h3.ad_matrix(h3.basis_element(2)).flatten())

    def test_ad_is_homomorphism(self, h3):
        rng = random.Random(4)
        for _ in range(20):
            x, y = rand_element(h3, rng), rand_element(h3, rng)
            lhs = h3.ad_matrix(h3.bracket(x, y))
            rhs = h3.ad_matrix(x).commutator(h3.ad_matrix(y))
            assert lhs == rhs


class TestCenter:
    def test_abelian(self):
        assert abelian(3).center() == Subspace.full(3)

    def test_heisenberg(self):
        for N in (1, 2):
            z = heisenberg(N).center()
            assert z.dim == 1
            assert z.vectors()[0] == heisenberg(N).basis_element(2 * N)

    def test_nonabelian2(self):
        assert nonabelian2().center().dim == 0

    def test_center_vectors_have_zero_ad(self, h3):
        for v in h3.center().vectors():
            assert not any(h3.ad_matrix(v).flatten())


class TestSeries:
    def test_abelian(self):
        rep = abelian(3).series()
        assert rep.is_nilpotent and rep.is_solvable
        assert len(rep.derived_series) == 2
        assert rep.derived_series[-1].dim == 0

    def test_heisenberg_class_two(self, h3):
        rep = h3.series()
        assert rep.is_nilpotent
        lcs = rep.lower_central_series
        assert [s.dim for s in lcs] == [3, 1, 0]
        assert lcs[1] == Subspace.from_vectors(3, [h3.basis_element(2)])

    def test_nonabelian2_solvable_not_nilpotent(self):
        rep = nonabelian2().series()
        assert rep.is_solvable and not rep.is_nilpotent
        assert rep.lower_central_series[-1].dim == 1


def ordered_pairs_product(g, a, b):
    """Span of [u, v] over every ordered pair of basis vectors, the
    diagonal included: the oracle for `product_space`."""
    vecs = [g.bracket(u, v) for u in a.vectors() for v in b.vectors()]
    return Subspace.from_vectors(g.dim, vecs)


def product_space_series(g):
    """Derived and lower central series by product_space alone, from
    [g, g] = product_space(full, full): the oracle for `series`."""
    full = Subspace.full(g.dim)
    derived = [full]
    while derived[-1].dim > 0:
        nxt = g.product_space(derived[-1], derived[-1])
        if nxt == derived[-1]:
            break
        derived.append(nxt)
    lower = [full]
    while lower[-1].dim > 0:
        nxt = g.product_space(full, lower[-1])
        if nxt == lower[-1]:
            break
        lower.append(nxt)
    return tuple(derived), tuple(lower)


SL2 = LieAlgebra(3, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


SOURCES_AND_SL2 = [pytest.param(name, id=name) for name in STRUCTURE_SOURCES] + [
    pytest.param(SL2, id="sl2"),
    pytest.param(sl2_plus_center(), id="sl2+Q"),
]


@pytest.mark.parametrize("g", SOURCES_AND_SL2)
def test_center_matches_dense_oracle(g):
    if isinstance(g, str):
        g = load_structure_source(g)
    assert g.center().vectors() == dense_center(g)


@pytest.mark.parametrize("g", SOURCES_AND_SL2)
def test_series_matches_product_space(g):
    if isinstance(g, str):
        g = load_structure_source(g)
    full = Subspace.full(g.dim)
    assert g.product_space(full, full) == bracket_span(g)
    rep = g.series()
    assert (rep.derived_series, rep.lower_central_series) == product_space_series(g)
    for s in rep.derived_series + rep.lower_central_series:
        assert g.product_space(s, s) == ordered_pairs_product(g, s, s)
        assert g.product_space(full, s) == ordered_pairs_product(g, full, s)


class TestSubalgebraStructure:
    def test_full_space_copy(self, h3):
        sub = h3.subalgebra_structure(Subspace.full(3))
        assert sub.dim == 3
        assert sub.sc == h3.sc

    def test_abelian_slice(self, h3):
        span = Subspace.from_vectors(3, [h3.basis_element(0), h3.basis_element(2)])
        sub = h3.subalgebra_structure(span)
        assert sub.dim == 2
        assert sub.sc == [{}, {}]

    def test_not_closed(self, h3):
        span = Subspace.from_vectors(3, [h3.basis_element(0), h3.basis_element(1)])
        with pytest.raises(NotClosedError) as exc:
            h3.subalgebra_structure(span)
        i, j, escaped = exc.value.witness
        assert (i, j) == (0, 1)
        assert escaped == h3.basis_element(2)
