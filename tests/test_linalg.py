import random
import time
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lieq.linalg import (
    Matrix,
    P,
    Polynomial,
    Q,
    SparseSystem,
    Subspace,
    clear_denominators,
    minimal_polynomial,
    nullspace,
    rank,
    rank_bareiss,
    rank_mod_p,
    rref,
    solve,
    split_semisimple_check,
)


def M(rows):
    return Matrix(rows)


class TestRref:
    def test_identity_fixed(self):
        i3 = Matrix.identity(3)
        r, piv = rref(i3)
        assert r == i3
        assert piv == (0, 1, 2)

    def test_zero_matrix(self):
        r, piv = rref(Matrix.zero(2, 3))
        assert r == Matrix.zero(2, 3)
        assert piv == ()

    def test_rank_one(self):
        r, piv = rref(M([[2, 4], [1, 2]]))
        assert r == M([[1, 2], [0, 0]])
        assert piv == (0,)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            m = M([[rng.randint(-3, 3) for _ in range(4)] for _ in range(3)])
            r, _ = rref(m)
            assert rref(r)[0] == r


class TestNullspace:
    def test_identity(self):
        assert nullspace(Matrix.identity(2)).dim == 0

    def test_zero(self):
        assert nullspace(Matrix.zero(2, 2)) == Subspace.full(2)

    def test_line(self):
        ns = nullspace(M([[1, 1]]))
        assert ns.dim == 1
        assert ns.vectors()[0] == (Q(1), Q(-1))

    def test_vectors_annihilated(self):
        # independent of the elimination path: direct multiplication
        rng = random.Random(11)
        for _ in range(50):
            m = M([[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)])
            ns = nullspace(m)
            assert ns.dim == 5 - rank(m)
            for v in ns.vectors():
                assert all(x == 0 for x in m.apply(v))


class TestSolve:
    def test_identity(self):
        assert solve(Matrix.identity(2), [3, 5]) == (Q(3), Q(5))

    def test_inconsistent(self):
        assert solve(M([[1], [0]]), [0, 1]) is None

    def test_diagonal(self):
        assert solve(M([[2, 0], [0, 4]]), [1, 1]) == (Q(1, 2), Q(1, 4))

    def test_solution_verifies(self):
        rng = random.Random(3)
        for _ in range(50):
            a = M([[rng.randint(-3, 3) for _ in range(3)] for _ in range(4)])
            b = [rng.randint(-3, 3) for _ in range(4)]
            x = solve(a, b)
            if x is not None:
                assert list(a.apply(x)) == [Q(v) for v in b]


class TestSubspace:
    def test_full_space_ops(self):
        a = Subspace.full(3)
        assert a == a.sum(a) == a.intersect(a)
        assert a.contains(a)

    def test_axes(self):
        e1 = Subspace.from_vectors(2, [(1, 0)])
        e2 = Subspace.from_vectors(2, [(0, 1)])
        assert e1.sum(e2) == Subspace.full(2)
        assert e1.intersect(e2).dim == 0

    def test_skew_lines(self):
        a = Subspace.from_vectors(3, [(1, 1, 0)])
        b = Subspace.from_vectors(3, [(1, -1, 0)])
        assert a.intersect(b).dim == 0
        assert a.sum(b).dim == 2

    def test_canonicity(self):
        a = Subspace.from_vectors(3, [(2, 2, 0), (0, 4, 4)])
        b = Subspace.from_vectors(3, [(1, 1, 0), (1, 3, 2)])
        assert a == b

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.full(2).sum(Subspace.full(3))

    def test_coords_roundtrip(self):
        s = Subspace.from_vectors(4, [(1, 2, 0, 1), (0, 0, 1, 3)])
        v = [Q(2) * a + Q(-1, 3) * b for a, b in zip(*s.vectors())]
        assert s.coords_of(v) == (Q(2), Q(-1, 3))
        assert s.coords_of((1, 0, 0, 0)) is None

    def test_coords_of_wrong_length(self):
        full = Subspace.full(3)
        for v in ([1, 0, 0, 0], []):
            with pytest.raises(ValueError):
                full.coords_of(v)
            with pytest.raises(ValueError):
                full.contains_vector(v)

    def test_dimension_formula_200_random_pairs(self):
        rng = random.Random(2024)
        for _ in range(200):
            n = rng.randint(1, 5)
            a = Subspace.from_vectors(
                n,
                [
                    [rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(rng.randint(0, n))
                ],
            )
            b = Subspace.from_vectors(
                n,
                [
                    [rng.randint(-2, 2) for _ in range(n)]
                    for _ in range(rng.randint(0, n))
                ],
            )
            s = a.sum(b)
            i = a.intersect(b)
            assert s.dim + i.dim == a.dim + b.dim
            assert s.contains(a) and s.contains(b)
            assert a.contains(i) and b.contains(i)


def test_bareiss_vs_gauss_rank_200_random():
    rng = random.Random(99)
    for _ in range(200):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = M(
            [
                [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(cols)]
                for _ in range(rows)
            ]
        )
        assert rank(m) == rank_bareiss(m)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rref_preserves_row_space(rows):
    m = M(rows)
    r, piv = rref(m)
    assert Subspace.from_vectors(3, m.data) == Subspace.from_vectors(3, r.data)
    assert len(piv) == rank(m)


@st.composite
def sparse_systems(draw):
    """A random sparse rational system: denominators, negative entries,
    explicit zeros, and rational combinations of earlier rows (dependent
    rows) inserted anywhere in the feed order."""
    ncols = draw(st.integers(1, 8))
    entry = st.builds(Q, st.integers(-7, 7), st.integers(1, 6))
    rows = draw(
        st.lists(
            st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols),
            max_size=8,
        )
    )
    for _ in range(draw(st.integers(0, 3))):
        if not rows:
            break
        a = rows[draw(st.integers(0, len(rows) - 1))]
        b = rows[draw(st.integers(0, len(rows) - 1))]
        x, y = draw(entry), draw(entry)
        combo = {c: x * a.get(c, 0) + y * b.get(c, 0) for c in set(a) | set(b)}
        rows.insert(draw(st.integers(0, len(rows))), combo)
    return ncols, rows


def _solved(ncols, rows):
    system = SparseSystem(ncols)
    for row in rows:
        system.add_row(dict(row))
    dense = Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
    return system, dense


def _bareiss_pivots(m):
    """The columns that raise the Bareiss rank of the column prefix: the
    pivot columns of the RREF, found without SparseSystem."""
    ranks = [rank_bareiss(Matrix([row[:c] for row in m.data])) for c in range(m.cols + 1)]
    return tuple(c for c in range(m.cols) if ranks[c + 1] > ranks[c])


@st.composite
def matrix_pairs(draw):
    """Two random n x n rational matrices, n <= 4, with many zero entries."""
    n = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-5, 5), st.integers(1, 4)))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return Matrix(draw(square)), Matrix(draw(square))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrix_pairs())
def test_commutator_is_difference_of_products(pair):
    a, b = pair
    assert a.commutator(b) == a @ b - b @ a


class TestClearDenominators:
    def test_lcm_and_integer_values(self):
        ints, den = clear_denominators({3: Q(1, 2), 0: Q(0), 1: Q(-5, 6), 7: Q(2)})
        assert den == 6
        assert ints == {3: 3, 1: -5, 7: 12}
        assert list(ints) == [3, 1, 7]
        assert all(type(v) is int for v in ints.values())

    def test_empty(self):
        assert clear_denominators({}) == ({}, 1)


class TestSparseSystem:
    """SparseSystem, and rref which runs on it, against oracles that share no
    code with its elimination: Bareiss rank and pivots, and direct
    substitution.

    A nullspace basis with 1 at its own free column and 0 at the other free
    columns is unique for a given set of free columns, and the pivot columns
    of any forward echelon form are those of the RREF.  So these properties
    pin the basis down to the one that elimination over Q gives.
    """

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_rank_matches_bareiss(self, case):
        system, dense = _solved(*case)
        assert system.rank == rank_bareiss(dense)
        assert tuple(sorted(system.pivot_rows)) == _bareiss_pivots(dense)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_rref_against_bareiss(self, case):
        _, dense = _solved(*case)
        r, pivots = rref(dense)
        assert pivots == _bareiss_pivots(dense)
        assert (r.rows, r.cols) == (dense.rows, dense.cols)
        for i, row in enumerate(r.data):
            if i < len(pivots):
                lead = pivots[i]
                assert not any(row[:lead]) and row[lead] == 1
                assert all(row[p] == 0 for p in pivots if p != lead)
            else:
                assert not any(row)
        # same rank after stacking: r spans no more than the rows of dense
        assert rank_bareiss(dense.stack(r)) == len(pivots)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_rows_annihilate_nullspace_basis(self, case):
        ncols, rows = case
        system, _ = _solved(ncols, rows)
        basis = system.nullspace_basis()
        assert len(basis) == ncols - system.rank
        for x in basis:
            for row in rows:
                assert sum((v * x[c] for c, v in row.items()), Q(0)) == 0

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_basis_is_identity_on_free_columns(self, case):
        ncols, rows = case
        system, _ = _solved(ncols, rows)
        free = [c for c in range(ncols) if c not in system.pivot_rows]
        for fc, x in zip(free, system.nullspace_basis()):
            assert [x[c] for c in free] == [Q(1) if c == fc else Q(0) for c in free]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_pivot_rows_primitive_integer(self, case):
        system, _ = _solved(*case)
        for lead, row in system.pivot_rows.items():
            assert min(row) == lead and row[lead] > 0
            assert all(type(v) is int and v != 0 for v in row.values())
            assert gcd(*row.values()) == 1


class TestSubspaceFromSystem:
    """A canonical Subspace is read off SparseSystem.reduced_rows once; the
    nonzero rows of rref, the construction it replaced, are the oracle."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_basis_is_nonzero_rref_rows(self, case):
        system, dense = _solved(*case)
        r, pivots = rref(dense)
        expected = Matrix(r.data[: len(pivots)])
        assert Subspace.from_system(system).basis == expected
        assert Subspace.from_vectors(dense.cols, dense.data).basis == expected

    def test_from_vectors_coerces_each_entry_and_builds_one_matrix(self, monkeypatch):
        built = []
        init = Matrix.__init__

        def counting_init(self, data):
            built.append(len(data))
            init(self, data)

        monkeypatch.setattr(Matrix, "__init__", counting_init)
        s = Subspace.from_vectors(3, [("1/2", 0, 1.5), (1, "0", 3), (0, Q(2, 3), 0)])
        assert built == [2]
        assert s.vectors() == ((1, 0, 3), (0, 1, 0))

    def test_zero_vectors_give_the_zero_subspace(self):
        assert Subspace.from_vectors(3, [(0, 0, 0)]) == Subspace.zero(3)
        assert Subspace.from_vectors(3, []) == Subspace.zero(3)


@st.composite
def integer_systems(draw):
    """Random sparse integer rows {col: int}, with entries that are
    multiples of P, or close to them, mixed in."""
    ncols = draw(st.integers(1, 8))
    entry = st.one_of(
        st.integers(-7, 7).filter(bool),
        st.builds(lambda k, e: k * P + e, st.integers(-3, 3).filter(bool), st.integers(-2, 2)),
    )
    rows = draw(
        st.lists(st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols), max_size=8)
    )
    return ncols, rows


def _dense_rank_mod_p(ncols, rows):
    """Rank mod P by dense Gaussian elimination over lists."""
    a = [[row.get(c, 0) % P for c in range(ncols)] for row in rows]
    r = 0
    for c in range(ncols):
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        a[r], a[k] = a[k], a[r]
        inv = pow(a[r][c], -1, P)
        for i in range(r + 1, len(a)):
            f = a[i][c] * inv % P
            a[i] = [(x - f * y) % P for x, y in zip(a[i], a[r])]
        r += 1
    return r


class TestRankModP:
    """rank_mod_p against a dense mod-P elimination and Bareiss rank over Q."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(integer_systems())
    def test_full_rank_matches_dense_and_bounds_rank_over_q(self, case):
        ncols, rows = case
        r = rank_mod_p(rows, ncols)
        assert r == _dense_rank_mod_p(ncols, rows)
        dense = Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
        assert r <= rank_bareiss(dense)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(integer_systems(), st.integers(0, 8))
    def test_stop_is_honoured(self, case, stop):
        ncols, rows = case
        full = _dense_rank_mod_p(ncols, rows)
        read = []

        def feed():
            for row in rows:
                read.append(row)
                yield row

        assert rank_mod_p(feed(), stop) == min(stop, full)
        # the shortest prefix that reaches stop, and at most one row more
        need = next(
            (k for k in range(len(rows) + 1) if _dense_rank_mod_p(ncols, rows[:k]) >= stop),
            len(rows),
        )
        assert len(read) <= need + 1

    def test_multiples_of_p_vanish(self):
        rows = [{0: P, 2: -2 * P}, {1: 3 * P}]
        assert rank_mod_p(rows, 3) == 0
        assert rank_bareiss(Matrix([[P, 0, -2 * P], [0, 3 * P, 0]])) == 2


def _poly_times(*factors):
    """Product of integer polynomials, coefficients lowest degree first."""
    out = [1]
    for f in factors:
        prod = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                prod[i + j] += a * b
        out = prod
    return out


def _rational_roots_oracle(ints):
    """Every +-p/q with p | a0 and q | an, for every divisor found by trying
    each integer up to |a0| and |an|; 0 when the constant term is 0."""
    shift = next(k for k, c in enumerate(ints) if c)
    a0, an = abs(ints[shift]), abs(ints[-1])
    found = {Q(0)} if shift else set()
    for p in (p for p in range(1, a0 + 1) if a0 % p == 0):
        for q in (q for q in range(1, an + 1) if an % q == 0):
            for r in (Q(p, q), Q(-p, q)):
                if sum(c * r ** k for k, c in enumerate(ints)) == 0:
                    found.add(r)
    return sorted(found)


class TestPolynomial:
    def test_normalization(self):
        assert Polynomial([1, 2, 0]).coeffs == (Q(1), Q(2))
        assert Polynomial([0, 0]).is_zero()
        assert Polynomial([]).degree == -1

    def test_divmod(self):
        p = Polynomial([-2, 1]).monic()  # x - 2
        q, r = Polynomial([2, -3, 1]).divmod(p)  # (x-1)(x-2)
        assert r.is_zero()
        assert q == Polynomial([-1, 1])

    def test_gcd(self):
        p = Polynomial([0, 0, 1])  # x^2
        assert p.gcd(p.derivative()) == Polynomial([0, 1])
        assert not p.is_squarefree()
        assert Polynomial([-2, 1]).is_squarefree()

    def test_rational_roots(self):
        # (2x - 1)(x + 3) = 2x^2 + 5x - 3
        assert Polynomial([-3, 5, 2]).rational_roots() == [Q(-3), Q(1, 2)]
        assert Polynomial([1, 0, 1]).rational_roots() == []
        # max_k ceil(|a_(n-k)/an|^(1/k)) is 5 here, below the root -6: the
        # numerator bound needs Fujiwara's factor 2
        sextic = _poly_times([6, 1], [5, 1], [-3, 1], [-3, 1], [2, 0, 1])
        assert Polynomial(sextic).rational_roots() == [Q(-6), Q(-5), Q(3)]

    def test_rational_roots_of_one_to_twenty(self):
        # a0 = 20!: trial division of a0 up to its square root would run for hours
        linear = _poly_times(*[[-k, 1] for k in range(1, 21)])
        for coeffs in (linear, _poly_times(linear, [2, 0, 1])):
            start = time.perf_counter()
            roots = Polynomial(coeffs).rational_roots()
            assert time.perf_counter() - start < 1.0
            assert roots == [Q(k) for k in range(1, 21)]

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        st.lists(st.tuples(st.integers(-6, 6), st.integers(1, 4)), max_size=5),
        st.sampled_from([[1], [2, 0, 1], [1, 1, 1], [3, 0, 0, 2]]),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_rational_roots_match_divisor_oracle(self, roots, cofactor, num, den):
        # a product of (q x - p), times a factor without rational roots, scaled
        ints = _poly_times(*[[-p, q] for p, q in roots], cofactor, [num])
        poly = Polynomial([Q(c, den) for c in ints])
        expected = sorted({Q(p, q) for p, q in roots})
        assert poly.rational_roots() == expected == _rational_roots_oracle(ints)

    def test_splits(self):
        ok, roots = Polynomial([-3, 5, 2]).splits_rationally()
        assert ok and sorted(roots) == [Q(-3), Q(1, 2)]
        ok, _ = Polynomial([1, 0, 1]).splits_rationally()
        assert not ok


class TestMinimalPolynomial:
    def test_identity(self):
        assert minimal_polynomial(Matrix.identity(4)) == Polynomial([-1, 1])

    def test_nilpotent(self):
        assert minimal_polynomial(M([[0, 1], [0, 0]])) == Polynomial([0, 0, 1])

    def test_diag(self):
        # (x-1)(x-2) = x^2 - 3x + 2
        assert minimal_polynomial(M([[1, 0], [0, 2]])) == Polynomial([2, -3, 1])

    def test_non_square(self):
        with pytest.raises(ValueError):
            minimal_polynomial(Matrix.zero(2, 3))

    def test_annihilates(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            m = M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)])
            p = minimal_polynomial(m)
            # p(m) by Horner's rule
            value = Matrix.zero(n, n)
            for c in reversed(p.coeffs):
                value = value @ m + Matrix.identity(n).scale(c)
            assert value.is_zero()


class TestSplitSemisimple:
    def test_diag_repeated(self):
        rep = split_semisimple_check(M([[1, 0, 0], [0, 1, 0], [0, 0, 2]]))
        assert rep.semisimple and rep.split
        assert rep.eigenvalues == (Q(1), Q(2))

    def test_jordan_block(self):
        rep = split_semisimple_check(M([[0, 1], [0, 0]]))
        assert not rep.semisimple

    def test_rotation_not_split(self):
        rep = split_semisimple_check(M([[0, -1], [1, 0]]))
        assert rep.semisimple  # x^2 + 1 is squarefree
        assert not rep.split
        assert rep.eigenvalues is None
