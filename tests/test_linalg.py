import random
import time
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lieq import linalg
from lieq.constructions import abelian, grading_derivation, nonabelian2
from lieq.derivations import verify_torus
from lieq.linalg import (
    ONE,
    Matrix,
    P,
    Q,
    SparseSystem,
    Subspace,
    clear_denominators,
    combine,
    image_with_preimages,
    minimal_polynomial,
    rank_bareiss,
    rank_mod_p,
    rational_roots,
    refine_eigenspaces,
    rref,
    solve,
)

from oracles import (
    column,
    entries,
    identity,
    mat_comb,
    mat_mul,
    mat_vec,
    sparse,
    zeros,
)


def M(rows):
    return Matrix(rows)


class TestRref:
    def test_identity_fixed(self):
        i3 = identity(3)
        r, piv = rref(i3)
        assert r == i3
        assert piv == (0, 1, 2)

    def test_zero_matrix(self):
        r, piv = rref(zeros(2, 3))
        assert r == zeros(2, 3)
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
    """SparseSystem(ncols, rows).kernel(), the one kernel, on small systems."""

    def test_identity(self):
        assert SparseSystem(2, [{0: 1}, {1: 1}]).kernel().dim == 0

    def test_zero(self):
        assert SparseSystem(2, [{}, {}]).kernel() == Subspace.full(2)

    def test_line(self):
        ns = SparseSystem(2, [{0: 1, 1: 1}]).kernel()
        assert ns.dim == 1
        assert ns.vectors()[0] == (Q(1), Q(-1))

    def test_vectors_annihilated(self):
        # independent of the elimination path: direct multiplication
        rng = random.Random(11)
        for _ in range(50):
            m = M([[rng.randint(-4, 4) for _ in range(5)] for _ in range(3)])
            ns = SparseSystem(5, map(sparse, m.data)).kernel()
            assert ns.dim == 5 - rank_bareiss(m)
            for v in ns.vectors():
                assert all(x == 0 for x in mat_vec(m, v))


class TestSolve:
    def test_identity(self):
        assert solve(identity(2), [3, 5]) == (Q(3), Q(5))

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
                assert list(mat_vec(a, x)) == [Q(v) for v in b]


def dense(row, n):
    return tuple(row.get(c, Q(0)) for c in range(n))


class TestImageWithPreimages:
    def test_image_preimages_and_kernel(self):
        # f: Q^4 -> Q^3 of rank 2 with fractional entries, read off the
        # sparse rows (f(e_j), e_j); oracles: the column space and
        # mat_vec
        rng = random.Random(5)
        for _ in range(20):
            u = [Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)]
            w = [Q(rng.randint(-4, 4), rng.randint(1, 5)) for _ in range(3)]
            c = [(rng.randint(-2, 2), rng.randint(-2, 2)) for _ in range(4)]
            f = Matrix.from_columns([[a * x + b * y for x, y in zip(u, w)] for a, b in c])
            rows = [sparse(column(f, j)) | {3 + j: Q(1)} for j in range(4)]
            image, pre, kernel = image_with_preimages(3, 7, rows)
            assert image == Subspace.from_vectors(3, [column(f, j) for j in range(4)])
            assert len(pre) == image.dim
            for v, x in zip(image.vectors(), pre):
                # sparse preimages, no dense copy
                assert isinstance(x, dict) and all(x.values())
                assert mat_vec(f, dense(x, 4)) == v
            # the kernel is ker f, in its canonical rows
            assert kernel.dim == 4 - image.dim
            assert all(not any(mat_vec(f, x)) for x in kernel.vectors())
            assert kernel == Subspace.from_vectors(4, kernel.vectors())

    def test_no_rows(self):
        image, pre, kernel = image_with_preimages(2, 2, [])
        assert image == Subspace(2, {}) and pre == () and kernel == Subspace(0, {})

    def test_combine(self):
        rows = [{0: Q(1), 2: Q(2)}, {2: Q(-1), 1: Q(1, 3)}]
        assert combine([2, Q(3)], rows, 3) == [Q(2), Q(1), Q(1)]
        with pytest.raises(ValueError):
            combine([1], rows, 3)


class TestSubspace:
    def test_full_space_ops(self):
        a = Subspace.full(3)
        assert a == a.intersect(a)
        assert a.contains(a)

    def test_axes(self):
        e1 = Subspace.from_vectors(2, [(1, 0)])
        e2 = Subspace.from_vectors(2, [(0, 1)])
        assert e1.intersect(e2).dim == 0

    def test_skew_lines(self):
        a = Subspace.from_vectors(3, [(1, 1, 0)])
        b = Subspace.from_vectors(3, [(1, -1, 0)])
        assert a.intersect(b).dim == 0

    def test_canonicity(self):
        a = Subspace.from_vectors(3, [(2, 2, 0), (0, 4, 4)])
        b = Subspace.from_vectors(3, [(1, 1, 0), (1, 3, 2)])
        assert a == b

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError):
            Subspace.full(2).intersect(Subspace.full(3))
        with pytest.raises(ValueError):
            Subspace.full(2).contains(Subspace.full(3))

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
            s = Subspace.from_vectors(n, a.vectors() + b.vectors())
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
        assert SparseSystem(cols, map(sparse, m.data)).rank == rank_bareiss(m)


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
    assert len(piv) == rank_bareiss(m)


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
    system = SparseSystem(ncols, (dict(row) for row in rows))
    dense = Matrix([[row.get(c, 0) for c in range(ncols)] for row in rows])
    return system, dense


def _bareiss_pivots(m):
    """The columns that raise the Bareiss rank of the column prefix: the
    pivot columns of the RREF, found without SparseSystem."""
    ranks = [rank_bareiss(Matrix([row[:c] for row in m.data])) for c in range(m.cols + 1)]
    return tuple(c for c in range(m.cols) if ranks[c + 1] > ranks[c])


def sparse_squares(n):
    """Random n x n rational matrices with many zero entries."""
    entry = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-5, 5), st.integers(1, 4)))
    square = st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)
    return square.map(Matrix)


@st.composite
def matrix_pairs(draw):
    """Two random n x n rational matrices, n <= 4, with many zero entries."""
    n = draw(st.integers(0, 4))
    return draw(sparse_squares(n)), draw(sparse_squares(n))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(matrix_pairs())
@example((zeros(0, 0), zeros(0, 0)))
@example((zeros(3, 3), Matrix([[1, 2, 0], [0, Q(1, 2), 0], [3, 0, -1]])))
def test_commutator_is_difference_of_products(pair):
    a, b = pair
    assert a.commutator(b) == mat_comb((1, mat_mul(a, b)), (-1, mat_mul(b, a)))
    assert a.commutator(a) == zeros(a.rows, a.rows)


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
        assert rank_bareiss(Matrix([*dense.data, *r.data])) == len(pivots)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_rows_annihilate_nullspace_basis(self, case):
        # the sparse basis rows, and the canonical kernel read off them
        ncols, rows = case
        system, dense = _solved(ncols, rows)
        basis = system.nullspace_basis()
        assert len(basis) == ncols - system.rank
        for x in basis:
            assert isinstance(x, dict) and all(x.values())
            for row in rows:
                assert sum((v * x.get(c, 0) for c, v in row.items()), Q(0)) == 0
        kernel = system.kernel()
        assert kernel.dim == ncols - rank_bareiss(dense)
        for v in kernel.vectors():
            for row in rows:
                assert sum((x * v[c] for c, x in row.items()), Q(0)) == 0

    def test_kernel_of_zero_rows_is_the_full_space(self, monkeypatch):
        # with no pivot row the unit rows are already canonical: no second
        # elimination
        system = SparseSystem(4, [{}, {}, {}])
        built = []

        class Counting(SparseSystem):
            def __init__(self, ncols, rows):
                built.append(ncols)
                super().__init__(ncols, rows)

        monkeypatch.setattr(linalg, "SparseSystem", Counting)
        assert system.kernel() == Subspace.full(4)
        assert built == []

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(sparse_systems())
    def test_basis_is_identity_on_free_columns(self, case):
        ncols, rows = case
        system, _ = _solved(ncols, rows)
        free = [c for c in range(ncols) if c not in system.pivot_rows]
        for fc, x in zip(free, system.nullspace_basis()):
            assert [x.get(c, 0) for c in free] == [Q(1) if c == fc else Q(0) for c in free]

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
        system, m = _solved(*case)
        r, pivots = rref(m)
        expected = r.data[: len(pivots)]
        for s in (Subspace.from_system(system), Subspace.from_vectors(m.cols, m.data)):
            assert s.vectors() == expected
            assert tuple(s.rows) == pivots
            assert all(dense(row, m.cols) == v for row, v in zip(s.rows.values(), expected))

    def test_from_vectors_coerces_each_entry_and_builds_no_matrix(self, monkeypatch):
        built = []
        init = Matrix.__init__

        def counting_init(self, data):
            built.append(len(data))
            init(self, data)

        monkeypatch.setattr(Matrix, "__init__", counting_init)
        s = Subspace.from_vectors(3, [("1/2", 0, 1.5), (1, "0", 3), (0, Q(2, 3), 0)])
        assert built == []
        assert s.vectors() == ((1, 0, 3), (0, 1, 0))

    def test_zero_vectors_give_the_zero_subspace(self):
        assert Subspace.from_vectors(3, [(0, 0, 0)]) == Subspace(3, {})
        assert Subspace.from_vectors(3, []) == Subspace(3, {})


# The dense formulations that the sparse rows of Subspace replaced, kept as
# oracles: they read the dense basis vectors only.


def dense_combine(coeffs, vectors, n):
    out = [Q(0)] * n
    for c, v in zip(coeffs, vectors, strict=True):
        out = [a + c * x for a, x in zip(out, v)]
    return out


def dense_coords_of(s, v):
    """The entries of v at the first nonzero column of each basis vector,
    checked by dense reconstruction."""
    vecs = s.vectors()
    v = [Q(x) for x in v]
    coords = tuple(v[next(j for j, x in enumerate(u) if x)] for u in vecs)
    return coords if dense_combine(coords, vecs, s.ambient_dim) == v else None


def dense_intersect(a, b):
    """Zassenhaus by a dense rref of [[A A], [B 0]], then from_vectors."""
    n = a.ambient_dim
    rows = [list(v) + list(v) for v in a.vectors()]
    rows += [list(v) + [Q(0)] * n for v in b.vectors()]
    if not rows:
        return Subspace(n, {})
    r, pivots = rref(Matrix(rows))
    return Subspace.from_vectors(n, [row[n:] for row in r.data[: len(pivots)] if not any(row[:n])])


def dense_complement(a):
    return SparseSystem(a.ambient_dim, map(sparse, a.vectors())).kernel()


def dense_contains(a, b):
    return all(dense_coords_of(a, v) is not None for v in b.vectors())


@st.composite
def subspace_pairs(draw):
    """(n, A, B, coefficients, probe): spanning vectors of two subspaces of
    Q^n, n <= 6, with sparse rational entries and up to two shared vectors,
    integer coefficients for a combination of A, and one more vector."""
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(Q(0)), st.builds(Q, st.integers(-4, 4), st.integers(1, 3)))
    vec = st.lists(entry, min_size=n, max_size=n)
    shared = draw(st.lists(vec, max_size=2))
    a = shared + draw(st.lists(vec, max_size=n))
    b = shared + draw(st.lists(vec, max_size=n))
    coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(a), max_size=len(a)))
    return n, a, b, coeffs, draw(vec)


class TestSubspaceOracles:
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(subspace_pairs())
    def test_operations_match_dense_oracles(self, case):
        n, va, vb, coeffs, probe = case
        a, b = Subspace.from_vectors(n, va), Subspace.from_vectors(n, vb)
        inter = a.intersect(b)
        assert inter == dense_intersect(a, b)
        total = Subspace.from_vectors(n, a.vectors() + b.vectors())
        assert a.orthogonal_complement() == dense_complement(a)
        for v in (probe, dense_combine(coeffs, va, n), *va, *vb):
            assert a.coords_of(v) == dense_coords_of(a, v)
            assert a.contains_vector(v) == (dense_coords_of(a, v) is not None)
        for x, y in ((a, b), (b, a), (a, inter), (b, inter), (total, a), (inter, a)):
            assert x.contains(y) == dense_contains(x, y)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(subspace_pairs(), st.data())
    def test_shuffled_rescaled_span_is_equal(self, case, data):
        n, va, _, _, _ = case
        order = data.draw(st.permutations(range(len(va))))
        nonzero = st.builds(Q, st.integers(1, 5), st.integers(1, 4))
        scales = data.draw(st.lists(nonzero, min_size=len(va), max_size=len(va)))
        a = Subspace.from_vectors(n, va)
        b = Subspace.from_vectors(n, [[c * x for x in va[k]] for k, c in zip(order, scales)])
        assert a == b

    def test_coords_of_row_rejects_a_key_outside_the_support(self):
        # the entries at the leads match a basis combination, the extra key
        # does not
        a = Subspace.from_vectors(4, [(1, 2, 0, 0), (0, 0, 1, 0)])
        assert a.coords_of_row({0: Q(1), 1: Q(2), 2: Q(3)}) == (Q(1), Q(3))
        assert a.coords_of_row({0: Q(1), 1: Q(2), 2: Q(3), 3: Q(1)}) is None
        assert a.coords_of_row({3: Q(1)}) is None

    def test_equality_ignores_the_entry_order_of_a_row(self):
        a = Subspace(3, {0: {0: Q(1), 2: Q(5)}, 1: {1: Q(1)}})
        b = Subspace(3, {0: {2: Q(5), 0: Q(1)}, 1: {1: Q(1)}})
        assert a == b


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


def _rational_roots_oracle(ints, top=None):
    """Every +-p/q with p | a0 and q | an, for every divisor found by trying
    each integer up to |a0| (and, when given, top) and |an|; 0 when the
    constant term is 0."""
    shift = next(k for k, c in enumerate(ints) if c)
    a0, an = abs(ints[shift]), abs(ints[-1])
    found = {Q(0)} if shift else set()
    for p in (p for p in range(1, min(a0, top or a0) + 1) if a0 % p == 0):
        for q in (q for q in range(1, an + 1) if an % q == 0):
            for r in (Q(p, q), Q(-p, q)):
                if sum(c * r ** k for k, c in enumerate(ints)) == 0:
                    found.add(r)
    return sorted(found)


def _monic(coeffs):
    """The coefficient tuple of the integer polynomial coeffs divided by its
    leading coefficient."""
    return tuple(Q(c, coeffs[-1]) for c in coeffs)


class TestPolynomial:
    """Polynomials as coefficient tuples, lowest degree first."""

    def test_rational_roots(self):
        # (2x - 1)(x + 3) = 2x^2 + 5x - 3
        assert rational_roots([-3, 5, 2]) == [Q(-3), Q(1, 2)]
        assert rational_roots([1, 0, 1]) == []
        # max_k ceil(|a_(n-k)/an|^(1/k)) is 5 here, below the root -6: the
        # numerator bound needs Fujiwara's factor 2
        sextic = _poly_times([6, 1], [5, 1], [-3, 1], [-3, 1], [2, 0, 1])
        assert rational_roots(sextic) == [Q(-6), Q(-5), Q(3)]
        for bad in ([], [0], [1, 2, 0]):
            with pytest.raises(ValueError):
                rational_roots(bad)

    def test_rational_roots_of_one_to_twenty(self):
        # a0 = 20!: trial division of a0 up to its square root would run for hours
        linear = _poly_times(*[[-k, 1] for k in range(1, 21)])
        for coeffs in (linear, _poly_times(linear, [2, 0, 1])):
            start = time.perf_counter()
            roots = rational_roots(coeffs)
            assert time.perf_counter() - start < 1.0
            assert roots == [Q(k) for k in range(1, 21)]

    def test_rational_roots_of_one_to_thirty_one_match_divisor_oracle(self):
        # the minimal polynomial of the grading derivation of nonabelian2^(31),
        # whose candidates are tested in integers; a0 = 31! has too many
        # divisors to try each, so the oracle stops at 64, past every root
        ints = _poly_times(*[[-k, 1] for k in range(1, 32)])
        expected = [Q(k) for k in range(1, 32)]
        assert rational_roots(ints) == expected == _rational_roots_oracle(ints, 64)

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
        expected = sorted({Q(p, q) for p, q in roots})
        assert rational_roots([Q(c, den) for c in ints]) == expected == _rational_roots_oracle(ints)


def minpoly(m):
    """minimal_polynomial of the square matrix m, given by its entries."""
    return minimal_polynomial(m.rows, entries(m))


def _minimal_polynomial_oracle(m):
    """The least k with m^k = sum_(i<k) x_i m^i, found by one solve per
    degree over the powers formed by the reference product, as
    (-x_0, ..., -x_(k-1), 1)."""
    powers = [identity(m.rows)]
    while True:
        powers.append(mat_mul(powers[-1], m))
        *lower, top = (p.flatten() for p in powers)
        x = solve(Matrix.from_columns(lower), top)
        if x is not None:
            return (*(-c for c in x), ONE)


def _assert_minpoly(m):
    """minpoly(m) annihilates m, by Horner's rule over the reference
    product, and is the oracle's polynomial of least degree."""
    p = minpoly(m)
    n = m.rows
    value = zeros(n, n)
    for c in reversed(p):
        value = mat_comb((1, mat_mul(value, m)), (c, identity(n)))
    assert not any(value.flatten())
    assert p == _minimal_polynomial_oracle(m)


class TestMinimalPolynomial:
    def test_identity(self):
        assert minpoly(identity(4)) == (-1, 1)

    def test_nilpotent(self):
        assert minimal_polynomial(2, {1: 1}) == (0, 0, 1)

    def test_diag(self):
        # (x-1)(x-2) = x^2 - 3x + 2
        assert minimal_polynomial(2, {0: 1, 3: 2}) == (2, -3, 1)
        assert minimal_polynomial(0, {}) == (1,)

    @pytest.mark.parametrize(
        "d", [{4: 1}, {-1: 1}, {0: 1, 9: 0}], ids=["past-n2", "negative", "zero-entry"]
    )
    def test_entry_index_outside_range(self, d):
        # an index outside range(n^2), even of a zero entry, is no entry of
        # an n x n matrix, as check_images refuses it
        with pytest.raises(ValueError, match=r"^an entry index is outside range\(4\)$"):
            minimal_polynomial(2, d)
        with pytest.raises(ValueError, match=r"^an entry index is outside range\(4\)$"):
            refine_eigenspaces(2, [d], [[Q(0)]])

    def test_annihilates(self):
        rng = random.Random(5)
        for _ in range(25):
            n = rng.randint(1, 4)
            _assert_minpoly(M([[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]))

    def test_one_solve_per_call(self, monkeypatch):
        # the grading derivation of nonabelian2^(8) has eigenvalues 1 .. 8,
        # so degree 8: one SparseSystem finds it, and one solve writes m^8
        calls = []

        def counting(a, b):
            calls.append(a.cols)
            return solve(a, b)

        monkeypatch.setattr(linalg, "solve", counting)
        p = minimal_polynomial(16, grading_derivation(nonabelian2(), 8))
        assert calls == [8]
        assert rational_roots(p) == [Q(k) for k in range(1, 9)]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(0, 4).flatmap(sparse_squares))
@example(zeros(0, 0))
@example(zeros(3, 3))
def test_minimal_polynomial_matches_reference_product(m):
    _assert_minpoly(m)


def companion(coeffs):
    """The companion matrix of the monic polynomial with the integer
    coefficients coeffs, lowest degree first; its minimal polynomial is that
    polynomial."""
    n = len(coeffs) - 1
    lead = Q(coeffs[-1])
    return M([[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[i] / lead] for i in range(n)])


def weights_on_abelian(m):
    """The weights of m as a torus of abelian(n), where every matrix is a
    derivation, so the torus check is the diagonalizability test over Q;
    None when m has no eigenbasis over Q."""
    rep = verify_torus(abelian(m.rows), [entries(m)])
    return tuple(fun[0] for fun, _ in rep.parts) if rep.ok else None


class TestSplitSemisimple:
    """One matrix is split semisimple, diagonalizable over Q, exactly when
    it generates a torus of the abelian algebra of its size."""

    def test_diag_repeated(self):
        assert weights_on_abelian(M([[1, 0, 0], [0, 1, 0], [0, 0, 2]])) == (Q(1), Q(2))

    def test_jordan_block(self):
        # x^2: one rational root, but not squarefree, so no eigenbasis
        m = M([[0, 1], [0, 0]])
        assert rational_roots(minpoly(m)) == [Q(0)]
        assert weights_on_abelian(m) is None

    @pytest.mark.parametrize(
        "coeffs, roots, weights",
        [
            ([-3, 5, 2], [Q(-3), Q(1, 2)], (Q(-3), Q(1, 2))),
            ([1, 0, 1], [], None),
            ([1, 0, 2, 0, 1], [], None),
            (_poly_times([-2, 1], [-2, 1], [1, 1]), [Q(-1), Q(2)], None),
            (_poly_times([-1, 1], [-2, 0, 1]), [Q(1)], None),
        ],
        ids=["(2x-1)(x+3)", "x^2+1", "(x^2+1)^2", "(x-2)^2(x+1)", "(x-1)(x^2-2)"],
    )
    def test_companion(self, coeffs, roots, weights):
        m = companion(coeffs)
        assert minpoly(m) == _monic(coeffs)
        assert rational_roots(minpoly(m)) == roots
        assert weights_on_abelian(m) == weights

    def test_rotation_not_split(self):
        # x^2 + 1 is squarefree but has no rational root
        m = M([[0, -1], [1, 0]])
        assert rational_roots(minpoly(m)) == []
        assert weights_on_abelian(m) is None
