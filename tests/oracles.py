"""Oracles, data and strategies shared by the test modules.

Not a test module: the test modules import from here, never from each
other.  The dense helpers read `Matrix.data` and `LieAlgebra.bracket` only,
so they share no code with the sparse paths of the library they check.
"""

from pathlib import Path

from hypothesis import strategies as st

from lieq.constructions import catalog
from lieq.fileio import parse_algebra
from lieq.liealg import LieAlgebra
from lieq.linalg import Matrix, Q, SparseSystem, Subspace

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


def sl2_plus_center():
    """sl2 + Q: a centre, and dim Der = 4 = dim g, one more than dim ad."""
    return LieAlgebra(4, {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}})


def sparse(v):
    """The nonzero entries of the vector v as a sparse row {index: value}."""
    return {j: x for j, x in enumerate(v) if x}


def zeros(rows, cols):
    """The rows x cols zero matrix."""
    return Matrix([[0] * cols for _ in range(rows)])


def entries(m):
    """The sparse row-major entries {r*n + c: value} of the n x n matrix m:
    the form in which lieq passes a derivation."""
    return sparse(m.flatten())


def entries_mat(e, n):
    """The n x n matrix with the sparse row-major entries e: the inverse of
    entries."""
    return Matrix([[e.get(r * n + c, Q(0)) for c in range(n)] for r in range(n)])


def der_coords(ds, m):
    """The Der(g) coordinates of the matrix m, or None when m is not in
    Der(g) = ds: the coordinates of its entries in ds.space."""
    return ds.space.coords_of_row(entries(m))


def der_mats(ds):
    """The canonical Der(g) basis of ds as dense matrices, read off its
    sparse rows: the tests' dense view of Der(g)."""
    return [entries_mat(row, ds.base.dim) for row in ds.space.rows.values()]


def column(m, j):
    """Column j of the matrix m, read off its rows."""
    return tuple(row[j] for row in m.data)


def mat_vec(m, v):
    """The matrix-vector product m v, row by row: the tests' oracle for
    applying a matrix to a vector."""
    return tuple(sum((a * b for a, b in zip(row, v)), Q(0)) for row in m.data)


def mat_comb(*terms):
    """sum c m over the (c, m) pairs, entry by entry, for matrices of one
    shape: the tests' oracle for linear combinations of matrices."""
    (_, first), *_ = terms
    return Matrix(
        [
            [sum((Q(c) * m.data[i][j] for c, m in terms), Q(0)) for j in range(first.cols)]
            for i in range(first.rows)
        ]
    )


def dense_is_derivation(g, m):
    """The dense Leibniz check that is_derivation replaced, kept as an
    oracle: mat_vec and LieAlgebra.bracket on every basis pair."""
    if m.rows != g.dim or m.cols != g.dim:
        return False
    cols = [column(m, i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = mat_vec(m, g.bracket(g.basis_element(i), g.basis_element(j)))
            rhs = g.bracket(cols[i], g.basis_element(j))
            rhs2 = g.bracket(g.basis_element(i), cols[j])
            if any(a != b + c for a, b, c in zip(lhs, rhs, rhs2)):
                return False
    return True


def bracket_span(g):
    """[g, g] as the span of the nonzero brackets [e_i, e_j], i < j, read
    off sc: the formula that product_space(g, g) replaced, kept as an
    oracle."""
    rows = (v for i, row in enumerate(g.sc) for j, v in row.items() if i < j)
    return Subspace.from_system(SparseSystem(g.dim, rows))


def dense_rref(rows, n):
    """The nonzero rows of the reduced row echelon form of the dense rows of
    length n, as tuples, by Gauss-Jordan elimination over Q."""
    rows = [[Q(x) for x in row] for row in rows]
    out = []
    for c in range(n):
        pivot = next((r for r in rows if r[c]), None)
        if pivot is None:
            continue
        rows.remove(pivot)
        pivot = [x / pivot[c] for x in pivot]
        rows = [[x - r[c] * p for x, p in zip(r, pivot)] for r in rows]
        out = [[x - r[c] * p for x, p in zip(r, pivot)] for r in out]
        out.append(pivot)
    return tuple(tuple(r) for r in out)


def dense_center(g):
    """Z(g) as the common kernel of the dense matrices ad(e_j), whose column
    i is [e_j, e_i] by LieAlgebra.bracket: the canonical rows, by dense_rref,
    of the nullspace basis read off the reduced rows."""
    n = g.dim
    e = [g.basis_element(i) for i in range(n)]
    cols = [[g.bracket(e[j], e[i]) for i in range(n)] for j in range(n)]
    reduced = dense_rref([[col[k] for col in ad] for ad in cols for k in range(n)], n)
    leads = [next(i for i, x in enumerate(r) if x) for r in reduced]
    basis = []
    for f in range(n):
        if f not in leads:
            v = [Q(0)] * n
            v[f] = Q(1)
            for lead, r in zip(leads, reduced):
                v[lead] = -r[f]
            basis.append(v)
    return dense_rref(basis, n)


def bumped(m, i, j, by):
    """m with by added to entry (i, j)."""
    return Matrix([[x + by if (r, c) == (i, j) else x for c, x in enumerate(row)]
                   for r, row in enumerate(m.data)])


def rebased(g, p, pinv):
    """g in the basis of the columns of p: [f_a, f_b] = p^-1 [p e_a, p e_b]."""
    cols = [column(p, a) for a in range(g.dim)]
    table = {}
    for a in range(g.dim):
        for b in range(a + 1, g.dim):
            v = mat_vec(pinv, g.bracket(cols[a], cols[b]))
            table[(a, b)] = {k: c for k, c in enumerate(v) if c}
    return LieAlgebra(g.dim, table)


def elementary(n, i, j, c):
    """I + c E_ij, i != j: unimodular, with inverse I - c E_ij."""
    return Matrix([[c if (r, s) == (i, j) else int(r == s) for s in range(n)] for r in range(n)])


@st.composite
def unimodular(draw, n):
    """(P, P^-1) in GL_n(Z): P a product of a few elementary integer
    matrices with small entries (none when n = 1), its inverse the product
    of the inverses reversed."""
    p = pinv = Matrix.identity(n)
    for _ in range(draw(st.integers(1, 4)) if n > 1 else 0):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        j += j >= i
        c = draw(st.sampled_from((-2, -1, 1, 2)))
        p = p @ elementary(n, i, j, c)
        pinv = elementary(n, i, j, -c) @ pinv
    return p, pinv
