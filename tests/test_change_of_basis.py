"""Metamorphic property: an integer change of basis P in GL_n(Z) changes no
invariant of Der(g).

A derivation D of g is, in the basis of the columns of P, the matrix
P^-1 D P, so Der(P.g) = P^-1 Der(g) P: the dimensions of Der(g), ad(g) and
the centre and completeness are unchanged, and every conjugated basis matrix
is a derivation of the rebased algebra with coordinates in its Der.  A
torus t of g is the torus P^-1 t P of P.g, with the same weights and the
weight spaces mapped by P^-1.

On the abelian algebra every matrix is a derivation, so there a torus is
exactly a set of matrices with a common eigenbasis over Q.  Generators
P B P^-1, with B integer diagonal or carrying a Jordan or a rotation block,
check `verify_torus` against that construction.
"""

from functools import lru_cache
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from lieq.constructions import abelian, catalog
from lieq.derivations import (
    derivations,
    diagonal_derivation_torus,
    is_complete,
    is_derivation,
    verify_torus,
)
from lieq.linalg import Matrix, Subspace
from lieq.weights import weight_decomposition

from oracles import der_coords, der_mats, entries, entries_mat, mat_vec, rebased, unimodular

ALGEBRAS = (
    "heisenberg:1",
    "nonabelian2",
    "full-graph:nonabelian2",
    "graded-power:heisenberg:1:2",
)


@lru_cache(maxsize=None)
def invariants(name):
    g = catalog(name)
    ds = derivations(g)
    return g, ds, (ds.dim, ds.inner.dim, g.center().dim, is_complete(ds).complete)


@lru_cache(maxsize=None)
def weight_spaces(name):
    g = catalog(name)
    torus = diagonal_derivation_torus(g)
    return torus, weight_decomposition(g, torus)


@st.composite
def unimodular_changes(draw):
    """(name, P, P^-1) for one of ALGEBRAS and P in GL_n(Z), n its dimension."""
    name = draw(st.sampled_from(ALGEBRAS))
    return (name, *draw(unimodular(catalog(name).dim)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(unimodular_changes())
def test_change_of_basis_keeps_der_invariants(case):
    name, p, pinv = case
    assert p @ pinv == Matrix.identity(p.rows)
    g, ds, expected = invariants(name)
    h = rebased(g, p, pinv)
    dh = derivations(h)
    assert (dh.dim, dh.inner.dim, h.center().dim, is_complete(dh).complete) == expected
    for d in der_mats(ds):
        conj = pinv @ d @ p
        assert is_derivation(h, entries(conj))
        assert der_coords(dh, conj) is not None


@settings(max_examples=25, deadline=None, derandomize=True)
@given(unimodular_changes())
def test_change_of_basis_keeps_weight_multisets(case):
    name, p, pinv = case
    g = invariants(name)[0]
    torus, parts = weight_spaces(name)
    conj = [entries(pinv @ entries_mat(t, g.dim) @ p) for t in torus]
    rebased_parts = weight_decomposition(rebased(g, p, pinv), conj)
    assert [(fun, sub.dim) for fun, sub in rebased_parts] == [(fun, sub.dim) for fun, sub in parts]
    for (_, sub), (_, rebased_sub) in zip(parts, rebased_parts):
        assert Subspace.from_vectors(g.dim, [mat_vec(pinv, v) for v in sub.vectors()]) == rebased_sub


@st.composite
def torus_candidates(draw):
    """(n, generators, is_torus): up to three matrices P B P^-1 on Q^n,
    n <= 4.  B has small integer diagonal entries, and for some generators a
    Jordan block [[l, 1], [0, l]] or the rotation block [[0, -1], [1, 0]]
    in its top corner; P is shared by the generators or, for some, drawn
    anew.  is_torus: no B has such a block, so each generator is
    diagonalizable over Q, and every pair commutes."""
    n = draw(st.integers(1, 4))
    shared = draw(unimodular(n))
    kinds = ("diagonal", "diagonal", "jordan", "rotation") if n > 1 else ("diagonal",)
    gens, diagonalizable = [], True
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        b = [[draw(st.integers(-2, 2)) if i == j else 0 for j in range(n)] for i in range(n)]
        if kind == "jordan":
            b[0][1], b[1][1] = 1, b[0][0]
        elif kind == "rotation":
            b[0][0], b[0][1], b[1][0], b[1][1] = 0, -1, 1, 0
        p, pinv = draw(unimodular(n)) if draw(st.integers(0, 3)) == 0 else shared
        gens.append(p @ Matrix(b) @ pinv)
        diagonalizable = diagonalizable and kind == "diagonal"
    commute = not any(x for a, b in combinations(gens, 2) for x in a.commutator(b).flatten())
    return n, gens, diagonalizable and commute


@settings(max_examples=60, deadline=None, derandomize=True)
@given(torus_candidates())
def test_torus_on_abelian_is_a_common_eigenbasis(case):
    n, gens, is_torus = case
    rep = verify_torus(abelian(n), [entries(b) for b in gens])
    assert rep.ok == is_torus
    if rep.ok:
        assert sum(sub.dim for _, sub in rep.parts) == n
        for fun, sub in rep.parts:
            for b, lam in zip(gens, fun, strict=True):
                assert all(mat_vec(b, v) == tuple(lam * x for x in v) for v in sub.vectors())
