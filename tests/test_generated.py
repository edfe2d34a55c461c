"""Properties over generated algebras.

The algebras are graded powers g^(n) of catalog algebras, and products
s x_phi g of such a g with an abelian s, each phi(s_k) a random integer
combination of the diagonal derivation torus of g.  Those images commute
and are derivations, so phi is a homomorphism s -> Der(g).  Every bracket
of those algebras is a multiple of one basis vector, so each is also taken
in a random integer basis, where brackets have several terms.

Every generated algebra must survive the file round trip with the same
structure constants and the same `lieq analyze --full` report, satisfy
dim f(g) = dim g + dim Der(g), and have `is_derivation` agree with the
dense oracle on perturbed Der(g) basis matrices.  A change of basis P must
keep dim Der, dim ad, dim centre and completeness, and carry each Der(g)
basis matrix D to a derivation P^-1 D P of the rebased algebra.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lieq.cli
from lieq.cli import run_command
from lieq.constructions import abelian, catalog, full_graph, graded_power, semidirect
from lieq.derivations import (
    derivations,
    diagonal_derivation_torus,
    is_complete,
    is_derivation,
)
from lieq.fileio import parse_algebra, serialize_algebra
from lieq.linalg import Q

from oracles import (
    bumped,
    dense_center,
    dense_is_derivation,
    der_mats,
    entries,
    entries_mat,
    mat_comb,
    rebased,
    unimodular,
    zeros,
)

BASES = ("nonabelian2", "heisenberg:1", "abelian:1", "abelian:2", "full-graph:nonabelian2")


@st.composite
def graded_powers(draw, max_n=3):
    """g^(n) for g in BASES and 1 <= n <= max_n.  At max_n = 3, f(g) has
    dimension at most 58, within the default LIE_DIM_CAP."""
    return graded_power(catalog(draw(st.sampled_from(BASES))), draw(st.integers(1, max_n)))


@st.composite
def torus_products(draw):
    """s x_phi g for g from graded_powers(2), s abelian of dimension 1 or 2,
    and phi(s_k) an integer combination of diagonal_derivation_torus(g)."""
    g = draw(graded_powers(2))
    torus = [entries_mat(t, g.dim) for t in diagonal_derivation_torus(g)]
    coeffs = st.lists(st.integers(-2, 2), min_size=len(torus), max_size=len(torus))
    images = [
        entries(mat_comb((0, zeros(g.dim, g.dim)), *zip(draw(coeffs), torus)))
        for _ in range(draw(st.integers(1, 2)))
    ]
    return semidirect(abelian(len(images)), g, images)


@st.composite
def changes_of_basis(draw):
    """(g, P, P^-1) for g of graded_powers(2) or torus_products() and P in
    GL_n(Z), n = dim g."""
    g = draw(st.one_of(graded_powers(2), torus_products()))
    return (g, *draw(unimodular(g.dim)))


@st.composite
def rebased_algebras(draw):
    """An algebra of graded_powers(2) or torus_products() in a random
    integer basis."""
    return rebased(*draw(changes_of_basis()))


ALGEBRAS = st.one_of(graded_powers(), torus_products(), rebased_algebras())


def analyze_report(g):
    """stdout of `lieq analyze --full` run on g."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr(lieq.cli, "load_source", lambda src: g)
        assert run_command(["analyze", "generated", "--full"]) == 0
    return out.getvalue()


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ALGEBRAS)
def test_file_round_trip_keeps_table_and_report(g):
    back = parse_algebra(serialize_algebra(g))
    assert (back.dim, back.labels, back.sc) == (g.dim, g.labels, g.sc)
    assert analyze_report(back) == analyze_report(g)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ALGEBRAS)
def test_full_graph_dimension(g):
    ds = derivations(g)
    assert full_graph(g, ds).dim == g.dim + ds.dim


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ALGEBRAS, st.data())
def test_is_derivation_matches_dense_oracle_on_perturbed_basis(g, data):
    # is_derivation reads the entries, the dense oracle the matrix
    rows = list(derivations(g).space.rows.values())
    n = g.dim
    index = st.integers(0, n - 1)
    by = st.builds(Q, st.sampled_from((-2, -1, 1, 2)), st.integers(1, 3))
    for _ in range(3):
        d = rows[data.draw(st.integers(0, len(rows) - 1))]
        m = entries_mat(d, n)
        assert is_derivation(g, d) and dense_is_derivation(g, m)
        m2 = bumped(m, data.draw(index), data.draw(index), data.draw(by))
        assert is_derivation(g, entries(m2)) == dense_is_derivation(g, m2)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(ALGEBRAS)
def test_center_matches_dense_oracle(g):
    assert g.center().vectors() == dense_center(g)


def der_invariants(g, ds):
    """(dim Der, dim ad, dim centre, complete) of g, ds being Der(g)."""
    return ds.dim, ds.inner.dim, g.center().dim, is_complete(ds).complete


@settings(max_examples=15, deadline=None, derandomize=True)
@given(changes_of_basis())
def test_change_of_basis_keeps_der_invariants(case):
    g, p, pinv = case
    h = rebased(g, p, pinv)
    ds = derivations(g)
    assert der_invariants(h, derivations(h)) == der_invariants(g, ds)
    for d in der_mats(ds):
        assert is_derivation(h, entries(pinv @ d @ p))
