"""Acceptance suite: one test per criterion, each printing a pass/fail line.

All arithmetic is exact, so every comparison is equality; the only
tolerances are the per-criterion wall-clock budgets.  Run with
`pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time

from lieq.constructions import (
    abelian,
    full_graph,
    graded_power,
    grading_derivation,
    heisenberg,
)
from lieq.derivations import (
    derivations,
    diagonal_derivation_torus,
    is_complete,
    is_derivation,
    verify_torus,
)
from lieq.linalg import Matrix, Q, SparseSystem, Subspace, rank_bareiss
from lieq.weights import (
    lemma3_check,
    prop4_check,
    theorem1_pipeline,
    theorem2_check,
    theorem3_check,
)

from oracles import der_coords, der_mats, entries, entries_mat, sparse, zeros


def announce(num, ok, detail):
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_heisenberg_derivation_dimensions():
    details = []
    ok = True
    for N, expected in ((1, 6), (2, 15), (3, 28)):
        t0 = time.monotonic()
        ds = derivations(heisenberg(N))
        dt = time.monotonic() - t0
        ok &= ds.dim == expected == N * (2 * N + 1) + 2 * N + 1
        ok &= dt < 1.0
        details.append(f"N={N}: dim Der = {ds.dim} (expected {expected}) in {dt:.3f}s")
    for N in (1, 2):
        cert = is_complete(derivations(derivations(heisenberg(N)).algebra))
        ok &= cert.complete
        details.append(f"Der(h{2*N+1}) complete = {cert.complete}")
    announce(1, ok, "; ".join(details))


def test_criterion_2_prop3_full_graph_not_complete():
    t0 = time.monotonic()
    g = heisenberg(1)
    fg = full_graph(derivations(g))
    ds = derivations(fg)
    center_dim = fg.center().dim
    cert = is_complete(ds)
    witness_ok = (
        cert.witness is not None
        and cert.witness[0] == "outer"
        and is_derivation(fg, cert.witness[1])
        and not ds.inner_flat.contains_vector(entries_mat(cert.witness[1], fg.dim).flatten())
    )
    dt = time.monotonic() - t0
    ok = center_dim == 0 and not cert.complete and witness_ok and dt < 5.0
    announce(
        2,
        ok,
        f"center(f(h3)) dim = {center_dim}, complete = {cert.complete}, "
        f"outer witness verified = {witness_ok}, {dt:.3f}s",
    )


def test_criterion_3_prop4_der_of_full_graph():
    t0 = time.monotonic()
    fg = full_graph(derivations(heisenberg(1)))
    ds = derivations(fg)
    cert = is_complete(derivations(ds.algebra))
    dt = time.monotonic() - t0
    ok = cert.complete and ds.dim == fg.dim + 1 == 10 and dt < 10.0
    announce(
        3,
        ok,
        f"dim Der(f(h3)) = {ds.dim}, dim f(h3) + 1 = {fg.dim + 1}, "
        f"Der complete = {cert.complete}, {dt:.3f}s",
    )


def test_criterion_4_theorem3_two_levels():
    t0 = time.monotonic()
    rep = theorem3_check(1, 2)
    dt = time.monotonic() - t0
    dims_ok = rep.dims == {
        "f^1(g)": 9,
        "Der(f^1(g))": 10,
        "f^2(g)": 19,
        "Der(f^2(g))": 20,
    }
    ok = rep.ok and dims_ok and dt < 120.0
    failing = [c.name for c in rep.checks if not c.passed]
    announce(
        4,
        ok,
        f"dims {rep.dims}, all checks pass = {rep.ok}"
        + (f", failing: {failing}" if failing else "")
        + f", {dt:.3f}s",
    )


def test_criterion_5_theorem1_graded_square():
    t0 = time.monotonic()
    rep = theorem1_pipeline(graded_power(heisenberg(1), 2), [grading_derivation(heisenberg(1), 2)])
    dt = time.monotonic() - t0
    dim_ok = rep.dims["Der(h1)"] == rep.dims["tau"] + 6
    ok = rep.ok and dim_ok and dt < 60.0
    announce(
        5,
        ok,
        f"dim Der(h1) = {rep.dims['Der(h1)']} = dim tau + 6 = {rep.dims['tau'] + 6}, "
        f"span/completeness checks pass = {rep.ok}, {dt:.3f}s",
    )


def test_criterion_6_prop1_nondegenerate_and_maximal_torus():
    t0 = time.monotonic()
    g = graded_power(heisenberg(1), 2)
    parts = verify_torus(g, [grading_derivation(heisenberg(1), 2)]).parts
    flag = all(any(fun) for fun, _ in parts)
    # the maximal diagonal torus satisfies tau = b, certifying h1 complete
    torus = diagonal_derivation_torus(g)
    rep = theorem1_pipeline(g, torus)
    branch = next(
        (c for c in rep.checks if c.name == "maximal_torus_h1_complete"), None
    )
    dt = time.monotonic() - t0
    ok = flag and branch is not None and branch.passed and rep.ok and dt < 60.0
    announce(
        6,
        ok,
        f"h3^+2 non-degenerate = {flag}, tau = b branch triggered = "
        f"{branch is not None}, h1 complete = {branch.passed if branch else None}, {dt:.3f}s",
    )


def test_criterion_7_property_suites():
    t0 = time.monotonic()
    ok = True
    details = []

    # Jacobi on constructed algebras
    gp = graded_power(heisenberg(1), 2)
    constructed = [
        heisenberg(2),
        gp,
        full_graph(derivations(heisenberg(1))),
        derivations(heisenberg(1)).algebra,
    ]
    jac = all(g.validate().ok for g in constructed)
    ok &= jac
    details.append(f"Jacobi on {len(constructed)} constructed algebras: {jac}")

    # Leibniz verifier on every Der basis + closure under commutator
    leib = True
    closure = True
    for g in constructed:
        ds = derivations(g)
        mats = der_mats(ds)
        leib &= all(is_derivation(g, d) for d in ds.space.rows.values())
        for a in range(ds.dim):
            for b in range(a + 1, ds.dim):
                closure &= der_coords(ds, mats[a].commutator(mats[b])) is not None
    ok &= leib and closure
    details.append(f"Leibniz on Der bases: {leib}; commutator closure: {closure}")

    # [g_a, g_b] inside g_{a+b} on weight decompositions
    wprop = True
    for g, torus in (
        (gp, [grading_derivation(heisenberg(1), 2)]),
        (heisenberg(1), diagonal_derivation_torus(heisenberg(1))),
    ):
        parts = verify_torus(g, torus).parts
        funs = {fun: sub for fun, sub in parts}
        for fa, sa in parts:
            for fb, sb in parts:
                target = tuple(a + b for a, b in zip(fa, fb))
                prod = g.product_space(sa, sb)
                wprop &= (
                    funs[target].contains(prod) if target in funs else prod.dim == 0
                )
    ok &= wprop
    details.append(f"weight bracket grading: {wprop}")

    # subspace dimension formula on 200 random pairs
    rng = random.Random(424242)
    dimf = True
    for _ in range(200):
        n = rng.randint(1, 5)
        mk = lambda: Subspace.from_vectors(
            n,
            [[rng.randint(-2, 2) for _ in range(n)] for _ in range(rng.randint(0, n))],
        )
        a, b = mk(), mk()
        total = Subspace.from_vectors(n, a.vectors() + b.vectors())
        dimf &= total.dim + a.intersect(b).dim == a.dim + b.dim
    ok &= dimf
    details.append(f"dim formula on 200 pairs: {dimf}")

    # Bareiss vs Gauss rank on 200 random matrices
    ranks = True
    for _ in range(200):
        r, c = rng.randint(1, 5), rng.randint(1, 5)
        m = Matrix(
            [[Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)]
        )
        ranks &= SparseSystem(c, map(sparse, m.data)).rank == rank_bareiss(m)
    ok &= ranks
    details.append(f"Bareiss = Gauss rank on 200 matrices: {ranks}")

    # Lemma-4 homomorphism law inside theorem2_check
    rep = theorem2_check(full_graph(derivations(heisenberg(1))))
    law = next(c for c in rep.checks if c.name == "homomorphism_law")
    ok &= law.passed and rep.ok
    details.append(f"lemma-4 homomorphism law: {law.passed}")

    dt = time.monotonic() - t0
    ok &= dt < 300.0
    announce(7, ok, "; ".join(details) + f"; {dt:.3f}s")


def test_criterion_8_lemma3_instances():
    g = heisenberg(1)
    # faithful action: every derivation, acting as itself
    ds = derivations(g)
    faithful = lemma3_check(ds.algebra, g, ds.space.rows.values())
    # documented hypothesis gap: abelian s, phi = 0
    s = abelian(1)
    gap = lemma3_check(s, g, [entries(zeros(3, 3))])
    ok = faithful.ok and not gap.ok
    announce(
        8,
        ok,
        f"faithful instance holds = {faithful.ok}; "
        f"hypothesis-gap instance reported as failure (no crash) = {not gap.ok}",
    )


def test_criterion_9_theorem3_three_levels():
    # the paper's 9/10 and 19/20 ladder extended to f^3(h3) = 39, Der = 40
    t0 = time.monotonic()
    rep = theorem3_check(1, 3)
    dt = time.monotonic() - t0
    dims_ok = rep.dims == {
        "f^1(g)": 9,
        "Der(f^1(g))": 10,
        "f^2(g)": 19,
        "Der(f^2(g))": 20,
        "f^3(g)": 39,
        "Der(f^3(g))": 40,
    }
    ok = rep.ok and dims_ok and dt < 20.0
    failing = [c.name for c in rep.checks if not c.passed]
    announce(
        9,
        ok,
        f"dims {rep.dims}, all checks pass = {rep.ok}"
        + (f", failing: {failing}" if failing else "")
        + f", {dt:.3f}s",
    )


# The paper's ladders on h5 and h7.  Each budget is about five times the
# median of three in-process runs on the Fraction backend (CPython 3.11.7,
# 2 vCPUs): 2.1 s, 0.9 s and 0.4 s.


def test_criterion_10_theorem3_heisenberg5_two_levels():
    # f(h5) = 20, Der = 21; f^2(h5) = 41, Der = 42
    t0 = time.monotonic()
    rep = theorem3_check(2, 2)
    dt = time.monotonic() - t0
    dims_ok = rep.dims == {
        "f^1(g)": 20,
        "Der(f^1(g))": 21,
        "f^2(g)": 41,
        "Der(f^2(g))": 42,
    }
    ok = rep.ok and dims_ok and dt < 10.0
    failing = [c.name for c in rep.checks if not c.passed]
    announce(
        10,
        ok,
        f"dims {rep.dims}, all checks pass = {rep.ok}"
        + (f", failing: {failing}" if failing else "")
        + f", {dt:.3f}s",
    )


def test_criterion_11_prop4_heisenberg5_and_7():
    t0 = time.monotonic()
    reps = {N: prop4_check(N) for N in (2, 3)}
    dt = time.monotonic() - t0
    dims_ok = reps[2].dims == {"f(g)": 20, "Der(f(g))": 21} and reps[3].dims == {
        "f(g)": 35,
        "Der(f(g))": 36,
    }
    ok = all(r.ok for r in reps.values()) and dims_ok and dt < 5.0
    announce(
        11,
        ok,
        "; ".join(f"N={N}: dims {r.dims}, ok = {r.ok}" for N, r in reps.items())
        + f", {dt:.3f}s",
    )


def test_criterion_12_theorem1_graded_cube():
    # h3^(3) with its grading torus: Der(h1) = tau + g = 16 + 9 = 25
    t0 = time.monotonic()
    rep = theorem1_pipeline(graded_power(heisenberg(1), 3), [grading_derivation(heisenberg(1), 3)])
    dt = time.monotonic() - t0
    dim_ok = rep.dims["Der(h1)"] == 25 and rep.dims["tau"] == 16
    ok = rep.ok and dim_ok and dt < 3.0
    announce(
        12,
        ok,
        f"dim Der(h1) = {rep.dims['Der(h1)']} = dim tau + 9 = {rep.dims['tau'] + 9}, "
        f"all checks pass = {rep.ok}, {dt:.3f}s",
    )
