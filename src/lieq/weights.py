"""Torus weight decompositions and the executable theorem pipelines.

Weight functionals are coordinate tuples with respect to the supplied torus
generator list.  Every pipeline returns a structured report: named checks
with pass/fail and a witness, plus a dimension table.

A derivation is passed by its sparse row-major entries {r*n + c: q}, the
form of the rows of Der(g): the torus generators, the images checked by
`_add_image_checks` and the outer witness.  Theorem 2 alone builds dense
matrices, its images, whose commutators state the Lemma 4 law.  Lemma 3's
expected centre {(0, z)} is the canonical rows of Z_s(g) shifted past s,
and theorem 3's [Der, Der] is `product_space` of Der with itself.
"""

from __future__ import annotations

from typing import Collection, NamedTuple, Sequence

from .constructions import (
    abelian,
    full_graph,
    heisenberg,
    semidirect,
)
from .derivations import (
    CompletenessCertificate,
    DerivationSpace,
    centralizer_in_der,
    derivations,
    f_s_subspace,
    inner_preimage,
    is_complete,
    is_derivation,
    verify_torus,
    z_s_subspace,
)
from .liealg import LieAlgebra
from .linalg import (  # refine_eigenspaces is re-exported; verify_torus calls it
    InvariantError,
    Matrix,
    SparseSystem,
    Subspace,
    ZERO,
    combine,
    refine_eigenspaces,
)


class DegeneratePairError(ValueError):
    """Raised when a pipeline requires a non-degenerate pair but a zero
    weight occurs."""


class TorusError(ValueError):
    """Raised when the supplied matrices fail torus verification."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"torus verification failed: {report.failures}")


def weight_decomposition(g: LieAlgebra, torus: Sequence[dict]) -> tuple:
    """The weight spaces of a verified torus, its generators given by their
    sparse entries, as the (functional, Subspace) pairs of
    `refine_eigenspaces`; raises TorusError otherwise."""
    report = verify_torus(g, torus)
    if not report.ok:
        raise TorusError(report)
    return report.parts


def is_nondegenerate_pair(g: LieAlgebra, torus: Sequence[dict]) -> tuple[bool, tuple]:
    """(no weight is zero, the weight spaces)."""
    parts = weight_decomposition(g, torus)
    return g.dim == 0 or all(any(fun) for fun, _ in parts), parts


class Check(NamedTuple):
    name: str
    passed: bool
    detail: str = ""

    def __repr__(self):
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}" + (f": {self.detail}" if self.detail else "")


class PipelineReport:
    __slots__ = ("name", "checks", "dims", "notes")

    def __init__(self, name: str):
        self.name = name
        self.checks: list[Check] = []
        self.dims: dict[str, int] = {}
        self.notes: list[str] = []

    def add(self, name: str, passed: bool, detail: str = "") -> None:
        self.checks.append(Check(name, bool(passed), detail))

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def __repr__(self):
        return f"PipelineReport({self.name}, ok={self.ok}, checks={len(self.checks)})"


def _add_complete(
    report: PipelineReport, name: str, cert: CompletenessCertificate, lead: str = ""
) -> None:
    """Add the check name: the completeness certificate cert is complete."""
    detail = f"center {cert.center_dim}, der {cert.der_dim}, inner {cert.inner_dim}"
    report.add(name, cert.complete, lead + detail)


def _outer_witness_ok(h: LieAlgebra, ds: DerivationSpace, cert: CompletenessCertificate) -> bool:
    """cert's witness is an outer derivation of h, re-verified: it passes the
    independent Leibniz check and lies outside ad(h), ds being Der(h)."""
    return (
        cert.witness is not None
        and cert.witness[0] == "outer"
        and is_derivation(h, cert.witness[1])
        and ds.inner_flat.coords_of_row(cert.witness[1]) is None
    )


def _add_image_checks(
    report: PipelineReport, h: LieAlgebra, dh: DerivationSpace, images: list, key: str, label: str
) -> Subspace:
    """Add images_are_derivations, that each image, given by its sparse
    entries, is a derivation of h, and images_span_der_<key>, that together
    they span Der(h) = dh, shown as label; returns their span in
    Q^(dim h ^ 2)."""
    bad = next((k for k, m in enumerate(images) if not is_derivation(h, m)), None)
    detail = "" if bad is None else f"image {bad} fails the Leibniz identity"
    report.add("images_are_derivations", bad is None, detail)
    span = Subspace.from_system(SparseSystem(h.dim ** 2, images))
    report.add(
        f"images_span_der_{key}",
        span == dh.space,
        f"span dim {span.dim}, {label} dim {dh.dim}",
    )
    return span


# ---------------------------------------------------------------------------
# Theorem 1: h = tau x_t g equals Der(h1) for h1 = b x_t g, and is complete.
# ---------------------------------------------------------------------------


def theorem1_pipeline(g: LieAlgebra, torus: Sequence[dict]) -> PipelineReport:
    """Theorem 1 for the torus b spanned by the generators torus, given by
    their sparse row-major entries.  Raises TorusError when they are not a
    torus, DegeneratePairError when a weight is zero, and ValueError when
    they are not a basis of b."""
    report = PipelineReport("theorem1")
    nondeg, _ = is_nondegenerate_pair(g, torus)
    if not nondeg:
        raise DegeneratePairError("the pair carries a zero weight")
    p = len(torus)

    # the torus passed verify_torus, so each generator has Der coordinates
    ds = derivations(g)
    torus_coords = [ds.space.coords_of_row(b) for b in torus]
    if None in torus_coords:
        raise InvariantError("derivation outside computed Der(g)")
    b_sub = Subspace.from_vectors(ds.dim, torus_coords)
    if b_sub.dim != p:
        raise ValueError("the torus generators are linearly dependent")
    h1 = semidirect(abelian(p), g, torus)
    tau_sub = centralizer_in_der(ds, torus_coords)
    tau = [ds.from_coords(v) for v in tau_sub.vectors()]
    tau_alg = ds.algebra.subalgebra_structure(
        tau_sub, tuple(f"t{k}" for k in range(tau_sub.dim))
    )
    h = semidirect(tau_alg, g, tau)

    dh1 = derivations(h1)
    report.dims = {
        "g": g.dim,
        "b": p,
        "tau": tau_sub.dim,
        "h1": h1.dim,
        "h": h.dim,
        "Der(h1)": dh1.dim,
    }

    # Images of the h basis under (t0, g0) -> D_{(t0, g0)}: D_{(t0, 0)} is t0
    # on the g slot of h1 = b x g, and D_{(0, g0)} = ad_h1(0, g0)
    images = [_on_g_slot(t0, p, g.dim) for t0 in tau]
    images += [h1.ad_entries(k) for k in range(p, h1.dim)]

    span = _add_image_checks(report, h1, dh1, images, "h1", "Der(h1)")
    report.add("map_injective", span.dim == h.dim, f"rank {span.dim} vs dim h {h.dim}")
    report.add(
        "dim_identity",
        dh1.dim == tau_sub.dim + g.dim,
        f"dim Der(h1) = {dh1.dim}, dim tau + dim g = {tau_sub.dim + g.dim}",
    )
    _add_complete(report, "h_complete", is_complete(derivations(h)))
    l2 = _lemma2_form_check(dh1, torus)
    report.add("restriction_to_b_form", l2[0], l2[1])

    if b_sub == tau_sub:
        lead = "tau equals the supplied torus; "
        _add_complete(report, "maximal_torus_h1_complete", is_complete(dh1), lead)
        report.notes.append("tau coincides with the supplied torus: h1 itself certified")
    return report


def _on_g_slot(t0: dict, p: int, n: int) -> dict:
    """The sparse entries of t0, given by its sparse entries on g of
    dimension n, on the g slot of b x g, and zero on its p-dimensional b
    slot."""
    return {(p + t // n) * (p + n) + p + t % n: x for t, x in t0.items()}


def _lemma2_form_check(dh1: DerivationSpace, torus: Sequence[dict]) -> tuple[bool, str]:
    """Every derivation D of h1 = b x g satisfies D b = b' + sum alpha(b)
    x_alpha on the torus slot, with x_alpha independent of b.  As b acts on
    g_alpha by alpha(b), that says the g-parts of D b_1, ..., D b_p are
    b_1 X, ..., b_p X for one X in g: stacked, they lie in the span of the
    stacked columns (b_1 e_i, ..., b_p e_i) in Q^(p n).  The columns and
    the g-parts are read off sparse entries: entry (r, j) of D is at
    r*dim + j, and entry (r, i) of b_k at r*n + i."""
    p, dim = len(torus), dh1.base.dim
    n = dim - p
    stacked = Subspace.from_vectors(
        p * n, ([b.get(r * n + i, ZERO) for b in torus for r in range(n)] for i in range(n))
    )
    for didx, d in enumerate(dh1.space.rows.values()):
        g_parts = [d.get(r * dim + j, ZERO) for j in range(p) for r in range(p, dim)]
        if not stacked.contains_vector(g_parts):
            return False, f"derivation {didx}: the torus slot breaks the alpha(b) x_alpha form"
    return True, ""


# ---------------------------------------------------------------------------
# Lemma 3: center of s x_phi g versus {(0, z) : z in Z_s(g)}.
# ---------------------------------------------------------------------------


def lemma3_check(
    s: LieAlgebra, g: LieAlgebra, images: Collection[dict]
) -> PipelineReport:
    """Lemma 3 on s x_phi g, for phi given by the images of s's basis, as
    their sparse row-major entries {r*n + c: q}."""
    report = PipelineReport("lemma3")
    h = semidirect(s, g, images)
    zs = z_s_subspace(g, images)
    # {(0, z)}: the canonical rows of Z_s(g), shifted past the s slot
    p = s.dim
    shifted = {k + p: {c + p: x for c, x in r.items()} for k, r in zs.rows.items()}
    expected = Subspace(h.dim, shifted)
    actual = h.center()
    holds = actual == expected
    report.dims = {
        "h": h.dim,
        "center(h)": actual.dim,
        "Z_s(g)": zs.dim,
    }
    report.add(
        "center_equals_zs",
        holds,
        "literal statement holds"
        if holds
        else "hypothesis gap exhibited: center(h) differs from {(0, Z_s)}",
    )
    return report


# ---------------------------------------------------------------------------
# Theorem 2: Der(f(g)) = Der(g) x F(g) when g is center-free and Der(g)
# is complete; f(g) complete iff F(g) = ad(g).
# ---------------------------------------------------------------------------


def theorem2_check(g: LieAlgebra) -> PipelineReport:
    report = PipelineReport("theorem2")
    if g.center().dim != 0:
        raise ValueError("theorem 2 requires a center-free algebra")
    dsg = derivations(g)
    der_cert = is_complete(derivations(dsg.algebra))
    if not der_cert.complete:
        raise ValueError("theorem 2 requires Der(g) to be complete")

    fg = full_graph(g, dsg)
    dsf = derivations(fg)
    fsub = f_s_subspace(dsg, dsg.space.rows.values())
    report.dims = {
        "g": g.dim,
        "Der(g)": dsg.dim,
        "f(g)": fg.dim,
        "Der(f(g))": dsf.dim,
        "F(g)": fsub.dim,
    }
    report.add(
        "dim_identity",
        dsf.dim == dsg.dim + fsub.dim,
        f"dim Der(f(g)) = {dsf.dim}, dim Der(g) + dim F(g) = {dsg.dim + fsub.dim}",
    )
    report.add(
        "inner_inside_f",
        fsub.contains(dsg.inner),
        "ad(g) must be contained in F(g)",
    )

    # Lemma-4 images of the h-tilde basis (s_j, 0) and (0, D_k), as pairs of
    # Der(g) coordinates: D_{(s, 0)} = ad_f(g)(s, 0), and D_{(0, D)} is the
    # part that Lemma 4 adds
    zero = dsg.algebra.zero()
    basis = [(dsg.algebra.basis_element(j), zero) for j in range(dsg.dim)]
    basis += [(zero, v) for v in fsub.vectors()]
    images = [fg.ad_matrix(fg.basis_element(j)) for j in range(dsg.dim)]
    images += [_lemma4_image(dsg, v) for v in fsub.vectors()]
    flats = [{t: x for t, x in enumerate(m.flatten()) if x} for m in images]
    span = _add_image_checks(report, fg, dsf, flats, "fg", "Der(f(g))")
    report.add(
        "map_injective", span.dim == len(basis), f"rank {span.dim} of {len(basis)}"
    )

    hom_ok, hom_detail = _lemma4_homomorphism_check(dsg, fsub, basis, images, flats)
    report.add("homomorphism_law", hom_ok, hom_detail)

    fg_cert = is_complete(dsf)
    f_is_inner = fsub == dsg.inner
    report.add(
        "complete_iff_f_equals_g",
        fg_cert.complete == f_is_inner,
        f"f(g) complete = {fg_cert.complete}, F(g) = ad(g) is {f_is_inner}",
    )
    return report


def _lemma4_image(dsg: DerivationSpace, d: tuple) -> Matrix:
    """Matrix on f(g) of (s1, x) -> (0, D(x) + I([D, s1])), what Lemma 4
    adds for D in F(g), given in Der(g) coordinates; the [D, s1] with the
    Der(g) basis vectors s1 are the columns of ad(D) in dsg.algebra, read
    off its sparse rows."""
    der, span = dsg.algebra, range(dsg.dim)
    ad_d = der.ad_rows(d)
    rows = [ad_d.get(k, {}) for k in span]
    cols = [der.zero() + inner_preimage(dsg, [r.get(j, ZERO) for r in rows]) for j in span]
    n, dm = dsg.base.dim, dsg.from_coords(d)
    cols += [der.zero() + tuple(dm.get(r * n + i, ZERO) for r in range(n)) for i in range(n)]
    return Matrix.from_columns(cols)


def _lemma4_homomorphism_check(
    dsg: DerivationSpace, fsub: Subspace, basis: list, images: list, flats: list
) -> tuple[bool, str]:
    """[D_{(s1,D1)}, D_{(s2,D2)}] = D_{bracket} on h-tilde basis pairs, where
    bracket = ([s1,s2], [s1,D2] - [s2,D1] + [D1,D2]) is taken in dsg.algebra
    and the left side is the commutator of the image matrices.  On this
    basis (the Der(g) units, then fsub's) the map is linear, so D_{bracket}
    combines the images with [s1,s2] and the fsub coordinates of the rest,
    which exist since F(g) is an ideal of Der(g).  The images are combined
    as flats, their sparse row-major entries."""
    br = dsg.algebra.bracket
    size = (dsg.dim + dsg.base.dim) ** 2
    for a, (s1, d1) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            s2, d2 = basis[b]
            db = tuple(
                x - y + z for x, y, z in zip(br(s1, d2), br(s2, d1), br(d1, d2))
            )
            coords = fsub.coords_of(db)
            got = images[a].commutator(images[b]).flatten()
            if coords is None or tuple(combine(br(s1, s2) + coords, flats, size)) != got:
                return False, f"law fails on basis pair ({a}, {b})"
    return True, ""


# ---------------------------------------------------------------------------
# Theorem 3 and Propositions 2-4 on Heisenberg algebras.
# ---------------------------------------------------------------------------


def theorem3_check(N: int, n_max: int) -> PipelineReport:
    """For g = heisenberg(N) and each n <= n_max: f^n(g) is center-free and
    not complete, Der(f^n(g)) is complete, [Der, Der] is contained in ad,
    and dim Der(f^n(g)) - dim f^n(g) = 1."""
    if N < 1 or n_max < 1:
        raise ValueError("N and n_max must be >= 1")
    report = PipelineReport("theorem3")
    current = heisenberg(N)
    ds_cur = derivations(current)
    for n in range(1, n_max + 1):
        fn = full_graph(current, ds_cur)
        ds_fn = derivations(fn)
        tag = f"f^{n}"
        report.dims[f"{tag}(g)"] = fn.dim
        report.dims[f"Der({tag}(g))"] = ds_fn.dim

        cert = is_complete(ds_fn)
        report.add(
            f"{tag}_center_trivial", cert.center_dim == 0, f"center dim {cert.center_dim}"
        )
        report.add(
            f"{tag}_not_complete",
            not cert.complete,
            f"der {cert.der_dim}, inner {cert.inner_dim}",
        )
        if cert.witness is not None and cert.witness[0] == "outer":
            report.add(f"{tag}_outer_witness_verified", _outer_witness_ok(fn, ds_fn, cert))
        _add_complete(report, f"{tag}_der_complete", is_complete(derivations(ds_fn.algebra)))
        full = Subspace.full(ds_fn.dim)
        der_der = ds_fn.algebra.product_space(full, full)
        report.add(
            f"{tag}_der_der_inside_ad",
            ds_fn.inner.contains(der_der),
            f"[Der,Der] dim {der_der.dim}, ad dim {ds_fn.inner.dim}",
        )
        report.add(
            f"{tag}_dim_gap_one",
            ds_fn.dim - fn.dim == 1,
            f"gap {ds_fn.dim - fn.dim}",
        )
        current, ds_cur = fn, ds_fn
    return report


def prop2_check(N: int) -> PipelineReport:
    """dim Der(h_{2N+1}) = N(2N+1) + 2N + 1, and Der is complete.

    Only dimension and completeness are checked; the source's simplicity and
    sp-module assertions are outside this tool's scope.
    """
    report = PipelineReport("prop2")
    g = heisenberg(N)
    ds = derivations(g)
    expected = N * (2 * N + 1) + 2 * N + 1
    report.dims = {"g": g.dim, "Der(g)": ds.dim}
    report.add(
        "der_dimension",
        ds.dim == expected,
        f"dim Der = {ds.dim}, expected {expected}",
    )
    _add_complete(report, "der_complete", is_complete(derivations(ds.algebra)))
    report.notes.append(
        "dimension and completeness only; simplicity of Der is not checked"
    )
    return report


def prop3_check(N: int) -> PipelineReport:
    """f(h_{2N+1}) has trivial center but is not complete; the outer
    derivation witness is re-verified by the independent Leibniz checker."""
    report = PipelineReport("prop3")
    g = heisenberg(N)
    fg = full_graph(g)
    ds = derivations(fg)
    report.dims = {"f(g)": fg.dim, "Der(f(g))": ds.dim}
    cert = is_complete(ds)
    report.add("center_trivial", cert.center_dim == 0, f"center dim {cert.center_dim}")
    report.add("not_complete", not cert.complete)
    report.add("outer_witness_verified", _outer_witness_ok(fg, ds, cert))
    return report


def prop4_check(N: int) -> PipelineReport:
    """Der(f(h_{2N+1})) is complete with dim = dim f(h) + 1."""
    report = PipelineReport("prop4")
    g = heisenberg(N)
    fg = full_graph(g)
    ds = derivations(fg)
    report.dims = {"f(g)": fg.dim, "Der(f(g))": ds.dim}
    report.add(
        "dim_identity",
        ds.dim == fg.dim + 1,
        f"dim Der(f(g)) = {ds.dim}, dim f(g) + 1 = {fg.dim + 1}",
    )
    _add_complete(report, "der_complete", is_complete(derivations(ds.algebra)))
    return report
