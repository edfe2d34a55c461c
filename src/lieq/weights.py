"""Torus weight decompositions and the executable theorem pipelines.

Weight functionals are coordinate tuples with respect to the supplied torus
generator list.  Every pipeline returns a structured report: named checks
with pass/fail and a witness, plus a dimension table.
"""

from __future__ import annotations

from typing import Sequence

from .constructions import (
    GraphEmbedding,
    abelian,
    full_graph,
    heisenberg,
    semidirect,
)
from .derivations import (
    DerHomomorphism,
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
from .linalg import (  # NotSplitError and refine_eigenspaces are re-exported
    Matrix,
    NotSplitError,
    Q,
    Subspace,
    ZERO,
    q_str,
    refine_eigenspaces,
    solve,
)


class DegeneratePairError(ValueError):
    """Raised when a pipeline requires a non-degenerate pair but a zero
    weight occurs."""


class TorusError(ValueError):
    """Raised when the supplied matrices fail torus verification."""

    def __init__(self, report):
        self.report = report
        super().__init__(f"torus verification failed: {report.failures}")


class WeightDecomposition:
    """g = (+) g_alpha over the distinct weight functionals of a torus."""

    __slots__ = ("torus_mats", "parts")

    def __init__(self, torus_mats, parts):
        self.torus_mats = tuple(torus_mats)
        self.parts = tuple(parts)

    @property
    def functionals(self) -> tuple:
        return tuple(fun for fun, _ in self.parts)

    def has_zero_weight(self) -> bool:
        return any(all(v == 0 for v in fun) for fun, _ in self.parts)

    def total_dim(self) -> int:
        return sum(sub.dim for _, sub in self.parts)

    def __repr__(self):
        body = ", ".join(
            f"({','.join(q_str(v) for v in fun)}):{sub.dim}" for fun, sub in self.parts
        )
        return f"WeightDecomposition({body})"


def weight_decomposition(g: LieAlgebra, torus_mats: Sequence[Matrix]) -> WeightDecomposition:
    """The weight spaces of a verified torus; raises TorusError otherwise."""
    report = verify_torus(g, torus_mats)
    if not report.ok:
        raise TorusError(report)
    return WeightDecomposition(torus_mats, report.parts)


def is_nondegenerate_pair(
    g: LieAlgebra, torus_mats: Sequence[Matrix]
) -> tuple[bool, WeightDecomposition]:
    wd = weight_decomposition(g, torus_mats)
    return (g.dim == 0 or not wd.has_zero_weight()), wd


class Check:
    __slots__ = ("name", "passed", "detail")

    def __init__(self, name: str, passed: bool, detail: str = ""):
        self.name = name
        self.passed = passed
        self.detail = detail

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


# ---------------------------------------------------------------------------
# Theorem 1: h = tau x_t g equals Der(h1) for h1 = b x_t g, and is complete.
# ---------------------------------------------------------------------------


def theorem1_pipeline(
    g: LieAlgebra, torus_mats: Sequence[Matrix]
) -> PipelineReport:
    report = PipelineReport("theorem1")
    nondeg, wd = is_nondegenerate_pair(g, torus_mats)
    if not nondeg:
        raise DegeneratePairError("the pair carries a zero weight")
    p = len(torus_mats)

    b_alg = abelian(p)
    phi_b = DerHomomorphism(b_alg, g, torus_mats)
    h1_emb = semidirect(b_alg, g, phi_b)
    h1 = h1_emb.whole

    ds = derivations(g)
    tau_sub = centralizer_in_der(ds, torus_mats)
    tau_mats = ds.subspace_mats(tau_sub)
    tau_alg = ds.algebra.subalgebra_structure(
        tau_sub, tuple(f"t{k}" for k in range(tau_sub.dim))
    )
    phi_tau = DerHomomorphism(tau_alg, g, tau_mats)
    h_emb = semidirect(tau_alg, g, phi_tau)
    h = h_emb.whole

    dh1 = derivations(h1)
    report.dims = {
        "g": g.dim,
        "b": p,
        "tau": tau_sub.dim,
        "h1": h1.dim,
        "h": h.dim,
        "Der(h1)": dh1.dim,
    }

    # Images of the h basis under (t0, g0) -> D_{(t0, g0)}.
    images = []
    for t0 in tau_mats:
        images.append(_theorem1_image(h1_emb, torus_mats, t0, g.zero(), g))
    for i in range(g.dim):
        images.append(
            _theorem1_image(h1_emb, torus_mats, None, g.basis_element(i), g)
        )

    bad = next((k for k, m in enumerate(images) if not is_derivation(h1, m)), None)
    report.add(
        "images_are_derivations",
        bad is None,
        "" if bad is None else f"image {bad} fails the Leibniz identity",
    )
    span = Subspace.from_vectors(h1.dim ** 2, [m.flatten() for m in images])
    report.add(
        "images_span_der_h1",
        span == dh1.space,
        f"span dim {span.dim}, Der(h1) dim {dh1.dim}",
    )
    report.add("map_injective", span.dim == h.dim, f"rank {span.dim} vs dim h {h.dim}")
    report.add(
        "dim_identity",
        dh1.dim == tau_sub.dim + g.dim,
        f"dim Der(h1) = {dh1.dim}, dim tau + dim g = {tau_sub.dim + g.dim}",
    )
    cert = is_complete(h)
    report.add(
        "h_complete",
        cert.complete,
        f"center {cert.center_dim}, der {cert.der_dim}, inner {cert.inner_dim}",
    )
    l2 = _lemma2_form_check(dh1, h1_emb, wd)
    report.add("restriction_to_b_form", l2[0], l2[1])

    torus_in_der = Subspace.from_vectors(
        ds.dim, [ds.coords_of(b) for b in torus_mats]
    )
    if torus_in_der == tau_sub:
        cert1 = is_complete(h1, dh1)
        report.add(
            "maximal_torus_h1_complete",
            cert1.complete,
            f"tau equals the supplied torus; center {cert1.center_dim}, "
            f"der {cert1.der_dim}, inner {cert1.inner_dim}",
        )
        report.notes.append("tau coincides with the supplied torus: h1 itself certified")
    return report


def _theorem1_image(
    h1_emb: GraphEmbedding,
    torus_mats: Sequence[Matrix],
    t0: Matrix | None,
    g0,
    g: LieAlgebra,
) -> Matrix:
    """Matrix of D_{(t0,g0)}: (b, x) -> (0, t0(x) - b(g0) + [g0, x]) on h1."""
    h1 = h1_emb.whole
    p = len(h1_emb.s_slot)
    cols = []
    for j in range(p):
        v = tuple(-x for x in torus_mats[j].apply(g0))
        cols.append((ZERO,) * p + v)
    for i in range(g.dim):
        e = g.basis_element(i)
        v = list(g.bracket(g0, e))
        if t0 is not None:
            v = [a + b for a, b in zip(v, t0.apply(e))]
        cols.append((ZERO,) * p + tuple(v))
    return Matrix.from_columns(cols)


def _lemma2_form_check(
    dh1: DerivationSpace, h1_emb: GraphEmbedding, wd: WeightDecomposition
) -> tuple[bool, str]:
    """Every derivation D of h1 satisfies D b = b' + sum alpha(b) x_alpha on
    the torus slot, with x_alpha independent of b."""
    p = len(h1_emb.s_slot)
    n = len(h1_emb.g_slot)
    # change of basis into the concatenated weight-part bases
    part_vecs = [v for _, sub in wd.parts for v in sub.vectors()]
    pmat = Matrix.from_columns(part_vecs)
    offsets = []
    off = 0
    for _, sub in wd.parts:
        offsets.append((off, off + sub.dim))
        off += sub.dim
    for didx, d in enumerate(dh1.basis_mats):
        # g-components of D applied to each torus-slot basis vector
        gcomps = []
        for j in range(p):
            col = d.column(j)
            gpart = col[p:]
            coords = solve(pmat, gpart)
            if coords is None:
                return False, f"derivation {didx}: projection failed"
            gcomps.append(coords)
        for pidx, (fun, _) in enumerate(wd.parts):
            lo, hi = offsets[pidx]
            blocks = [tuple(gc[lo:hi]) for gc in gcomps]
            j0 = next((j for j, a in enumerate(fun) if a != 0), None)
            if j0 is None:
                # zero functional cannot occur for a non-degenerate pair
                if any(any(b) for b in blocks):
                    return False, f"derivation {didx}: zero-weight component present"
                continue
            x_alpha = tuple(v / fun[j0] for v in blocks[j0])
            for j, blk in enumerate(blocks):
                expect = tuple(fun[j] * v for v in x_alpha)
                if blk != expect:
                    return (
                        False,
                        f"derivation {didx}: torus slot {j} breaks the alpha(b) x_alpha form",
                    )
    return True, ""


# ---------------------------------------------------------------------------
# Lemma 3: center of s x_phi g versus {(0, z) : z in Z_s(g)}.
# ---------------------------------------------------------------------------


def lemma3_check(
    s: LieAlgebra, g: LieAlgebra, phi: DerHomomorphism
) -> PipelineReport:
    report = PipelineReport("lemma3")
    emb = semidirect(s, g, phi)
    h = emb.whole
    zs = z_s_subspace(g, phi)
    expected = Subspace.from_vectors(
        h.dim, [emb.embed_g(v) for v in zs.vectors()]
    )
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
    der_cert = is_complete(dsg.algebra)
    if not der_cert.complete:
        raise ValueError("theorem 2 requires Der(g) to be complete")

    fg = full_graph(g, dsg).whole
    dsf = derivations(fg)
    phi_id = DerHomomorphism.identity_on_der(dsg)
    fsub = f_s_subspace(dsg, phi_id)
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
    # Der(g) coordinates
    zero = dsg.algebra.zero()
    basis = [(dsg.algebra.basis_element(j), zero) for j in range(dsg.dim)]
    basis += [(zero, v) for v in fsub.vectors()]
    images = [_lemma4_image(dsg, s, d) for s, d in basis]
    bad = next((k for k, m in enumerate(images) if not is_derivation(fg, m)), None)
    report.add(
        "images_are_derivations",
        bad is None,
        "" if bad is None else f"image {bad} fails the Leibniz identity",
    )
    span = Subspace.from_vectors(fg.dim ** 2, [m.flatten() for m in images])
    report.add(
        "images_span_der_fg",
        span == dsf.space,
        f"span dim {span.dim}, Der(f(g)) dim {dsf.dim}",
    )
    report.add(
        "map_injective", span.dim == len(basis), f"rank {span.dim} of {len(basis)}"
    )

    hom_ok, hom_detail = _lemma4_homomorphism_check(dsg, basis, images)
    report.add("homomorphism_law", hom_ok, hom_detail)

    fg_cert = is_complete(fg, dsf)
    f_is_inner = fsub == dsg.inner
    report.add(
        "complete_iff_f_equals_g",
        fg_cert.complete == f_is_inner,
        f"f(g) complete = {fg_cert.complete}, F(g) = ad(g) is {f_is_inner}",
    )
    return report


def _lemma4_image(dsg: DerivationSpace, s: tuple, d: tuple) -> Matrix:
    """Matrix on f(g) of D_{(s,D)}(s1, x) = ([s,s1], s(x) + D(x) + I([D, s1])),
    with s and D in Der(g) coordinates; their brackets with the Der(g) basis
    vectors s1 are the columns of ad(s) and ad(D) in dsg.algebra."""
    der = dsg.algebra
    ad_s = der.ad_matrix(s)
    ad_d = der.ad_matrix(d)
    cols = [
        ad_s.column(j) + inner_preimage(dsg, dsg.from_coords(ad_d.column(j)))
        for j in range(der.dim)
    ]
    sd = dsg.from_coords([a + b for a, b in zip(s, d)])
    cols += [der.zero() + sd.column(i) for i in range(dsg.base.dim)]
    return Matrix.from_columns(cols)


def _lemma4_homomorphism_check(
    dsg: DerivationSpace, basis: list, images: list
) -> tuple[bool, str]:
    """[D_{(s1,D1)}, D_{(s2,D2)}] = D_{bracket} on h-tilde basis pairs, where
    bracket = ([s1,s2], [s1,D2] - [s2,D1] + [D1,D2]) is taken in dsg.algebra
    and the left side is the commutator of the image matrices."""
    br = dsg.algebra.bracket
    for a, (s1, d1) in enumerate(basis):
        for b in range(a + 1, len(basis)):
            s2, d2 = basis[b]
            db = tuple(
                x - y + z for x, y, z in zip(br(s1, d2), br(s2, d1), br(d1, d2))
            )
            expect = _lemma4_image(dsg, br(s1, s2), db)
            got = images[a].commutator(images[b])
            if got != expect:
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
        emb = full_graph(current, ds_cur)
        fn = emb.whole
        ds_fn = derivations(fn)
        tag = f"f^{n}"
        report.dims[f"{tag}(g)"] = fn.dim
        report.dims[f"Der({tag}(g))"] = ds_fn.dim

        cert = is_complete(fn, ds_fn)
        report.add(
            f"{tag}_center_trivial", cert.center_dim == 0, f"center dim {cert.center_dim}"
        )
        report.add(
            f"{tag}_not_complete",
            not cert.complete,
            f"der {cert.der_dim}, inner {cert.inner_dim}",
        )
        if cert.witness is not None and cert.witness[0] == "outer":
            report.add(
                f"{tag}_outer_witness_verified",
                is_derivation(fn, cert.witness[1])
                and not ds_fn.inner_flat.contains_vector(cert.witness[1].flatten()),
            )
        der_cert = is_complete(ds_fn.algebra)
        report.add(
            f"{tag}_der_complete",
            der_cert.complete,
            f"center {der_cert.center_dim}, der {der_cert.der_dim}, inner {der_cert.inner_dim}",
        )
        der_der = ds_fn.algebra.derived_subalgebra()
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
    cert = is_complete(ds.algebra)
    report.add(
        "der_complete",
        cert.complete,
        f"center {cert.center_dim}, der {cert.der_dim}, inner {cert.inner_dim}",
    )
    report.notes.append(
        "dimension and completeness only; simplicity of Der is not checked"
    )
    return report


def prop3_check(N: int) -> PipelineReport:
    """f(h_{2N+1}) has trivial center but is not complete; the outer
    derivation witness is re-verified by the independent Leibniz checker."""
    report = PipelineReport("prop3")
    g = heisenberg(N)
    emb = full_graph(g)
    fg = emb.whole
    ds = derivations(fg)
    report.dims = {"f(g)": fg.dim, "Der(f(g))": ds.dim}
    cert = is_complete(fg, ds)
    report.add("center_trivial", cert.center_dim == 0, f"center dim {cert.center_dim}")
    report.add("not_complete", not cert.complete)
    ok_witness = (
        cert.witness is not None
        and cert.witness[0] == "outer"
        and is_derivation(fg, cert.witness[1])
        and not ds.inner_flat.contains_vector(cert.witness[1].flatten())
    )
    report.add("outer_witness_verified", ok_witness)
    return report


def prop4_check(N: int) -> PipelineReport:
    """Der(f(h_{2N+1})) is complete with dim = dim f(h) + 1."""
    report = PipelineReport("prop4")
    g = heisenberg(N)
    emb = full_graph(g)
    fg = emb.whole
    ds = derivations(fg)
    report.dims = {"f(g)": fg.dim, "Der(f(g))": ds.dim}
    report.add(
        "dim_identity",
        ds.dim == fg.dim + 1,
        f"dim Der(f(g)) = {ds.dim}, dim f(g) + 1 = {fg.dim + 1}",
    )
    cert = is_complete(ds.algebra)
    report.add(
        "der_complete",
        cert.complete,
        f"center {cert.center_dim}, der {cert.der_dim}, inner {cert.inner_dim}",
    )
    return report
