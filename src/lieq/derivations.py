"""Derivation algebras, completeness certificates, and related subspaces.

Der(g) is the nullspace of the Leibniz system D[e_i,e_j] = [De_i,e_j] +
[e_i,De_j], assembled sparsely over row-major matrix coordinates and
canonicalized by RREF, so the basis is deterministic.  The rows are
assembled over Z from `LieAlgebra.integer_sc`; the system is linear in the
structure constants, so clearing their denominators leaves its nullspace
unchanged.  They are built once and read sparsest first (Markowitz's
fill-reducing order, by row length); neither rank nor nullspace depends on
the order.  Jacobi puts ad(g) inside Der(g), so the system has rank at most
n^2 - dim ad(g).  A rank mod a prime is at most the rank over Q, so when
`rank_mod_p` of the rows reaches that bound it certifies Der(g) = ad(g) and
no exact elimination runs.  Otherwise every row is eliminated exactly, and
the exact rank is audited against the modular one.  The modular rank is a
certificate and an audit, not a second nullspace kernel: it never produces
a basis.  A Der(g) whose dimension, known from the exact rank, exceeds
max(LIE_DIM_CAP, 64) is refused before its basis is built.
`is_derivation` is an independent checker (direct bracket evaluation over
`sc` and the sparse columns of a derivation) that shares no code with the
solver.

ad(g) comes from `LieAlgebra.ad_image`, the one elimination of the sparse
rows (ad(e_j), e_j), which also gives a sparse x with ad(x) = v for each
basis vector v of ad(g), and the centre Z(g) = ker ad; `inner_preimage`
combines the preimages, and `DerivationSpace` keeps the centre, so
`is_complete` reads both halves of its certificate off Der(g) alone.
Brackets of derivations are computed once, as the structure constants of
`DerivationSpace.algebra`, each audited against its full matrix commutator.

Der(g) is held once, as the canonical sparse rows of `DerivationSpace.space`
(a NamedTuple, like the result records)
over the row-major entries of a matrix, {r*n + c: q}: the form in which the
Leibniz unknowns are indexed.  The images of a phi: s -> Der(g) are passed
in the same form (`check_images`), so `full_graph` hands the Der rows to
`semidirect` as they are.  A derivation crosses every function boundary
in this form: `is_derivation` reads it, the torus generators are given in
it, and the outer witness of `is_complete` is the canonical Der row itself.
The only matrices built here are the torus generators inside
`verify_torus`, for their minimal polynomials and eigenspaces.  Downstream, a
derivation is its coordinate vector in the canonical Der basis:
`centralizer_in_der` takes the Der coordinates of its generators, and
`f_s_subspace` reads the Der coordinates of the images of phi once, off
their sparse entries; both take kernels of sparse ad rows of that algebra,
read off its `sc`, rather than forming dense n x n commutators or ad
matrices.

A torus is checked by its definition alone: derivations with a common
eigenbasis over Q.  `verify_torus` takes each generator's spectrum from the
rational roots of its minimal polynomial and asks whether the joint
eigenspaces from `refine_eigenspaces` fill g; that they commute and are
split semisimple follows, so neither is tested apart.

The internal audits (the rank mod P, ad(g) inside Der(g), the closure of
Der(g) under the commutator) raise `InvariantError` when they fail.
"""

from __future__ import annotations

from math import lcm
from typing import Collection, Iterator, NamedTuple, Sequence

from .liealg import DEFAULT_DIM_CAP, DimensionCapError, LieAlgebra, dim_cap
from .linalg import (
    InvariantError,
    Matrix,
    ONE,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    clear_denominators,
    combine,
    image_with_preimages,
    minimal_polynomial,
    rank_mod_p,
    rational_roots,
    refine_eigenspaces,
)


class NotInnerError(ValueError):
    """Raised when a matrix is not an inner derivation."""


class NonzeroCenterError(ValueError):
    """Raised by operations that need ad to be injective."""


def is_derivation(g: LieAlgebra, d: dict) -> bool:
    """Leibniz check by direct bracket evaluation on all basis pairs i < j:
    D[e_i,e_j] - [De_i,e_j] - [e_i,De_j] = 0, summed over `sc` and the
    sparse columns De_i of D, read off its row-major entries {r*n + c: q}.
    Zero entries are ignored; an index outside range(n^2), even of a zero
    entry, is no entry of an n x n matrix, so D is not a derivation of g.

    Deliberately independent of the nullspace solver behind `derivations`:
    it reads `sc`, not `integer_sc` or the Leibniz rows.
    """
    n = g.dim
    cols: list[dict] = [{} for _ in range(n)]
    for t, x in d.items():
        if not 0 <= t < n * n:
            return False
        if x:
            cols[t % n][t // n] = x
    sc = g.sc
    for i in range(n):
        for j in range(i + 1, n):
            terms = [(k, c * x) for l, c in sc[i].get(j, {}).items() for k, x in cols[l].items()]
            terms += [(k, -x * c) for l, x in cols[i].items() for k, c in sc[l].get(j, {}).items()]
            terms += [(k, -x * c) for l, x in cols[j].items() for k, c in sc[i].get(l, {}).items()]
            acc: dict = {}
            for k, v in terms:
                acc[k] = acc.get(k, 0) + v
            if any(acc.values()):
                return False
    return True


class DerivationSpace(NamedTuple):
    """Der(g): its canonical basis, held as the sparse rows of `space`, its
    own Lie algebra structure, the inner-derivation subspace in
    Der-coefficient coordinates, and the centre of g, the kernel of ad."""

    base: LieAlgebra
    space: Subspace  # of Q^(n^2), RREF-canonical: rows {r*n + c: q}
    algebra: LieAlgebra  # bracket = matrix commutator
    inner: Subspace  # of Q^dim (Der coefficients)
    inner_flat: Subspace  # ad(g) inside Q^(n^2)
    ad_preimages: tuple  # an x with ad(x) = each inner basis vector
    center: Subspace  # Z(g) = ker ad, in Q^n

    @property
    def dim(self) -> int:
        return self.space.dim

    def from_coords(self, coeffs: Sequence) -> dict:
        """The derivation with Der coordinates coeffs, as its sparse
        row-major entries {r*n + c: q}."""
        n = self.base.dim
        return {t: x for t, x in enumerate(combine(coeffs, self.space.rows.values(), n * n)) if x}


def _bump(row: dict, idx: int, val: int) -> None:
    row[idx] = row.get(idx, 0) + val


def _leibniz_rows(g: LieAlgebra) -> Iterator[dict[int, int]]:
    """The Leibniz system over Z, for the pairs i < j in order: coordinate
    k = 0 .. n-1 of D[e_i,e_j] - [De_i,e_j] - [e_i,De_j], as {index: int}
    rows over the row-major entries of D, scaled by the lcm of the
    denominators of the structure constants."""
    n = g.dim
    isc = g.integer_sc()
    for i in range(n):
        for j in range(i + 1, n):
            rows: list[dict[int, int]] = [{} for _ in range(n)]
            # D[e_i,e_j] = sum_l c_ij^l De_l, and De_l = sum_k D[k][l] e_k
            for l, c in isc[i].get(j, {}).items():
                for k in range(n):
                    _bump(rows[k], k * n + l, c)
            # -[De_i, e_j] = sum_l D[l][i] [e_j, e_l]
            for l, v in isc[j].items():
                for k, c in v.items():
                    _bump(rows[k], l * n + i, c)
            # -[e_i, De_j] = -sum_l D[l][j] [e_i, e_l]
            for l, v in isc[i].items():
                for k, c in v.items():
                    _bump(rows[k], l * n + j, -c)
            yield from rows


def _check_der_dim(d: int) -> None:
    """Refuse a Der(g) of dimension d before its basis is built.  The bound
    is LIE_DIM_CAP, but never below DEFAULT_DIM_CAP: a lower cap bounds the
    algebras built from the input, while a Der(g) within the default costs
    at most DEFAULT_DIM_CAP^3 / 6 Jacobi triples."""
    cap = max(dim_cap(), DEFAULT_DIM_CAP)
    if d > cap:
        raise DimensionCapError(f"Der(g): dimension {d} exceeds LIE_DIM_CAP {cap}")


def derivations(g: LieAlgebra) -> DerivationSpace:
    """Compute Der(g) from the Leibniz system.

    Variable order is row-major over matrix entries: D[r][c] has index
    r*n + c.  The rank of the system is at most n^2 - dim ad(g), since
    ad(g) <= Der(g).  When the rank mod P of the rows reaches that bound,
    so does the rank over Q, and Der(g) = ad(g): the answer is the RREF
    basis of ad(g), with no exact elimination.  This holds exactly when
    every derivation is inner, as on a complete algebra, unless P divides a
    minor the rank needs; then the exact path below runs instead.

    Both passes read one list of the rows, sorted by length with ties in
    (i, j, k) order; the exact path feeds every row.  The nullspace basis is
    canonicalized by RREF, which fixes the basis across runs and platforms.
    ad(g), preimages of its basis and Z(g) come from `LieAlgebra.ad_image`;
    on the exact path, inner and its preimages come from the rows (Der
    coordinates of each ad(g) basis vector, its preimage).  Raises
    DimensionCapError when n^2 - rank, the dimension of Der(g), exceeds
    max(LIE_DIM_CAP, 64), and InvariantError when the exact rank is below the
    modular rank, or ad(g) is not inside the computed space; the first
    contradicts rank mod P <= rank over Q, the second the Jacobi identity.
    """
    n = g.dim
    inner_flat, pre, center = g.ad_image()
    bound = n * n - inner_flat.dim
    rows = sorted(_leibniz_rows(g), key=len)
    rank_p = rank_mod_p(rows, bound)
    if rank_p == bound:
        space, inner = inner_flat, Subspace.full(inner_flat.dim)
    else:
        sys = SparseSystem(n * n, rows)
        if sys.rank < rank_p:
            raise InvariantError("Leibniz rank over Q below its rank mod P")
        _check_der_dim(n * n - sys.rank)
        space = sys.kernel()
        d = space.dim
        inner_rows = []
        for row, x in zip(inner_flat.rows.values(), pre):
            coords = space.coords_of_row(row)
            if coords is None:
                raise InvariantError("inner derivation outside computed Der(g)")
            tagged = {t: c for t, c in enumerate(coords) if c}
            inner_rows.append(tagged | {d + k: y for k, y in x.items()})
        inner, pre, _ = image_with_preimages(d, d + n, inner_rows)
    labels = tuple(f"D{a}" for a in range(space.dim))
    algebra = LieAlgebra(space.dim, commutator_table(space, n), labels, check=True)
    return DerivationSpace(g, space, algebra, inner, inner_flat, pre, center)


def _mul_into(acc: dict, a: dict, b: dict, n: int, sign: int) -> None:
    """acc += sign * a b for sparse integer n x n matrices {row: {col: int}};
    acc is keyed by the row-major index r*n + c."""
    for r, row in a.items():
        base = r * n
        for k, x in row.items():
            brow = b.get(k)
            if brow:
                x *= sign
                for c, y in brow.items():
                    t = base + c
                    acc[t] = acc.get(t, 0) + x * y


def commutator_table(space: Subspace, n: int) -> dict:
    """Structure constants {(a, b): {t: c}}, a < b, of the matrix commutator
    on the n x n matrices D_a whose row-major entries are the RREF basis of
    `space`: [D_a, D_b] = sum_t c D_t.

    Each D_a is taken once as an integer matrix over one common denominator,
    D_a = N_a / d_a, together with its pivot p_a (the lead of its reduced
    row, where N_a holds d_a).  With C = N_a N_b - N_b N_a, coordinate t of
    [D_a, D_b] is C[p_t] / (d_a d_b), because the basis is RREF.  Every
    commutator is rebuilt from its coordinates as an audit, multiplied
    through by L d_a d_b with L = lcm(d_t): sum_t C[p_t] (L / d_t) N_t = L C,
    entry for entry.  Raises InvariantError when the audit fails, that is,
    when the span is not closed under the commutator.
    """
    flats, mats, dens = [], [], []
    for row in space.rows.values():
        ints, den = clear_denominators(row)
        rows: dict[int, dict[int, int]] = {}
        for t, x in ints.items():
            rows.setdefault(t // n, {})[t % n] = x
        flats.append(ints)
        mats.append(rows)
        dens.append(den)
    pivots = list(space.rows)
    big_l = lcm(*dens)
    scaled = [{t: (big_l // den) * x for t, x in ints.items()} for ints, den in zip(flats, dens)]
    table = {}
    for a, (na, da) in enumerate(zip(mats, dens)):
        for b in range(a + 1, len(mats)):
            comm: dict[int, int] = {}
            _mul_into(comm, na, mats[b], n, 1)
            _mul_into(comm, mats[b], na, n, -1)
            audit = {t: big_l * x for t, x in comm.items()}
            coords = {}
            for t, p in enumerate(pivots):
                x = comm.get(p)
                if x:
                    coords[t] = Q(x, da * dens[b])
                    for k, y in scaled[t].items():
                        audit[k] = audit.get(k, 0) - x * y
            if any(audit.values()):
                raise InvariantError("Der(g) not closed under commutator")
            table[(a, b)] = coords
    return table


def inner_preimage(ds: DerivationSpace, coords: Sequence) -> tuple:
    """The unique x with ad(x) = the derivation with Der coordinates coords;
    requires a center-free base."""
    if ds.center.dim:
        raise NonzeroCenterError("inner preimage is not unique: center is nonzero")
    c = ds.inner.coords_of(coords)
    if c is None:
        raise NotInnerError("derivation is not inner")
    return tuple(combine(c, ds.ad_preimages, ds.base.dim))


class CompletenessCertificate(NamedTuple):
    """center_dim = 0 and der_dim = inner_dim  <=>  complete; otherwise the
    witness exhibits the failure (a central element or an outer derivation)."""

    center_dim: int
    der_dim: int
    inner_dim: int
    complete: bool
    # ('central', element) | ('outer', {r*n + c: q}, a canonical Der row) | None
    witness: tuple | None


def is_complete(ds: DerivationSpace) -> CompletenessCertificate:
    """The certificate of g = ds.base, read off Der(g) alone: Z(g) and
    ad(g) are the kernel and the image of the one elimination of the ad
    rows that `derivations` ran.  The outer witness is the first Der basis
    vector outside ad(g): as the rows of ds.inner are reduced, that is the
    first k whose row is not {k: 1}, given as that canonical row of Der(g)
    itself, by its sparse row-major entries."""
    center, der_dim, inner_dim = ds.center, ds.dim, ds.inner.dim
    complete = center.dim == 0 and der_dim == inner_dim
    witness = None
    if center.dim:
        witness = ("central", center.vectors()[0])
    elif not complete:
        k = next(k for k in range(der_dim) if ds.inner.rows.get(k) != {k: ONE})
        witness = ("outer", list(ds.space.rows.values())[k])
    return CompletenessCertificate(center.dim, der_dim, inner_dim, complete, witness)


def centralizer_in_der(ds: DerivationSpace, coords: Sequence[Sequence]) -> Subspace:
    """{D in Der(g) : [D, B] = 0 for all B}, in Der-coefficient coordinates,
    for B given by their Der coordinates: the common kernel of the rows of
    ad(B) in the Der algebra, read off its structure constants."""
    rows = (row for c in coords for row in ds.algebra.ad_rows(c).values())
    return SparseSystem(ds.dim, rows).kernel()


def check_images(images: Collection[dict], n: int) -> None:
    """Refuse images of phi that are not n x n matrices, in gl(g) for
    dim g = n: each is given by its sparse row-major entries {r*n + c: q},
    so every index must lie in range(n^2)."""
    if any(not 0 <= t < n * n for m in images for t in m):
        raise ValueError(f"phi needs {n} x {n} images: an entry index is outside range({n * n})")


def f_s_subspace(ds: DerivationSpace, images: Collection[dict]) -> Subspace:
    """F_s(g) = {D in Der(g) : [D, phi(s_k)] inner for all k}, in
    Der-coefficient coordinates, for the images phi(s_k), given by their
    sparse entries.  A derivation is inner exactly when it is orthogonal to
    every w in the complement of ad(g) in Q^dim, so each image beta
    contributes the rows w . ad(beta) of the Der algebra, summed over the
    sparse rows of both.  Raises ValueError when an image lies outside
    Der(g), as an entry index outside range(n^2) does."""
    coords = [ds.space.coords_of_row(m) for m in images]
    if None in coords:
        raise ValueError("an image of phi lies outside Der(g)")
    comp = ds.inner.orthogonal_complement().rows.values()
    rows = []
    for c in coords:
        ad = ds.algebra.ad_rows(c)
        for w in comp:
            row: dict = {}
            for k, x in w.items():
                for j, y in ad.get(k, {}).items():
                    row[j] = row.get(j, ZERO) + x * y
            rows.append(row)
    return SparseSystem(ds.dim, rows).kernel()


def z_s_subspace(g: LieAlgebra, images: Collection[dict]) -> Subspace:
    """Z_s(g): central elements annihilated by every image phi(s_k), given
    by their sparse entries, that is, the centre met with the kernel of the
    rows of the images."""
    n = g.dim
    check_images(images, n)
    rows = ({t % n: x for t, x in m.items() if t // n == r} for m in images for r in range(n))
    return g.center().intersect(SparseSystem(n, rows).kernel())


class TorusReport(NamedTuple):
    ok: bool
    failures: list  # list of (check name, witness description)
    parts: tuple | None  # the weight spaces, when ok


def verify_torus(base: LieAlgebra, gens: Sequence[dict]) -> TorusReport:
    """Check that gens, each given by its sparse row-major entries
    {r*n + c: q}, generate a torus: derivations with a common eigenbasis
    over Q.  Such matrices commute and are split semisimple, and conversely
    (Hoffman & Kunze, Linear Algebra, 6.5), so no separate commuting or
    semisimplicity test is needed.

    Each generator must pass `is_derivation`.  Then it is built as a dense
    matrix, its spectrum is the rational roots of its minimal polynomial,
    and `refine_eigenspaces` splits g once into the joint eigenspaces, which
    are the weight spaces when they fill g.  The report lists one
    ("derivation", ...) per failing generator, or one ("diagonalizable",
    ...) when the joint eigenspaces do not fill g."""
    failures = [
        ("derivation", f"generator {k} fails the Leibniz identity")
        for k, b in enumerate(gens)
        if not is_derivation(base, b)
    ]
    if not failures:
        n = base.dim
        mats = [Matrix([[b.get(r * n + c, ZERO) for c in range(n)] for r in range(n)]) for b in gens]
        spectra = [rational_roots(minimal_polynomial(b)) for b in mats]
        parts = tuple(refine_eigenspaces(n, mats, spectra))
        if sum(sub.dim for _, sub in parts) == n:
            return TorusReport(True, failures, parts)
        failures.append(
            ("diagonalizable", "no common eigenbasis: the joint eigenspaces do not fill g")
        )
    return TorusReport(False, failures, None)


def diagonal_derivation_torus(g: LieAlgebra) -> list[dict]:
    """Basis of the space of diagonal derivations: diag(t) with
    t_k = t_i + t_j for every nonzero structure constant c_ij^k, each by its
    sparse row-major entries {k*(n + 1): t_k}.

    Diagonal matrices commute and are split-semisimple, so this is always a
    torus on g (for many graded nilpotent algebras, a maximal one).
    """
    n = g.dim
    rows = []
    for i, row_i in enumerate(g.sc):
        for j, v in row_i.items():
            if i < j:
                for k in v:
                    row = {k: 1}
                    row[i] = row.get(i, 0) - 1
                    row[j] = row.get(j, 0) - 1
                    rows.append(row)
    return [
        {k * (n + 1): t[k] for k in sorted(t) if t[k]}
        for t in SparseSystem(n, rows).kernel().rows.values()
    ]


class TowerReport(NamedTuple):
    dims: tuple
    stabilized: bool
    stable_index: int | None
    budget_exceeded: bool


def derivation_tower(g: LieAlgebra, max_steps: int = 4) -> TowerReport:
    """g, Der(g), Der^2(g), ... embedded via ad; stops when Der(h) = ad(h).

    Requires a trivial center so each ad embedding is injective (then every
    algebra along the tower is center-free as well).  Reports
    budget_exceeded after max_steps, or when a Der(h) that is not ad(h)
    exceeds LIE_DIM_CAP, whether derivations() refuses it or the tower
    would build it as its next algebra.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be >= 0, not {max_steps}")
    cap = dim_cap()
    if g.center().dim != 0:
        raise NonzeroCenterError("derivation tower requires a center-free algebra")
    dims = [g.dim]
    current = g
    for step in range(max_steps + 1):
        try:
            ds = derivations(current)
        except DimensionCapError:
            return TowerReport(tuple(dims), False, None, True)
        if ds.inner.dim == ds.dim:
            return TowerReport(tuple(dims), True, step, False)
        if step == max_steps or ds.dim > cap:
            return TowerReport(tuple(dims), False, None, True)
        current = ds.algebra
        dims.append(current.dim)
    return TowerReport(tuple(dims), False, None, True)
