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
no exact elimination runs.  Otherwise exact elimination stops at the first
row that reaches the bound (the rest of the rows are combinations of those
fed), and its rank is audited against the modular one.  The modular rank is
a certificate and an audit, not a second nullspace kernel: it never
produces a basis.  A Der(g) whose dimension, known from the exact rank,
exceeds max(LIE_DIM_CAP, 64) is refused before its basis is built.
`is_derivation` is an independent checker (direct bracket evaluation) that
shares no code with the solver.

Brackets of derivations are computed once, as the structure constants of
`DerivationSpace.algebra`, each audited against its full matrix commutator.
Downstream, a derivation is its coordinate vector in the canonical Der basis:
`centralizer_in_der` and `f_s_subspace` take kernels of ad matrices of that
algebra rather than forming dense n x n commutators.
"""

from __future__ import annotations

from math import lcm
from typing import Iterator, Sequence

from .liealg import DEFAULT_DIM_CAP, DimensionCapError, LieAlgebra, dim_cap
from .linalg import (
    Matrix,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    clear_denominators,
    nullspace,
    rank_mod_p,
    refine_eigenspaces,
    solve,
    split_semisimple_check,
)


class NotInnerError(ValueError):
    """Raised when a matrix is not an inner derivation."""


class NonzeroCenterError(ValueError):
    """Raised by operations that need ad to be injective."""


def is_derivation(g: LieAlgebra, m: Matrix) -> bool:
    """Leibniz check by direct bracket evaluation on all basis pairs.

    Deliberately independent of the nullspace solver behind `derivations`.
    """
    if m.rows != g.dim or m.cols != g.dim:
        return False
    cols = [m.column(i) for i in range(g.dim)]
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            lhs = m.apply(g.bracket_basis(i, j))
            rhs = g.bracket(cols[i], g.basis_element(j))
            rhs2 = g.bracket(g.basis_element(i), cols[j])
            if any(a != b + c for a, b, c in zip(lhs, rhs, rhs2)):
                return False
    return True


class DerivationSpace:
    """Der(g): canonical matrix basis, its own Lie algebra structure, and the
    inner-derivation subspace in Der-coefficient coordinates."""

    __slots__ = (
        "base",
        "space",
        "basis_mats",
        "algebra",
        "inner",
        "inner_flat",
        "_ad_preimages",
    )

    def __init__(self, base, space, basis_mats, algebra, inner, inner_flat):
        self.base = base
        self.space = space  # Subspace of Q^(n^2), RREF-canonical
        self.basis_mats = basis_mats
        self.algebra = algebra  # bracket = matrix commutator
        self.inner = inner  # Subspace of Q^dim (Der coefficients)
        self.inner_flat = inner_flat  # ad(g) inside Q^(n^2)
        self._ad_preimages = None

    @property
    def dim(self) -> int:
        return len(self.basis_mats)

    def coords_of(self, m: Matrix) -> tuple | None:
        """Coefficients of m in the canonical Der basis, or None if outside."""
        return self.space.coords_of(m.flatten())

    def from_coords(self, coeffs: Sequence) -> Matrix:
        return _combination(self.base.dim, coeffs, self.basis_mats)

    def subspace_mats(self, sub: Subspace) -> list[Matrix]:
        """Matrices for a subspace given in Der-coefficient coordinates."""
        if sub.ambient_dim != self.dim:
            raise ValueError("subspace not in Der-coefficient coordinates")
        return [self.from_coords(v) for v in sub.vectors()]

    def __repr__(self):
        return f"DerivationSpace(base dim {self.base.dim}, dim {self.dim})"


def _combination(n: int, coeffs: Sequence, mats: Sequence[Matrix]) -> Matrix:
    """The n x n matrix sum of c_k M_k; one coefficient per matrix."""
    if len(coeffs) != len(mats):
        raise ValueError(f"{len(coeffs)} coefficients for {len(mats)} basis matrices")
    out = [[ZERO] * n for _ in range(n)]
    for c, mat in zip(coeffs, mats):
        if c:
            for row, orow in zip(mat.data, out):
                for k, x in enumerate(row):
                    if x:
                        orow[k] += c * x
    return Matrix(out)


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
    (i, j, k) order.  The exact path feeds them until the rank reaches the
    bound; then ad(g) <= Der(g) <= Null(rows fed so far), and the outer two
    have the same dimension, so all three are equal.  Otherwise every row
    is fed.  The nullspace basis is canonicalized by RREF, which fixes the
    basis across runs and platforms.  Raises DimensionCapError when
    n^2 - rank, the dimension of Der(g), exceeds max(LIE_DIM_CAP, 64), and
    RuntimeError when the exact rank is below the modular rank, or ad(g) is
    not inside the computed space; the first contradicts rank mod P <= rank
    over Q, the second the Jacobi identity.
    """
    n = g.dim
    ad_flats = [g.ad_matrix(g.basis_element(i)).flatten() for i in range(n)]
    inner_flat = Subspace.from_vectors(n * n, ad_flats)
    bound = n * n - inner_flat.dim
    rows = sorted(_leibniz_rows(g), key=len)
    rank_p = rank_mod_p(rows, bound)
    if rank_p == bound:
        space, inner = inner_flat, Subspace.full(inner_flat.dim)
    else:
        sys = SparseSystem(n * n)
        for row in rows:
            if sys.rank == bound:
                break
            sys.add_row(row)
        if sys.rank < rank_p:
            raise RuntimeError("Leibniz rank over Q below its rank mod P")
        _check_der_dim(n * n - sys.rank)
        space = Subspace.from_vectors(n * n, sys.nullspace_basis())
        inner_coords = []
        for v in ad_flats:
            coords = space.coords_of(v)
            if coords is None:
                raise RuntimeError("inner derivation outside computed Der(g)")
            inner_coords.append(coords)
        inner = Subspace.from_vectors(space.dim, inner_coords)
    basis_mats = tuple(Matrix.unflatten(v, n, n) for v in space.vectors())
    d = len(basis_mats)

    labels = tuple(f"D{a}" for a in range(d))
    algebra = LieAlgebra(d, commutator_table(space, n), labels, check=True)
    return DerivationSpace(g, space, basis_mats, algebra, inner, inner_flat)


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
    D_a = N_a / d_a, together with its pivot p_a (its first nonzero entry,
    where N_a holds d_a).  With C = N_a N_b - N_b N_a, coordinate t of
    [D_a, D_b] is C[p_t] / (d_a d_b), because the basis is RREF.  Every
    commutator is rebuilt from its coordinates as an audit, multiplied
    through by L d_a d_b with L = lcm(d_t): sum_t C[p_t] (L / d_t) N_t = L C,
    entry for entry.  Raises RuntimeError when the audit fails, that is,
    when the span is not closed under the commutator.
    """
    flats, mats, dens = [], [], []
    for v in space.vectors():
        ints, den = clear_denominators(dict(enumerate(v)))
        rows: dict[int, dict[int, int]] = {}
        for t, x in ints.items():
            rows.setdefault(t // n, {})[t % n] = x
        flats.append(ints)
        mats.append(rows)
        dens.append(den)
    pivots = [next(iter(ints)) for ints in flats]
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
                raise RuntimeError("Der(g) not closed under commutator")
            table[(a, b)] = coords
    return table


def inner_preimage(ds: DerivationSpace, d: Matrix):
    """The unique x with ad(x) = d; requires a center-free base.

    Preimages of the canonical inner_flat basis are solved once and cached,
    so repeated calls only extract RREF coordinates.
    """
    g = ds.base
    if ds._ad_preimages is None:
        if ds.inner_flat.dim != g.dim:  # ad(g) = g / Z(g)
            raise NonzeroCenterError("inner preimage is not unique: center is nonzero")
        cols = Matrix.from_columns(
            [g.ad_matrix(g.basis_element(i)).flatten() for i in range(g.dim)]
        )
        pre = []
        for v in ds.inner_flat.vectors():
            x = solve(cols, v)
            if x is None:
                raise RuntimeError("inner basis vector without ad preimage")
            pre.append(x)
        ds._ad_preimages = tuple(pre)
    coords = ds.inner_flat.coords_of(d.flatten())
    if coords is None:
        raise NotInnerError("matrix is not an inner derivation")
    x = [ZERO] * g.dim
    for c, p in zip(coords, ds._ad_preimages):
        if c:
            x = [a + c * b for a, b in zip(x, p)]
    return tuple(x)


class CompletenessCertificate:
    """center_dim = 0 and der_dim = inner_dim  <=>  complete; otherwise the
    witness exhibits the failure (a central element or an outer derivation)."""

    __slots__ = ("center_dim", "der_dim", "inner_dim", "complete", "witness")

    def __init__(self, center_dim, der_dim, inner_dim, complete, witness):
        self.center_dim = center_dim
        self.der_dim = der_dim
        self.inner_dim = inner_dim
        self.complete = complete
        self.witness = witness  # ('central', element) | ('outer', Matrix) | None

    def __repr__(self):
        return (
            f"CompletenessCertificate(complete={self.complete}, "
            f"center_dim={self.center_dim}, der_dim={self.der_dim}, "
            f"inner_dim={self.inner_dim})"
        )


def is_complete(g: LieAlgebra, ds: DerivationSpace | None = None) -> CompletenessCertificate:
    center = g.center()
    if ds is None:
        ds = derivations(g)
    der_dim = ds.dim
    inner_dim = ds.inner.dim
    complete = center.dim == 0 and der_dim == inner_dim
    witness = None
    if not complete:
        if center.dim > 0:
            witness = ("central", center.vectors()[0])
        else:
            for k in range(der_dim):
                unit = tuple(Q(1) if i == k else ZERO for i in range(der_dim))
                if not ds.inner.contains_vector(unit):
                    witness = ("outer", ds.basis_mats[k])
                    break
    return CompletenessCertificate(center.dim, der_dim, inner_dim, complete, witness)


def centralizer_in_der(ds: DerivationSpace, b_mats: Sequence[Matrix]) -> Subspace:
    """{D in Der(g) : [D, B] = 0 for all B}, in Der-coefficient coordinates:
    the common kernel of the ad(B) of the Der algebra."""
    for b in b_mats:
        if not is_derivation(ds.base, b):
            raise ValueError("centralizer generator is not a derivation")
    rows = [
        row
        for b in b_mats
        for row in ds.algebra.ad_matrix(_der_coords(ds, b)).data
        if any(row)
    ]
    if not rows:
        return Subspace.full(ds.dim)
    return nullspace(Matrix(rows))


def _der_coords(ds: DerivationSpace, m: Matrix) -> tuple:
    """Der coordinates of a matrix that has passed a derivation check."""
    coords = ds.coords_of(m)
    if coords is None:
        raise RuntimeError("derivation outside computed Der(g)")
    return coords


class DerHomomorphism:
    """Linear map from a Lie algebra into Der(target), one image matrix per
    source basis vector, validated as a Lie homomorphism."""

    __slots__ = ("source", "target", "images")

    def __init__(self, source: LieAlgebra, target: LieAlgebra, images: Sequence[Matrix]):
        if len(images) != source.dim:
            raise ValueError("one image matrix per source basis vector required")
        self.source = source
        self.target = target
        self.images = tuple(images)
        self._validate()

    def _validate(self) -> None:
        for k, m in enumerate(self.images):
            if not is_derivation(self.target, m):
                raise ValueError(f"image of source basis vector {k} is not a derivation")
        for a in range(self.source.dim):
            for b in range(a + 1, self.source.dim):
                lhs = self.apply(self.source.bracket_basis(a, b))
                rhs = self.images[a].commutator(self.images[b])
                if lhs != rhs:
                    raise ValueError(
                        f"not a Lie homomorphism on source basis pair ({a}, {b})"
                    )

    def apply(self, s_coords: Sequence) -> Matrix:
        return _combination(self.target.dim, s_coords, self.images)

    @staticmethod
    def zero(source: LieAlgebra, target: LieAlgebra) -> "DerHomomorphism":
        z = Matrix.zero(target.dim, target.dim)
        return DerHomomorphism(source, target, [z] * source.dim)

    @staticmethod
    def identity_on_der(ds: DerivationSpace) -> "DerHomomorphism":
        """The identity Der(g) -> Der(g), with Der(g) as its own algebra.

        Not re-validated: it is a homomorphism by construction.  Every basis
        matrix solves the Leibniz system, and ds.algebra is the commutator
        table of ds.basis_mats, audited entry for entry by
        `commutator_table`."""
        phi = DerHomomorphism.__new__(DerHomomorphism)
        phi.source, phi.target, phi.images = ds.algebra, ds.base, ds.basis_mats
        return phi


def f_s_subspace(ds: DerivationSpace, phi: DerHomomorphism) -> Subspace:
    """F_s(g) = {D in Der(g) : [D, phi(s_k)] inner for all k}, in
    Der-coefficient coordinates.  A derivation is inner exactly when it is
    orthogonal to every w in the complement of ad(g) in Q^dim, so each image
    beta contributes the rows w . ad(beta) of the Der algebra."""
    if phi.target is not ds.base and phi.target.sc != ds.base.sc:
        raise ValueError("homomorphism target does not match the derivation base")
    comp = ds.inner.orthogonal_complement()
    if comp.dim == 0:
        return Subspace.full(ds.dim)
    rows = [
        row
        for img in phi.images
        for row in (comp.basis @ ds.algebra.ad_matrix(_der_coords(ds, img))).data
        if any(row)
    ]
    if not rows:
        return Subspace.full(ds.dim)
    return nullspace(Matrix(rows))


def z_s_subspace(g: LieAlgebra, phi: DerHomomorphism) -> Subspace:
    """Z_s(g): central elements annihilated by every phi image."""
    if phi.target.dim != g.dim:
        raise ValueError("homomorphism target does not match the algebra")
    zs = g.center()
    if not phi.images:
        return zs
    stacked = phi.images[0]
    for m in phi.images[1:]:
        stacked = stacked.stack(m)
    return zs.intersect(nullspace(stacked))


class TorusReport:
    __slots__ = ("ok", "failures", "eigenvalues", "parts")

    def __init__(self, ok: bool, failures: list, eigenvalues: tuple | None, parts: tuple | None):
        self.ok = ok
        self.failures = failures  # list of (check name, witness description)
        self.eigenvalues = eigenvalues  # per generator, when split
        self.parts = parts  # simultaneous eigenspaces, when ok

    def __repr__(self):
        return f"TorusReport(ok={self.ok}, failures={self.failures})"


def verify_torus(ds: "DerivationSpace | LieAlgebra", b_mats: Sequence[Matrix]) -> TorusReport:
    """Check that b_mats generate a torus: derivations, pairwise commuting,
    split-semisimple, and simultaneously diagonalizable (so every rational
    combination is semisimple, not just the generators).

    Accepts either a DerivationSpace or the bare algebra.
    """
    base = ds.base if isinstance(ds, DerivationSpace) else ds
    failures = []
    for k, b in enumerate(b_mats):
        if not is_derivation(base, b):
            failures.append(("derivation", f"generator {k} fails the Leibniz identity"))
    for a in range(len(b_mats)):
        for b in range(a + 1, len(b_mats)):
            if not b_mats[a].commutator(b_mats[b]).is_zero():
                failures.append(("commuting", f"generators {a} and {b} do not commute"))
    eigs = []
    for k, b in enumerate(b_mats):
        rep = split_semisimple_check(b)
        if not rep.semisimple:
            failures.append(("semisimple", f"generator {k}: minimal polynomial not squarefree"))
        elif not rep.split:
            failures.append(("split", f"generator {k}: irrational spectrum"))
        else:
            eigs.append(rep.eigenvalues)
    if not failures:
        try:
            parts = tuple(refine_eigenspaces(base.dim, b_mats))
        except ValueError:
            parts = ()
        if sum(sub.dim for _, sub in parts) == base.dim:
            return TorusReport(True, failures, tuple(eigs), parts)
        failures.append(
            ("simultaneous", "no common eigenbasis: refinement does not fill the space")
        )
    return TorusReport(False, failures, None, None)


def diagonal_derivation_torus(g: LieAlgebra) -> list[Matrix]:
    """Basis of the space of diagonal derivations: diag(t) with
    t_k = t_i + t_j for every nonzero structure constant c_ij^k.

    Diagonal matrices commute and are split-semisimple, so this is always a
    torus on g (for many graded nilpotent algebras, a maximal one).
    """
    n = g.dim
    sys = SparseSystem(n)
    for i, row_i in enumerate(g.sc):
        for j, v in row_i.items():
            if i < j:
                for k in v:
                    row = {k: 1}
                    row[i] = row.get(i, 0) - 1
                    row[j] = row.get(j, 0) - 1
                    sys.add_row(row)
    sub = Subspace.from_vectors(n, sys.nullspace_basis())
    return [
        Matrix([[t[i] if i == j else ZERO for j in range(n)] for i in range(n)])
        for t in sub.vectors()
    ]


class TowerReport:
    __slots__ = ("dims", "stabilized", "stable_index", "budget_exceeded")

    def __init__(self, dims, stabilized, stable_index, budget_exceeded):
        self.dims = dims
        self.stabilized = stabilized
        self.stable_index = stable_index
        self.budget_exceeded = budget_exceeded

    def __repr__(self):
        return (
            f"TowerReport(dims={self.dims}, stabilized={self.stabilized}, "
            f"index={self.stable_index}, budget_exceeded={self.budget_exceeded})"
        )


def derivation_tower(g: LieAlgebra, max_steps: int = 4) -> TowerReport:
    """g, Der(g), Der^2(g), ... embedded via ad; stops when Der(h) = ad(h).

    Requires a trivial center so each ad embedding is injective (then every
    algebra along the tower is center-free as well).  Reports
    budget_exceeded after max_steps, or when a Der(h) that is not ad(h)
    exceeds LIE_DIM_CAP, whether derivations() refuses it or the tower
    would build it as its next algebra.
    """
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
