"""Exact rational linear algebra: matrices, RREF, nullspaces, canonical subspaces,
minimal polynomials, their rational roots and joint eigenspaces.

All arithmetic is over Q with arbitrary-precision integers.  gmpy2.mpq is
used when available (it is API-compatible with fractions.Fraction and much
faster); otherwise Fraction is the scalar type.  Scalars are always stored
in lowest terms with positive denominator, so equality is exact.

Scalars are coerced by `as_q` at the API boundaries (Matrix(), the vectors
and coefficients passed in); arithmetic on them stays in the scalar type.
A polynomial is its tuple of coefficients, lowest degree first:
`minimal_polynomial` returns one, `rational_roots` reads one.

There is one elimination kernel.  `SparseSystem(ncols, rows)` clears each
sparse row's denominators, eliminates fraction-free over Z and back-reduces
to the reduced row echelon form, dividing by each lead only at the end;
`rref`, `solve` and the canonical subspaces all run on it, and the Der(g),
ad(g) and series solvers feed it directly.  A canonical `Subspace` holds
those reduced rows, {lead: {col: q}}, as its one form
(`Subspace.from_system`); its operations read the rows, and
`vectors()` is the dense view for callers outside the library.  Every
kernel of a system is `SparseSystem.kernel()`: the nullspace basis read
sparsely off the reduced rows, then reduced to its canonical Subspace by one
more elimination; no rows give the whole space.  The kernel of a map given
by the rows (f(x), x) needs no second elimination (`image_with_preimages`).
`rank_bareiss` is a second, independent elimination, kept only to audit
rank.  `rank_mod_p` is a third, over the integers mod a fixed prime: a rank
certificate, not a nullspace kernel.  It never yields a basis, only a lower
bound on the rank over Q, which is how Der(g) = ad(g) is proved without the
exact elimination.
`clear_denominators` gives the integer form over one common denominator in
which the Der(g) structure constants and the Jacobi check are computed.
`image_with_preimages` reads a map's image, a sparse preimage of each
image basis vector and the map's kernel off the reduced rows of the one
elimination of the sparse rows (f(x), x); `Subspace.intersect` is such a
kernel, of the Zassenhaus rows;
`combine` forms the linear combinations of sparse rows that such bases and
preimages are used in.
`InvariantError` marks the failure of an internal check: a bug, not bad
input.
"""

from __future__ import annotations

import re
from math import gcd, isqrt, lcm
from typing import Iterable, Sequence

try:
    from gmpy2 import mpq as Q
except ImportError:
    from fractions import Fraction as Q

Scalar = Q
ZERO = Q(0)
ONE = Q(1)


class InvariantError(RuntimeError):
    """An internal invariant failed: a bug in lieq, not an error in its
    input."""


def as_q(x) -> Scalar:
    """Coerce an int, float (exactly), Fraction, mpq or 'p/q' string to the
    scalar type; a scalar that already has that type is returned as it is."""
    return x if type(x) is Q else Q(x)


def q_str(x) -> str:
    """Render a scalar as 'p' or 'p/q' with q > 0."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?")


def is_rational_string(s) -> bool:
    """s is 'p' or 'p/q' in ASCII digits and nothing else, with q > 0: no
    decimal notation, other scripts' digits or surrounding whitespace."""
    return isinstance(s, str) and _RATIONAL_RE.fullmatch(s) is not None


def q_parse(s: str) -> Scalar:
    """Parse a string of `is_rational_string` exactly."""
    if not is_rational_string(s):
        raise ValueError(f"not a rational string: {s!r}")
    return Q(s)


class Matrix:
    """Immutable dense matrix over Q."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(tuple(as_q(x) for x in row) for row in data)
        self.data = rows
        self.rows = len(rows)
        self.cols = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != self.cols:
                raise ValueError("ragged matrix rows")

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[ONE if i == j else ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_columns(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix(list(zip(*cols, strict=True)))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Matrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.data == other.data
        )

    def __repr__(self):
        body = "; ".join(" ".join(q_str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return Matrix(self._product_rows(other))

    def _product_rows(self, other: "Matrix") -> list[list]:
        """Rows of self @ other, skipping zero entries of both factors."""
        out = []
        for row in self.data:
            acc = [ZERO] * other.cols
            for a, orow in zip(row, other.data):
                if a:
                    for k, b in enumerate(orow):
                        if b:
                            acc[k] += a * b
            out.append(acc)
        return out

    def commutator(self, other: "Matrix") -> "Matrix":
        """self @ other - other @ self, subtracting only the nonzero entries
        of the second product."""
        if not (self.is_square() and (self.rows, self.cols) == (other.rows, other.cols)):
            raise ValueError("shape mismatch")
        rows = self._product_rows(other)
        for row, sub in zip(rows, other._product_rows(self)):
            for k, b in enumerate(sub):
                if b:
                    row[k] -= b
        return Matrix(rows)

    def flatten(self) -> tuple:
        """Row-major entry vector."""
        return tuple(x for row in self.data for x in row)


def clear_denominators(entries: dict) -> tuple[dict, int]:
    """(ints, den): den is the lcm of the denominators of the values, and
    ints maps the key of every nonzero value x to the integer den * x, in the
    order of entries."""
    den = lcm(*{int(x.denominator) for x in entries.values()})
    return {
        k: int(x.numerator) * (den // int(x.denominator))
        for k, x in entries.items()
        if x
    }, den


def rref(m: Matrix) -> tuple[Matrix, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns, computed by SparseSystem;
    zero rows pad the form to the shape of m."""
    reduced = SparseSystem(m.cols, map(_sparse, m.data)).reduced_rows()
    pivots = tuple(reduced)
    rows = [[reduced[lead].get(c, ZERO) for c in range(m.cols)] for lead in pivots]
    rows += [[ZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(rows), pivots


def rank_bareiss(m: Matrix) -> int:
    """Rank by fraction-free Bareiss elimination on the denominator-cleared
    integer matrix.  Shares no code with SparseSystem, the elimination behind
    rref; used as a cross-check oracle."""
    a = []
    for row in m.data:
        den = 1
        for x in row:
            den = lcm(den, int(x.denominator))
        a.append([int(x.numerator) * (den // int(x.denominator)) for x in row])
    nr = len(a)
    nc = m.cols
    r = 0
    prev = 1
    for c in range(nc):
        if r == nr:
            break
        pr = next((i for i in range(r, nr) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        for i in range(r + 1, nr):
            for j in range(c + 1, nc):
                a[i][j] = (a[r][c] * a[i][j] - a[i][c] * a[r][j]) // prev
            a[i][c] = 0
        prev = a[r][c]
        r += 1
    return r


P = 32749  # the largest prime below 2^15: (P - 1)^2 < 2^30, one CPython digit


def rank_mod_p(rows: Iterable[dict[int, int]], stop: int) -> int:
    """Rank mod P of the integer rows {col: int}, read in order until the
    rank reaches stop; shares no code with SparseSystem.

    A minor of an integer matrix that is nonzero mod P is nonzero, so the
    result is at most the rank over Q of the rows read, and so of all the
    rows.  Pivot rows are kept monic, as {col: residue} dicts keyed by
    their lead.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        if len(pivots) >= stop:
            break
        r = {c: x for c, v in row.items() if (x := v % P)}
        while r:
            lead = min(r)
            piv = pivots.get(lead)
            if piv is None:
                inv = pow(r[lead], -1, P)
                pivots[lead] = {c: v * inv % P for c, v in r.items()}
                break
            f = r[lead]
            for c, v in piv.items():
                x = (r.get(c, 0) - f * v) % P
                if x:
                    r[c] = x
                else:
                    del r[c]
    return len(pivots)


def _eliminate(row: dict, piv: dict, col: int) -> dict:
    """(a/g) row - (b/g) piv, with a = piv[col] > 0, b = row[col] and
    g = gcd(a, b): the integer combination that clears col.  Reuses row."""
    a, b = piv[col], row[col]
    g = gcd(a, b)
    if g != 1:
        a //= g
        b //= g
    if a != 1:
        row = {c: a * v for c, v in row.items()}
    for c, v in piv.items():
        nv = row.get(c, 0) - b * v
        if nv:
            row[c] = nv
        else:
            del row[c]
    return row


class SparseSystem:
    """Incremental sparse homogeneous system  A x = 0  over Q, eliminated
    fraction-free over Z: the one row reduction of this module apart from
    the rank_bareiss oracle.

    The rows, {col: value} dicts with rational or int values, are fed one
    at a time through `add_row`, first those given to the constructor.  Each
    row is cleared of denominators once and reduced against
    the pivot rows seen so far (forward echelon), in the style of Bareiss:
    r <- (a/g) r - (b/g) p with a, b the leads of the pivot row p and of r and
    g = gcd(a, b); r is divided by its content before each step.  Pivot rows
    are stored as primitive {col: int} dicts with a positive lead.
    `reduced_rows` back-reduces them the same way and divides by the lead
    last.  Every step scales by a nonzero integer, so the result is the
    reduced row echelon form over Q.  Built for the large Leibniz systems,
    whose rows are very sparse.
    """

    def __init__(self, ncols: int, rows: Iterable[dict]):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}
        for row in rows:
            self.add_row(row)

    def add_row(self, row: dict) -> None:
        row, _ = clear_denominators(row)
        pivot_rows = self.pivot_rows
        while row:
            g = gcd(*row.values())
            if g != 1:
                row = {c: v // g for c, v in row.items()}
            lead = min(row)
            piv = pivot_rows.get(lead)
            if piv is None:
                if row[lead] < 0:
                    row = {c: -v for c, v in row.items()}
                pivot_rows[lead] = row
                return
            row = _eliminate(row, piv, lead)

    @property
    def rank(self) -> int:
        return len(self.pivot_rows)

    def reduced_rows(self) -> dict[int, dict[int, Scalar]]:
        """The reduced row echelon form as {lead: {col: value}} in increasing
        lead order: 1 at the lead, no entry at any other lead column.  The
        integer pivot rows are back-reduced from the last lead up; only the
        finished row is divided by its lead."""
        done: dict[int, dict[int, int]] = {}
        for lead in sorted(self.pivot_rows, reverse=True):
            row = dict(self.pivot_rows[lead])
            # clearing a later lead brings in only columns free of leads
            for c in [c for c in row if c in done]:
                row = _eliminate(row, done[c], c)
            g = gcd(*row.values())
            if g != 1:
                row = {c: v // g for c, v in row.items()}
            done[lead] = row
        return {
            lead: {c: ONE if c == lead else Q(v, row[lead]) for c, v in row.items()}
            for lead, row in reversed(done.items())
        }

    def nullspace_basis(self) -> list[dict]:
        """Basis of the solution space as sparse rows {col: value}, one per
        free column: 1 at its free column and, at each lead whose reduced
        row has an entry in the free column, minus that entry."""
        reduced = self.reduced_rows()
        basis = {c: {c: ONE} for c in range(self.ncols) if c not in reduced}
        for lead, row in reduced.items():
            for c, v in row.items():
                if c != lead:
                    basis[c][lead] = -v
        return list(basis.values())

    def kernel(self) -> "Subspace":
        """The solution space as a canonical Subspace: the nullspace basis
        reduced by one more elimination.  With no pivot row that basis is
        already the unit rows."""
        if not self.pivot_rows:
            return Subspace.full(self.ncols)
        return Subspace.from_system(SparseSystem(self.ncols, self.nullspace_basis()))


def _sparse(v: Sequence) -> dict:
    """The nonzero entries of v as {index: value}."""
    return {j: x for j, x in enumerate(v) if x}


def _coerced_row(v: Sequence, n: int) -> dict:
    """The nonzero entries of v, coerced by as_q, as {index: value}.  Raises
    ValueError when v does not have length n."""
    if len(v) != n:
        raise ValueError("vector length != ambient dimension")
    return {j: q for j, x in enumerate(v) if (q := as_q(x))}


def combine(coeffs: Sequence, rows: Iterable[dict], n: int) -> list:
    """sum_r c_r v_r in Q^n, one coefficient per sparse row v_r = {col: value}."""
    out = [ZERO] * n
    for c, row in zip(coeffs, rows, strict=True):
        if c:
            for k, x in row.items():
                out[k] += c * x
    return out


def image_with_preimages(
    a: int, ncols: int, rows: Iterable[dict]
) -> tuple["Subspace", tuple, "Subspace"]:
    """(image, preimages, kernel) of a linear map f into Q^a, from the sparse
    rows (f(x), x) over ncols columns (the augmented-matrix method: Cohen, A
    Course in Computational Algebraic Number Theory, 1993, 2.4).

    The reduced rows of their span that lead in Q^a are reduced at every
    other such lead, so their Q^a parts are the canonical basis of the image
    of f and their other parts, shifted down by a, are sparse preimages, in
    order.  The remaining reduced rows are 0 in Q^a and span 0 x ker f;
    shifted down by a, they are the canonical rows of ker f.
    """
    reduced = SparseSystem(ncols, rows).reduced_rows().items()
    top = [(lead, row) for lead, row in reduced if lead < a]
    image = {lead: {c: x for c, x in row.items() if c < a} for lead, row in top}
    pre = tuple({c - a: x for c, x in row.items() if c >= a} for _, row in top)
    kernel = {lead - a: {c - a: x for c, x in row.items()} for lead, row in reduced if lead >= a}
    return Subspace(a, image), pre, Subspace(ncols - a, kernel)


def solve(a: Matrix, b: Sequence) -> tuple | None:
    """Some x with a x = b, or None when the system is inconsistent."""
    if a.rows != len(b):
        raise ValueError("shape mismatch")
    aug = Matrix([(*row, x) for row, x in zip(a.data, b)])
    r, pivots = rref(aug)
    if a.cols in pivots:
        return None
    x = [ZERO] * a.cols
    for i, c in enumerate(pivots):
        x[c] = r.data[i][a.cols]
    return tuple(x)


class Subspace:
    """Subspace of Q^n held as its reduced row echelon basis: the canonical
    form.

    `rows` maps each lead column, in increasing order, to its sparse row
    {col: value}, with 1 at the lead and no entry at any other lead, as
    `SparseSystem.reduced_rows` gives them; the entries of a row are in no
    particular column order.  Equal subspaces have equal rows.
    """

    __slots__ = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: dict[int, dict]):
        self.ambient_dim = ambient_dim
        self.rows = rows

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        rows = (_coerced_row(v, ambient_dim) for v in vectors)
        return Subspace.from_system(SparseSystem(ambient_dim, rows))

    @staticmethod
    def from_system(system: SparseSystem) -> "Subspace":
        """The span of the rows fed to system, from its reduced rows."""
        return Subspace(system.ncols, system.reduced_rows())

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, {i: {i: ONE} for i in range(ambient_dim)})

    @property
    def dim(self) -> int:
        return len(self.rows)

    def vectors(self) -> tuple:
        """The canonical basis, densely."""
        cols = range(self.ambient_dim)
        return tuple(tuple(row.get(c, ZERO) for c in cols) for row in self.rows.values())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.rows == other.rows
        )

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v: Sequence) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Sequence) -> tuple | None:
        """Coordinates of v in the canonical basis, or None if outside.
        Raises ValueError when v does not have the ambient length."""
        return self.coords_of_row(_coerced_row(v, self.ambient_dim))

    def coords_of_row(self, row: dict) -> tuple | None:
        """Coordinates of the sparse vector row {col: value}, or None if
        outside.  Because the basis is reduced, they are the entries of row
        at the leads; the result is verified by subtracting their
        combination of the basis rows from row, which must leave zero."""
        coords = tuple(row.get(lead, ZERO) for lead in self.rows)
        rest = dict(row)
        for c, basis_row in zip(coords, self.rows.values()):
            if c:
                for k, x in basis_row.items():
                    rest[k] = rest.get(k, ZERO) - c * x
        return None if any(rest.values()) else coords

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.coords_of_row(row) is not None for row in other.rows.values())

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: the span of the rows (u, u) and (w, 0), for the rows u
        of self and w of other, meets 0 x Q^n in 0 x (self & other), which is
        the kernel that `image_with_preimages` reads off its reduced rows."""
        self._check_ambient(other)
        n = self.ambient_dim
        rows = [{**row, **{n + c: x for c, x in row.items()}} for row in self.rows.values()]
        return image_with_preimages(n, 2 * n, rows + list(other.rows.values()))[2]

    def orthogonal_complement(self) -> "Subspace":
        return SparseSystem(self.ambient_dim, self.rows.values()).kernel()

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )


def rational_roots(coeffs: Sequence) -> list:
    """All rational roots of the polynomial with coefficients coeffs, lowest
    degree first and leading coefficient nonzero, sorted, by the
    rational-root theorem (complete over Q).  A root p/q has p | a0, q | an
    and |p/q| <= 2 max_k |a_(n-k)/an|^(1/k) (Fujiwara), so only p up to that
    bound times an are tried.  A candidate +-p/q in lowest terms is tested
    in integers, by sum_k a_k (+-p)^k q^(n-k) = 0 over the cleared
    coefficients a_k."""
    cs = [as_q(c) for c in coeffs]
    if not cs or not cs[-1]:
        raise ValueError("rational roots need a nonzero leading coefficient")
    ics, _ = clear_denominators(dict(enumerate(cs)))
    shift = min(ics)
    roots = [ZERO] if shift else []
    n = len(cs) - 1
    a0, an = abs(ics[shift]), abs(ics[n])
    ceil_roots = (_ceil_root(abs(ics.get(n - k, 0)), an, k) for k in range(1, n + 1))
    top = 2 * an * max(ceil_roots, default=0)
    qs = _divisors(an, an)
    for p in _divisors(a0, top):
        for q in qs:
            if gcd(p, q) == 1:
                roots += (Q(s, q) for s in (p, -p) if not _homogeneous_value(ics, n, s, q))
    return sorted(roots)


def _homogeneous_value(ics: dict, n: int, p: int, q: int) -> int:
    """sum_k a_k p^k q^(n-k) over the integer coefficients {k: a_k}: q^n
    times the value of the polynomial at p/q, by Horner's rule."""
    v = 0
    for k in range(n, -1, -1):
        v = v * p + ics.get(k, 0) * q ** (n - k)
    return v


def _ceil_root(num: int, den: int, k: int) -> int:
    """The least r >= 0 with r^k den >= num."""
    lo, hi = 0, 1 << (num.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi) // 2
        if mid ** k * den >= num:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _divisors(n: int, top: int) -> list[int]:
    """The divisors d <= top of n > 0, by trial division up to min(sqrt(n), top)."""
    out = set()
    for i in range(1, min(isqrt(n), top) + 1):
        if n % i == 0:
            out.update(d for d in (i, n // i) if d <= top)
    return sorted(out)


def minimal_polynomial(m: Matrix) -> tuple:
    """Coefficients, lowest degree first, of the monic polynomial of least
    degree annihilating m.  I, m, m^2, ... are fed to one SparseSystem until
    m^k depends on the powers before it; one `solve` then gives
    m^k = sum x_i m^i, and the polynomial is x^k - sum x_i x^i.  Raises
    InvariantError if k would exceed n, which Cayley-Hamilton rules out."""
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    powers = [Matrix.identity(n)]
    system = SparseSystem(n * n, [_sparse(powers[0].flatten())])
    while system.rank == len(powers):
        if len(powers) > n:
            raise InvariantError("minimal polynomial search exceeded dimension")
        powers.append(powers[-1] @ m)
        system.add_row(_sparse(powers[-1].flatten()))
    *lower, top = (p.flatten() for p in powers)
    x = solve(Matrix.from_columns(lower), top)
    return (*(-c for c in x), ONE)


def refine_eigenspaces(
    n: int, mats: Sequence[Matrix], spectra: Sequence[Sequence]
) -> list[tuple[tuple, Subspace]]:
    """The nonzero joint eigenspaces of Q^n under mats, whose rational
    eigenvalues are given by spectra.

    A part splits, for each lam of b, into its intersection with
    ker(b - lam), computed once per (b, lam); empty intersections are
    skipped.  So the parts are the joint eigenspaces of any matrices; their
    sum is direct, and it fills Q^n exactly when the mats have a common
    eigenbasis over Q, that is, when they commute and each is diagonalizable
    over Q, as the generators of a torus are.

    Returns (functional, subspace) pairs; the functional records one
    eigenvalue per generator, in list order.  Parts are sorted
    lexicographically on the functional values.
    """
    parts: list[tuple[tuple, Subspace]] = [((), Subspace.full(n))]
    for b, spectrum in zip(mats, spectra, strict=True):
        kernels = []
        for lam in spectrum:
            shifted = ({**_sparse(row), i: row[i] - lam} for i, row in enumerate(b.data))
            kernels.append((lam, SparseSystem(n, shifted).kernel()))
        parts = [
            (fun + (lam,), part)
            for fun, sub in parts
            for lam, ker in kernels
            if (part := sub.intersect(ker)).dim
        ]
    return sorted(parts, key=lambda p: p[0])
