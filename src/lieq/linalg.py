"""Exact rational linear algebra: matrices, RREF, nullspaces, canonical subspaces,
minimal polynomials and simultaneous eigenspaces of commuting matrices.

All arithmetic is over Q with arbitrary-precision integers.  gmpy2.mpq is
used when available (it is API-compatible with fractions.Fraction and much
faster); otherwise Fraction is the scalar type.  Scalars are always stored
in lowest terms with positive denominator, so equality is exact.

Scalars are coerced by `as_q` at the API boundaries (Matrix(), Polynomial,
the vectors and coefficients passed in); arithmetic on them stays in the
scalar type.

There is one elimination kernel.  `SparseSystem` clears each row's
denominators, eliminates fraction-free over Z and back-reduces to the
reduced row echelon form, dividing by each lead only at the end; `rref`,
`nullspace`, `solve`, `rank` and the canonical subspaces all run on it, and
the Der(g), center and series solvers feed it directly.  A canonical
`Subspace` is read off its reduced rows once (`Subspace.from_system`).
`rank_bareiss` is a second, independent elimination, kept only to audit
rank.  `rank_mod_p` is a third, over the integers mod a fixed prime: a rank
certificate, not a nullspace kernel.  It never yields a basis, only a lower
bound on the rank over Q, which is how Der(g) = ad(g) is proved without the
exact elimination.
`clear_denominators` gives the integer form over one common denominator in
which the Der(g) structure constants and the Jacobi check are computed.
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


def as_q(x) -> Scalar:
    """Coerce an int, float (exactly), Fraction, mpq or 'p/q' string to the
    scalar type; a scalar that already has that type is returned as it is."""
    return x if type(x) is Q else Q(x)


def q_str(x) -> str:
    """Render a scalar as 'p' or 'p/q' with q > 0."""
    n, d = x.numerator, x.denominator
    return str(n) if d == 1 else f"{n}/{d}"


_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def q_parse(s: str) -> Scalar:
    """Parse 'p' or 'p/q' exactly; decimal notation is rejected."""
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
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
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([[ZERO] * cols for _ in range(rows)])

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

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(" ".join(q_str(x) for x in row) for row in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i][j]

    def column(self, j: int) -> tuple:
        return tuple(row[j] for row in self.data)

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        return Matrix(
            [
                [a + b for a, b in zip(r1, r2)]
                for r1, r2 in zip(self.data, other.data)
            ]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + other.scale(-ONE)

    def scale(self, c) -> "Matrix":
        c = as_q(c)
        return Matrix([[c * x for x in row] for row in self.data])

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

    def apply(self, v: Sequence) -> tuple:
        """Matrix-vector product."""
        if len(v) != self.cols:
            raise ValueError("shape mismatch")
        return tuple(
            sum((a * b for a, b in zip(row, v) if a and b), ZERO)
            for row in self.data
        )

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

    @staticmethod
    def unflatten(v: Sequence, rows: int, cols: int) -> "Matrix":
        """Inverse of flatten."""
        if len(v) != rows * cols:
            raise ValueError("shape mismatch")
        return Matrix([v[i * cols : (i + 1) * cols] for i in range(rows)])

    def stack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ValueError("shape mismatch")
        return Matrix(list(self.data) + list(other.data))


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
    reduced = _system(m).reduced_rows()
    pivots = tuple(sorted(reduced))
    rows = [[reduced[lead].get(c, ZERO) for c in range(m.cols)] for lead in pivots]
    rows += [[ZERO] * m.cols for _ in range(m.rows - len(pivots))]
    return Matrix(rows), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


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

    Rows are fed one at a time as {col: value} dicts with rational or int
    values.  Each row is cleared of denominators once and reduced against
    the pivot rows seen so far (forward echelon), in the style of Bareiss:
    r <- (a/g) r - (b/g) p with a, b the leads of the pivot row p and of r and
    g = gcd(a, b); r is divided by its content before each step.  Pivot rows
    are stored as primitive {col: int} dicts with a positive lead.
    `reduced_rows` back-reduces them the same way and divides by the lead
    last.  Every step scales by a nonzero integer, so the result is the
    reduced row echelon form over Q.  Built for the large Leibniz systems,
    whose rows are very sparse.
    """

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.pivot_rows: dict[int, dict[int, int]] = {}

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
        """The reduced row echelon form as {lead: {col: value}}: 1 at the
        lead, no entry at any other lead column.  The integer pivot rows are
        back-reduced from the last lead up; only the finished row is divided
        by its lead."""
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
            for lead, row in done.items()
        }

    def nullspace_basis(self) -> list[tuple]:
        """Basis of the solution space, one vector per free column: 1 at its
        free column, 0 at the other free columns and, at each lead column,
        minus that reduced row's entry in the free column."""
        reduced = self.reduced_rows()
        basis = {c: [ZERO] * self.ncols for c in range(self.ncols) if c not in reduced}
        for fc, x in basis.items():
            x[fc] = ONE
        for lead, row in reduced.items():
            for c, v in row.items():
                if c != lead:
                    basis[c][lead] = -v
        return [tuple(x) for x in basis.values()]


def _system(m: Matrix) -> SparseSystem:
    """SparseSystem fed the rows of m."""
    system = SparseSystem(m.cols)
    for row in m.data:
        system.add_row({j: x for j, x in enumerate(row) if x})
    return system


def nullspace(m: Matrix) -> "Subspace":
    """Kernel {v : m v = 0} as a canonical Subspace."""
    return Subspace.from_vectors(m.cols, _system(m).nullspace_basis())


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
        x[c] = r[i, a.cols]
    return tuple(x)


class Subspace:
    """Subspace of Q^n held as an RREF row basis: the canonical form.

    Equality of subspaces is entry-wise equality of the basis matrices.  The
    lead column of each basis row is found once, here.
    """

    __slots__ = ("ambient_dim", "basis", "_leads")

    def __init__(self, ambient_dim: int, basis: Matrix):
        if basis.cols not in (ambient_dim, 0):
            raise ValueError("basis width != ambient dimension")
        self.ambient_dim = ambient_dim
        self.basis = basis
        self._leads = tuple(next(j for j, x in enumerate(row) if x) for row in basis.data)

    @staticmethod
    def from_vectors(ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        system = SparseSystem(ambient_dim)
        for v in vectors:
            if len(v) != ambient_dim:
                raise ValueError("vector length != ambient dimension")
            system.add_row({j: q for j, x in enumerate(v) if (q := as_q(x))})
        return Subspace.from_system(system)

    @staticmethod
    def from_system(system: SparseSystem) -> "Subspace":
        """The span of the rows fed to system, from its reduced rows."""
        reduced = system.reduced_rows()
        n = system.ncols
        return Subspace(
            n,
            Matrix([[row.get(c, ZERO) for c in range(n)] for _, row in sorted(reduced.items())]),
        )

    @staticmethod
    def zero(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix([]))

    @staticmethod
    def full(ambient_dim: int) -> "Subspace":
        return Subspace(ambient_dim, Matrix.identity(ambient_dim))

    @property
    def dim(self) -> int:
        return self.basis.rows

    def vectors(self) -> tuple:
        return self.basis.data

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains_vector(self, v: Sequence) -> bool:
        return self.coords_of(v) is not None

    def coords_of(self, v: Sequence) -> tuple | None:
        """Coordinates of v in the canonical basis, or None if outside.

        Because the basis is RREF, the coordinates are just the entries of v
        at the pivot columns; the result is verified by reconstruction.
        Raises ValueError when v does not have the ambient length.
        """
        if len(v) != self.ambient_dim:
            raise ValueError("vector length != ambient dimension")
        v = tuple(as_q(x) for x in v)
        coords = [v[lead] for lead in self._leads]
        recon = [ZERO] * self.ambient_dim
        for c, row in zip(coords, self.basis.data):
            if c:
                for k, b in enumerate(row):
                    if b:
                        recon[k] += c * b
        if tuple(recon) != v:
            return None
        return tuple(coords)

    def contains(self, other: "Subspace") -> bool:
        self._check_ambient(other)
        return all(self.contains_vector(v) for v in other.vectors())

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_ambient(other)
        return Subspace.from_vectors(
            self.ambient_dim, list(self.vectors()) + list(other.vectors())
        )

    def intersect(self, other: "Subspace") -> "Subspace":
        """Zassenhaus: rref [[A A],[B 0]]; rows with zero left half carry the
        intersection in the right half."""
        self._check_ambient(other)
        n = self.ambient_dim
        rows = [list(v) + list(v) for v in self.vectors()]
        rows += [list(v) + [ZERO] * n for v in other.vectors()]
        if not rows:
            return Subspace.zero(n)
        r, pivots = rref(Matrix(rows))
        inter = [
            row[n:]
            for row in r.data[: len(pivots)]
            if all(x == 0 for x in row[:n])
        ]
        return Subspace.from_vectors(n, inter)

    def orthogonal_complement(self) -> "Subspace":
        if self.dim == 0:
            return Subspace.full(self.ambient_dim)
        return nullspace(self.basis)

    def _check_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient dimension mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )


class Polynomial:
    """Dense polynomial over Q, coefficients lowest degree first."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = [as_q(x) for x in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1  # -1 for the zero polynomial

    def is_zero(self) -> bool:
        return not self.coeffs

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        if self.is_zero():
            return "Polynomial(0)"
        terms = [f"{q_str(c)}*x^{i}" for i, c in enumerate(self.coeffs) if c]
        return "Polynomial(" + " + ".join(terms) + ")"

    def monic(self) -> "Polynomial":
        if self.is_zero():
            return self
        lc = self.coeffs[-1]
        return Polynomial([c / lc for c in self.coeffs])

    def derivative(self) -> "Polynomial":
        return Polynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    def eval_scalar(self, x) -> Scalar:
        x = as_q(x)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def divmod(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = list(other.coeffs)
        q = [ZERO] * max(0, len(rem) - len(d) + 1)
        while len(rem) >= len(d):
            f = rem[-1] / d[-1]
            k = len(rem) - len(d)
            q[k] = f
            for i, c in enumerate(d):
                rem[k + i] -= f * c
            while rem and rem[-1] == 0:
                rem.pop()
        return Polynomial(q), Polynomial(rem)

    def gcd(self, other: "Polynomial") -> "Polynomial":
        a, b = self, other
        while not b.is_zero():
            a, b = b, a.divmod(b)[1]
        return a.monic()

    def is_squarefree(self) -> bool:
        return self.gcd(self.derivative()).degree <= 0

    def rational_roots(self) -> list:
        """All rational roots, by the rational-root theorem (complete over Q).
        A root p/q has p | a0, q | an and |p/q| <= 2 max_k |a_(n-k)/an|^(1/k)
        (Fujiwara), so only p up to that bound times an are tried."""
        if self.is_zero():
            raise ValueError("zero polynomial")
        cs = list(self.coeffs)
        den = 1
        for c in cs:
            den = lcm(den, int(c.denominator))
        ics = [int(c.numerator) * (den // int(c.denominator)) for c in cs]
        roots = []
        shift = 0
        while ics[shift] == 0:
            shift += 1
        if shift:
            roots.append(ZERO)
        a0, an = abs(ics[shift]), abs(ics[-1])
        n = len(ics) - 1
        ceil_roots = (_ceil_root(abs(ics[n - k]), an, k) for k in range(1, n + 1))
        top = 2 * an * max(ceil_roots, default=0)
        qs = _divisors(an, an)
        for p in _divisors(a0, top):
            for q in qs:
                for cand in (Q(p, q), Q(-p, q)):
                    if cand not in roots and self.eval_scalar(cand) == 0:
                        roots.append(cand)
        return sorted(roots)

    def splits_rationally(self) -> tuple[bool, list]:
        """Whether the polynomial is a product of rational linear factors;
        verified by deflating every found root."""
        if self.degree <= 0:
            return True, []
        roots = self.rational_roots()
        rem = self.monic()
        used = []
        for r in roots:
            lin = Polynomial([-r, ONE])
            while True:
                q, rr = rem.divmod(lin)
                if rr.is_zero():
                    rem = q
                    used.append(r)
                else:
                    break
        return rem.degree <= 0, used


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


def minimal_polynomial(m: Matrix) -> Polynomial:
    """Monic polynomial of least degree annihilating m (Krylov on I, m, m^2, ...)."""
    if not m.is_square():
        raise ValueError("minimal polynomial of a non-square matrix")
    n = m.rows
    if n == 0:
        return Polynomial([ONE])
    powers = [Matrix.identity(n)]
    while True:
        k = len(powers)
        cols = [p.flatten() for p in powers]
        target = (powers[-1] @ m).flatten()
        x = solve(Matrix.from_columns(cols), target)
        if x is not None:
            # m^k = sum x_i m^i  =>  p(x) = x^k - sum x_i x^i
            return Polynomial([-c for c in x] + [ONE])
        powers.append(powers[-1] @ m)
        if k > n:  # cannot happen; defensive
            raise RuntimeError("minimal polynomial search exceeded dimension")


class SemisimplicityReport:
    """Result of the split-semisimplicity test for a square matrix."""

    __slots__ = ("semisimple", "split", "eigenvalues", "min_poly")

    def __init__(self, semisimple: bool, split: bool, eigenvalues, min_poly: Polynomial):
        self.semisimple = semisimple
        self.split = split
        self.eigenvalues = tuple(eigenvalues) if eigenvalues is not None else None
        self.min_poly = min_poly

    def __repr__(self):
        return (
            f"SemisimplicityReport(semisimple={self.semisimple}, split={self.split}, "
            f"eigenvalues={self.eigenvalues})"
        )


def split_semisimple_check(m: Matrix) -> SemisimplicityReport:
    """Semisimple  <=>  squarefree minimal polynomial; eigenvalues are
    reported only when the minimal polynomial splits over Q (split flag).
    """
    p = minimal_polynomial(m)
    squarefree = p.is_squarefree()
    splits, roots = p.splits_rationally()
    eig = sorted(set(roots)) if splits else None
    return SemisimplicityReport(squarefree, splits, eig, p)


class NotSplitError(ValueError):
    """Raised when a torus generator has an irrational spectrum on an
    invariant subspace."""


def refine_eigenspaces(
    n: int, mats: Sequence[Matrix]
) -> list[tuple[tuple, Subspace]]:
    """Simultaneous eigenspace refinement of Q^n under commuting matrices.

    Returns (functional, subspace) pairs; the functional records one
    eigenvalue per generator, in list order.  Parts are sorted
    lexicographically on the functional values.
    """
    parts: list[tuple[tuple, Subspace]] = [((), Subspace.full(n))]
    for b in mats:
        new_parts = []
        for fun, sub in parts:
            vecs = sub.vectors()
            r = len(vecs)
            if r == 0:
                continue
            cols = []
            for v in vecs:
                image = b.apply(v)
                coords = sub.coords_of(image)
                if coords is None:
                    raise ValueError("subspace not invariant: generators do not commute")
                cols.append(coords)
            restricted = Matrix.from_columns(cols)
            rep = split_semisimple_check(restricted)
            if not rep.split:
                raise NotSplitError(
                    "torus generator has irrational eigenvalues on an invariant subspace"
                )
            for lam in rep.eigenvalues:
                shifted = restricted - Matrix.identity(r).scale(lam)
                ker = nullspace(shifted)
                lifted = []
                for coords in ker.vectors():
                    w = [ZERO] * n
                    for c, base_vec in zip(coords, vecs):
                        if c:
                            w = [a + c * x for a, x in zip(w, base_vec)]
                    lifted.append(w)
                if lifted:
                    new_parts.append((fun + (lam,), Subspace.from_vectors(n, lifted)))
        parts = new_parts
    return sorted(parts, key=lambda p: p[0])
