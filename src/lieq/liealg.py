"""Structure-constant Lie algebras and their elementary invariants.

A LieAlgebra is given by the nonzero brackets [e_i, e_j] for i < j, each as a
sparse coordinate map {k: c_ij^k}: the [index, "p/q"] pairs of the file
format.  The constants are held once, in `sc`, a structure-constant table in
the style of GAP (de Graaf, Lie Algebras: Theory and Algorithms, 2000):
sc[i][j] = {k: c_ij^k} for every nonzero bracket, in both index orders, with
sc[j][i] holding the negated constants.  Antisymmetry therefore holds by
construction.  Every operation reads `sc`, so its cost follows the nonzero
constants and not dim^2 table entries.  Jacobi validation and the derived
and lower central series run over `integer_sc`, its denominator-cleared
copy, and feed integer rows to the elimination kernel; [g, g] is
`product_space` of g with itself.  `ad_image`
eliminates the rows (ad(e_j), e_j) once and reads off all three of ad(g), a
preimage under ad of each of its basis vectors, and the centre Z(g) = ker ad;
`center` is that kernel.

The Jacobi identity is validated eagerly, so an invalid table is
unrepresentable downstream.  `check_dim_cap` refuses a dimension above
LIE_DIM_CAP, which must be written in at most `MAX_COUNT_DIGITS` ASCII
decimal digits; the constructors and the file loader call it before they
build an algebra.  `read_count` reads a count by the same rule, and
`clip` bounds the input an error message echoes.
"""

from __future__ import annotations

import os
from typing import Mapping, NamedTuple, Sequence

from .linalg import (
    Matrix,
    ONE,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    as_q,
    clear_denominators,
    image_with_preimages,
)

Element = tuple  # coordinate vector relative to the owning algebra's basis

DEFAULT_DIM_CAP = 64
# CPython's default bound on the digits of an int read from a string; a
# count or cap past it is refused by its source, not by int()
MAX_COUNT_DIGITS = 4300
# the most characters of an input value that an error message echoes
ECHO_CHARS = 40


class DimensionCapError(ValueError):
    """Raised when an algebra would exceed the dimension cap, or when
    LIE_DIM_CAP is not a non-negative integer."""


def is_ascii_decimal(s: str) -> bool:
    """s is a non-negative integer written in ASCII decimal digits and
    nothing else: no sign, underscore, space or other script's digits."""
    return s.isascii() and s.isdigit()


def clip(s: str) -> str:
    """s as an error message echoes it: its first ECHO_CHARS characters,
    then '…' when it is longer."""
    return s if len(s) <= ECHO_CHARS else s[:ECHO_CHARS] + "…"


def read_count(s: str, what: str, error: type = ValueError) -> int:
    """s as a count: at most MAX_COUNT_DIGITS ASCII decimal digits
    (`is_ascii_decimal`).  Raises error, naming what, otherwise."""
    if not is_ascii_decimal(s):
        raise error(f"bad {what} {clip(s)!r}")
    if len(s) > MAX_COUNT_DIGITS:
        raise error(f"{what} has {len(s)} digits, over {MAX_COUNT_DIGITS}")
    return int(s)


def dim_cap() -> int:
    raw = os.environ.get("LIE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    if not is_ascii_decimal(raw):
        raise DimensionCapError(f"LIE_DIM_CAP must be a non-negative integer, not {clip(raw)!r}")
    if len(raw) > MAX_COUNT_DIGITS:
        raise DimensionCapError(f"LIE_DIM_CAP has {len(raw)} digits, over {MAX_COUNT_DIGITS}")
    return int(raw)


def check_dim_cap(dim: int) -> None:
    """Refuse an algebra of dimension dim before it is built."""
    cap = dim_cap()
    if dim > cap:
        raise DimensionCapError(f"dimension {dim} exceeds LIE_DIM_CAP {cap}")


class InvalidStructureError(ValueError):
    """Raised when a structure-constant table fails validation."""


class NotClosedError(ValueError):
    """Raised when a subspace is not closed under the bracket."""

    def __init__(self, i: int, j: int, escaped):
        self.witness = (i, j, escaped)
        super().__init__(
            f"bracket of span basis vectors {i}, {j} escapes the span"
        )


class ValidationReport(NamedTuple):
    jacobi_failures: list

    @property
    def ok(self) -> bool:
        return not self.jacobi_failures


class LieAlgebra:
    """Finite-dimensional Lie algebra over Q given by structure constants.

    `table` maps (i, j) with i < j to the coordinates {k: c} of [e_i, e_j];
    missing pairs and zero coefficients mean zero.  The constructor keeps
    them as the index `sc` described in the module docstring.
    """

    __slots__ = ("dim", "labels", "sc", "_zero", "_isc")

    def __init__(
        self,
        dim: int,
        table: Mapping[tuple[int, int], Mapping[int, object]],
        labels: Sequence[str] | None = None,
        check: bool = True,
    ):
        if labels is None:
            labels = tuple(f"e{i}" for i in range(dim))
        labels = tuple(labels)
        if len(labels) != dim:
            raise ValueError("label count != dimension")
        sc: list[dict[int, dict[int, Q]]] = [{} for _ in range(dim)]
        for (i, j), v in table.items():
            if not (0 <= i < j < dim):
                raise ValueError(f"bad bracket index pair ({i}, {j})")
            nz = {}
            for k in sorted(v):
                if not 0 <= k < dim:
                    raise ValueError(f"bracket coordinate {k} out of range")
                c = as_q(v[k])
                if c:
                    nz[k] = c
            if nz:
                sc[i][j] = nz
                sc[j][i] = {k: -c for k, c in nz.items()}
        self.dim = dim
        self.labels = labels
        self.sc = sc
        self._zero = (ZERO,) * dim
        self._isc = None
        if check:
            report = self.validate()
            if not report.ok:
                i, j, k = report.jacobi_failures[0]
                raise InvalidStructureError(
                    f"Jacobi identity fails on basis triple ({i}, {j}, {k})"
                )

    def zero(self) -> Element:
        return self._zero

    def basis_element(self, i: int) -> Element:
        return tuple(Q(1) if j == i else ZERO for j in range(self.dim))

    def bracket(self, x: Sequence, y: Sequence) -> Element:
        """[x, y], the view of `ad_rows`: [x, y]_k = sum_j ad(x)_kj y_j."""
        if len(y) != self.dim:
            raise ValueError("element length != dimension")
        rows = self.ad_rows(x)
        return tuple(
            sum((c * y[j] for j, c in rows.get(k, {}).items()), ZERO) for k in range(self.dim)
        )

    def ad_rows(self, x: Sequence) -> dict[int, dict[int, Q]]:
        """The rows of ad(x), the map y -> [x, y], read off `sc` as
        {k: {j: value}}: entry (k, j) is sum_i x_i c_ij^k.  Entries that
        cancel stay as zeros."""
        if len(x) != self.dim:
            raise ValueError("element length != dimension")
        out: dict[int, dict[int, Q]] = {}
        for i, a in enumerate(x):
            if a:
                a = as_q(a)
                for j, v in self.sc[i].items():
                    for k, c in v.items():
                        row = out.setdefault(k, {})
                        row[j] = row.get(j, ZERO) + a * c
        return out

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y] in the basis of the algebra: the dense view
        of `ad_rows`."""
        cols = range(self.dim)
        rows = self.ad_rows(x)
        return Matrix([[row.get(j, ZERO) for j in cols] for row in (rows.get(k, {}) for k in cols)])

    def ad_entries(self, j: int) -> dict:
        """ad(e_j) by its sparse row-major entries {k*n + i: c}: entry (k, i)
        is c_ji^k, read off `sc`."""
        n = self.dim
        return {k * n + i: c for i, v in self.sc[j].items() for k, c in v.items()}

    def integer_sc(self) -> list[dict[int, dict[int, int]]]:
        """`sc` scaled by the lcm d of its denominators, in int; built once
        and shared, so callers must not modify it.

        A system of equations linear in the constants has the same solutions
        over this copy as over `sc` (every equation is scaled by d), and a
        quadratic one is scaled by d^2, so it is zero exactly when it is."""
        if self._isc is None:
            flat = {
                (i, j, k): c
                for i, row in enumerate(self.sc)
                for j, v in row.items()
                for k, c in v.items()
            }
            ints, _ = clear_denominators(flat)
            isc: list[dict[int, dict[int, int]]] = [{} for _ in range(self.dim)]
            for (i, j, k), c in ints.items():
                isc[i].setdefault(j, {})[k] = c
            self._isc = isc
        return self._isc

    def validate(self) -> ValidationReport:
        """Jacobi identity on every basis triple i < j < k; failures are
        listed in lexicographic order.

        The cyclic sum [c_ij, e_k] + [c_jk, e_i] + [c_ki, e_j] is summed in
        int over `integer_sc`, from its nonzero terms only: each term
        [[e_a, e_b], e_m] with a < b and m outside {a, b} is added to the sum
        of the sorted triple, negated when a < m < b, since there it stands
        for -[c_ki, e_j].  A triple with no nonzero term sums to zero."""
        isc = self.integer_sc()
        sums: dict[tuple[int, int, int], dict[int, int]] = {}
        for a, row in enumerate(isc):
            for b, v in row.items():
                if a < b:
                    for l, c in v.items():
                        for m, w in isc[l].items():
                            if m != a and m != b:
                                f = -c if a < m < b else c
                                acc = sums.setdefault(tuple(sorted((a, b, m))), {})
                                for t, ct in w.items():
                                    acc[t] = acc.get(t, 0) + f * ct
        return ValidationReport(sorted(key for key, acc in sums.items() if any(acc.values())))

    def ad_image(self) -> tuple[Subspace, tuple, Subspace]:
        """(ad(g), preimages, Z(g)) from one elimination of the rows
        (ad(e_j), e_j) in Q^(n^2) x Q^n, with ad(e_j) by `ad_entries`.
        ad(g) is in Q^(n^2); the preimages give an x with ad(x) equal to each
        of its basis vectors, in order; Z(g) is the kernel of ad.  See
        `image_with_preimages`."""
        n = self.dim
        rows = ({**self.ad_entries(j), n * n + j: ONE} for j in range(n))
        return image_with_preimages(n * n, n * n + n, rows)

    def center(self) -> Subspace:
        """Z(g) = {x : [x, y] = 0 for all y}, the kernel of ad, from
        `ad_image`."""
        return self.ad_image()[2]

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [a, b], bracketed over `integer_sc` on the reduced rows of
        a and b cleared of denominators: scaling a vector keeps its span.
        For [a, a], each unordered pair is bracketed once: [u, u] = 0 and
        [v, u] = -[u, v]."""
        isc = self.integer_sc()
        us = [clear_denominators(row)[0] for row in a.rows.values()]
        if a == b:
            pairs = ((u, v) for i, u in enumerate(us) for v in us[i + 1 :])
        else:
            vs = [clear_denominators(row)[0] for row in b.rows.values()]
            pairs = ((u, v) for u in us for v in vs)
        rows = (_integer_bracket(isc, u, v) for u, v in pairs)
        return Subspace.from_system(SparseSystem(self.dim, rows))

    def series(self) -> "SeriesReport":
        """Derived and lower central series; both have [g, g] =
        product_space(g, g) as their second term, computed once."""
        full = Subspace.full(self.dim)
        second = self.product_space(full, full)
        derived = _descend(full, second, lambda s: self.product_space(s, s))
        lower = _descend(full, second, lambda s: self.product_space(full, s))
        return SeriesReport(
            tuple(derived),
            tuple(lower),
            is_solvable=derived[-1].dim == 0,
            is_nilpotent=lower[-1].dim == 0,
        )

    def subalgebra_structure(
        self, span: Subspace, labels: Sequence[str] | None = None
    ) -> "LieAlgebra":
        """Structure constants of the bracket restricted to `span`, in the
        canonical basis of span.  Raises NotClosedError when some bracket of
        basis vectors escapes the span."""
        if span.ambient_dim != self.dim:
            raise ValueError("span ambient dimension != algebra dimension")
        vecs = span.vectors()
        d = len(vecs)
        table = {}
        for i in range(d):
            for j in range(i + 1, d):
                br = self.bracket(vecs[i], vecs[j])
                coords = span.coords_of(br)
                if coords is None:
                    raise NotClosedError(i, j, br)
                table[(i, j)] = {k: c for k, c in enumerate(coords) if c}
        if labels is None:
            labels = tuple(f"v{i}" for i in range(d))
        return LieAlgebra(d, table, labels, check=True)

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, labels={list(self.labels)})"


def _integer_bracket(isc: list, x: dict, y: dict) -> dict[int, int]:
    """[x, y] over the integer table isc, for x and y as {index: int}."""
    out: dict[int, int] = {}
    for i, a in x.items():
        row = isc[i]
        for j, b in y.items():
            v = row.get(j)
            if v is not None:
                ab = a * b
                for k, c in v.items():
                    out[k] = out.get(k, 0) + ab * c
    return out


def _descend(full: Subspace, second: Subspace, step) -> list[Subspace]:
    """The chain full, second, step(second), ...: it ends at its first zero
    term, or before the first term equal to the one before it."""
    terms, nxt = [full], second
    while terms[-1].dim > 0 and nxt != terms[-1]:
        terms.append(nxt)
        nxt = step(nxt)
    return terms


class SeriesReport(NamedTuple):
    derived_series: tuple
    lower_central_series: tuple
    is_solvable: bool
    is_nilpotent: bool
