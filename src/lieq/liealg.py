"""Structure-constant Lie algebras and their elementary invariants.

A LieAlgebra is given by the nonzero brackets [e_i, e_j] for i < j, each as a
sparse coordinate map {k: c_ij^k}: the [index, "p/q"] pairs of the file
format.  The constants are held once, in `sc`, a structure-constant table in
the style of GAP (de Graaf, Lie Algebras: Theory and Algorithms, 2000):
sc[i][j] = {k: c_ij^k} for every nonzero bracket, in both index orders, with
sc[j][i] holding the negated constants.  Antisymmetry therefore holds by
construction.  Every operation reads `sc`, so its cost follows the nonzero
constants and not dim^2 table entries.  Jacobi validation, the centre and
the derived and lower central series run over `integer_sc`, its
denominator-cleared copy, and feed integer rows to the elimination kernel.

The Jacobi identity is validated eagerly, so an invalid table is
unrepresentable downstream.  `check_dim_cap` refuses a dimension above
LIE_DIM_CAP; the constructors and the file loader call it before they build
an algebra.
"""

from __future__ import annotations

import os
from typing import Mapping, Sequence

from .linalg import (
    Matrix,
    Q,
    SparseSystem,
    Subspace,
    ZERO,
    as_q,
    clear_denominators,
)

Element = tuple  # coordinate vector relative to the owning algebra's basis

DEFAULT_DIM_CAP = 64


class DimensionCapError(ValueError):
    """Raised when an algebra would exceed the dimension cap, or when
    LIE_DIM_CAP is not an integer."""


def dim_cap() -> int:
    raw = os.environ.get("LIE_DIM_CAP")
    if raw is None:
        return DEFAULT_DIM_CAP
    try:
        return int(raw)
    except ValueError:
        raise DimensionCapError(f"LIE_DIM_CAP must be an integer, not {raw!r}") from None


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


class ValidationReport:
    __slots__ = ("jacobi_failures",)

    def __init__(self, jacobi_failures: list):
        self.jacobi_failures = jacobi_failures

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

    def bracket_basis(self, i: int, j: int) -> Element:
        """[e_i, e_j] for arbitrary i, j (antisymmetry applied)."""
        v = self.sc[i].get(j)
        if v is None:
            return self._zero
        out = [ZERO] * self.dim
        for k, c in v.items():
            out[k] = c
        return tuple(out)

    def bracket(self, x: Sequence, y: Sequence) -> Element:
        if len(x) != self.dim or len(y) != self.dim:
            raise ValueError("element length != dimension")
        sc = self.sc
        ys = [(j, b) for j, b in enumerate(y) if b]
        out = [ZERO] * self.dim
        for i, a in enumerate(x):
            row = sc[i]
            if not a or not row:
                continue
            for j, b in ys:
                v = row.get(j)
                if v is None:
                    continue
                if j > i:
                    c = a * b - x[j] * y[i]
                elif x[j] and y[i]:
                    continue  # counted with the ordered pair (j, i)
                else:
                    c = a * b
                if c:
                    for k, ck in v.items():
                        out[k] += c * ck
        return tuple(out)

    def ad_matrix(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y] in the basis of the algebra."""
        n = self.dim
        if len(x) != n:
            raise ValueError("element length != dimension")
        out = [[ZERO] * n for _ in range(n)]
        for i, a in enumerate(x):
            if a:
                a = as_q(a)
                for j, v in self.sc[i].items():
                    for k, c in v.items():
                        out[k][j] += a * c
        return Matrix(out)

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
        int over `integer_sc`."""
        isc = self.integer_sc()
        failures = []
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                for k in range(j + 1, n):
                    acc: dict[int, int] = {}
                    for a, b, m in ((i, j, k), (j, k, i), (k, i, j)):
                        v = isc[a].get(b)
                        if v is None:
                            continue
                        for l, c in v.items():
                            w = isc[l].get(m)
                            if w is not None:
                                for t, ct in w.items():
                                    acc[t] = acc.get(t, 0) + c * ct
                    if any(acc.values()):
                        failures.append((i, j, k))
        return ValidationReport(failures)

    def center(self) -> Subspace:
        """{x : [x, y] = 0 for all y}: coordinate k of [x, e_j] is
        sum_i x_i c_ij^k, one equation per (j, k), read off `integer_sc`."""
        n = self.dim
        isc = self.integer_sc()
        rows: dict[tuple[int, int], dict[int, int]] = {}
        for i in range(n):
            for j, v in isc[i].items():
                for k, c in v.items():
                    rows.setdefault((j, k), {})[i] = c
        system = SparseSystem(n)
        for key in sorted(rows):
            system.add_row(rows[key])
        return Subspace.from_vectors(n, system.nullspace_basis())

    def product_space(self, a: Subspace, b: Subspace) -> Subspace:
        """Span of [a, b], bracketed over `integer_sc` on the basis vectors
        of a and b cleared of denominators: scaling a vector keeps its span.
        For [a, a], each unordered pair is bracketed once: [u, u] = 0 and
        [v, u] = -[u, v]."""
        isc = self.integer_sc()
        us = [clear_denominators(dict(enumerate(u)))[0] for u in a.vectors()]
        system = SparseSystem(self.dim)
        if a == b:
            for i, u in enumerate(us):
                for v in us[i + 1 :]:
                    system.add_row(_integer_bracket(isc, u, v))
        else:
            vs = [clear_denominators(dict(enumerate(v)))[0] for v in b.vectors()]
            for u in us:
                for v in vs:
                    system.add_row(_integer_bracket(isc, u, v))
        return Subspace.from_system(system)

    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of the brackets [e_i, e_j], i < j, read off
        `integer_sc`."""
        system = SparseSystem(self.dim)
        for i, row in enumerate(self.integer_sc()):
            for j, v in row.items():
                if i < j:
                    system.add_row(v)
        return Subspace.from_system(system)

    def series(self) -> "SeriesReport":
        """Derived and lower central series; both have [g, g] as their
        second term, computed once."""
        full = Subspace.full(self.dim)
        second = self.derived_subalgebra()
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


class SeriesReport:
    __slots__ = ("derived_series", "lower_central_series", "is_solvable", "is_nilpotent")

    def __init__(self, derived_series, lower_central_series, is_solvable, is_nilpotent):
        self.derived_series = derived_series
        self.lower_central_series = lower_central_series
        self.is_solvable = is_solvable
        self.is_nilpotent = is_nilpotent
