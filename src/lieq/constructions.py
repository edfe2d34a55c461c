"""Builders for new algebras: semidirect products, full graphs,
Heisenberg algebras, graded powers, and a named catalog.

Each builder returns the LieAlgebra it builds.  The basis of s x_phi g is
that of s, then that of g: the g part occupies range(s.dim, s.dim + g.dim),
and v in g embeds as s.zero() + v.  phi is given by the images of the basis
of s as sparse row-major entries {r*n + c: q}, the form of the rows of
Der(g), so `full_graph` passes those rows as they are.  A derivation is
given in that form here too: `grading_derivation` returns its entries, and
no builder makes a matrix.  Each builder refuses an algebra over
LIE_DIM_CAP before it builds it.
"""

from __future__ import annotations

from typing import Collection

from .derivations import DerivationSpace, check_images, derivations
from .liealg import LieAlgebra, check_dim_cap, clip, read_count
from .linalg import Q


def semidirect(s: LieAlgebra, g: LieAlgebra, images: Collection[dict]) -> LieAlgebra:
    """s x_phi g, for phi given by the images phi(s_k) of the basis of s,
    with bracket [(s1,g1),(s2,g2)] = ([s1,s2], s1(g2) - s2(g1) + [g1,g2]).
    Each image is given by its sparse row-major entries {r*n + c: q},
    n = dim g, and each entry q at (r, c) is written straight into the
    bracket [s_k, g_c] = sum_r q g_r.

    The Jacobi validation of the product is the one check of phi.  The
    triples (s_k, g_i, g_j) hold exactly when phi(s_k) is a derivation of g,
    and the triples (s_k, s_l, g_i) exactly when phi([s_k, s_l]) =
    [phi(s_k), phi(s_l)] on g_i; the rest are the Jacobi identities of s and
    of g.  So the product is a Lie algebra exactly when phi is a homomorphism
    s -> Der(g).  Raises ValueError unless there is one image per basis
    vector of s, with its entry indices in range(n^2), and
    InvalidStructureError (a ValueError) naming the failing basis triple of
    the product, whose indices below dim s are in s, when phi is not such a
    homomorphism.
    """
    if len(images) != s.dim:
        raise ValueError("phi needs one image per basis vector of s")
    check_images(images, g.dim)
    p, n = s.dim, g.dim
    dim = p + n
    check_dim_cap(dim)
    table: dict[tuple[int, int], dict] = {}
    for i, row in enumerate(s.sc):
        for j, v in row.items():
            if i < j:
                table[(i, j)] = v
    for i, img in enumerate(images):
        for t, q in img.items():
            table.setdefault((i, p + t % n), {})[p + t // n] = q
    for i, row in enumerate(g.sc):
        for j, v in row.items():
            if i < j:
                table[(p + i, p + j)] = {p + k: c for k, c in v.items()}
    labels = tuple(f"s:{l}" for l in s.labels) + tuple(f"g:{l}" for l in g.labels)
    return LieAlgebra(dim, table, labels, check=True)


def full_graph(g: LieAlgebra, ds: DerivationSpace | None = None) -> LieAlgebra:
    """f(g) = Der(g) x_id g.  Der(g) is computed here (canonical basis)
    unless a precomputed DerivationSpace for g is supplied."""
    if ds is None:
        ds = derivations(g)
    elif ds.base is not g and ds.base.sc != g.sc:
        raise ValueError("derivation space does not belong to this algebra")
    return semidirect(ds.algebra, g, ds.space.rows.values())


def heisenberg(N: int) -> LieAlgebra:
    """h_{2N+1}: basis x1..xN, y1..yN, c with [x_i, y_j] = delta_ij c."""
    if N < 1:
        raise ValueError("N must be >= 1")
    dim = 2 * N + 1
    check_dim_cap(dim)
    table = {(i, N + i): {dim - 1: 1} for i in range(N)}
    labels = (
        tuple(f"x{i+1}" for i in range(N))
        + tuple(f"y{i+1}" for i in range(N))
        + ("c",)
    )
    return LieAlgebra(dim, table, labels, check=True)


def graded_power(g: LieAlgebra, n: int) -> LieAlgebra:
    """g^(+)n: n slot copies of g with [u, v](k) = sum_{i+j=k} [u(i), v(j)].

    Slot k occupies coordinates (k-1)*dim(g) .. k*dim(g)-1.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    m = g.dim
    dim = n * m
    check_dim_cap(dim)
    table: dict[tuple[int, int], dict] = {}
    for si in range(1, n + 1):
        for sj in range(si, n + 1 - si):
            off_i, off_j, off_k = (si - 1) * m, (sj - 1) * m, (si + sj - 1) * m
            for a, row in enumerate(g.sc):
                for b, v in row.items():
                    # within one slot only a < b is a pair i < j
                    if si < sj or a < b:
                        table[(off_i + a, off_j + b)] = {off_k + t: c for t, c in v.items()}
    labels = tuple(
        f"{lab}@{k}" for k in range(1, n + 1) for lab in g.labels
    )
    return LieAlgebra(dim, table, labels, check=True)


def grading_derivation(g: LieAlgebra, n: int) -> dict:
    """Diagonal derivation of graded_power(g, n) acting as multiplication by
    k on slot k, by its sparse row-major entries {i*(dim + 1): k}."""
    m = g.dim
    dim = n * m
    return {i * (dim + 1): Q(i // m + 1) for i in range(dim)}


def abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise ValueError("dimension must be >= 0")
    check_dim_cap(n)
    return LieAlgebra(n, {}, tuple(f"e{i+1}" for i in range(n)), check=False)


def nonabelian2() -> LieAlgebra:
    """The 2-dimensional algebra [x, y] = y (complete)."""
    check_dim_cap(2)
    return LieAlgebra(2, {(0, 1): {1: 1}}, ("x", "y"), check=True)


CATALOG_NAMES = (
    "abelian:<n>",
    "nonabelian2",
    "heisenberg:<N>",
    "graded-power:<name>:<n>",
    "full-graph:<name>",
)
CATALOG_HELP = " | ".join(CATALOG_NAMES)


def catalog(name: str) -> LieAlgebra:
    """Resolve a catalog name; modifiers compose from the right, e.g.
    full-graph:heisenberg:1 or graded-power:heisenberg:1:2."""
    if name == "nonabelian2":
        return nonabelian2()
    if name.startswith("abelian:"):
        return abelian(read_count(name.split(":", 1)[1], "catalog count"))
    if name.startswith("heisenberg:"):
        return heisenberg(read_count(name.split(":", 1)[1], "catalog count"))
    if name.startswith("graded-power:"):
        rest = name.split(":", 1)[1]
        inner_name, _, n = rest.rpartition(":")
        return graded_power(catalog(inner_name), read_count(n, "catalog count"))
    if name.startswith("full-graph:"):
        return full_graph(catalog(name.split(":", 1)[1]))
    raise KeyError(f"unknown catalog name {clip(name)!r} (expected {CATALOG_HELP})")

