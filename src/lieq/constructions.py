"""Builders for new algebras: semidirect products, full graphs and their
iterates, Heisenberg algebras, graded powers, and a named catalog.

Basis order in every semidirect product is s-part first, then g-part, and
the embedding records both index ranges.  Each builder refuses an algebra
over LIE_DIM_CAP before it builds it.
"""

from __future__ import annotations

from typing import Sequence

from .derivations import DerivationSpace, check_images, derivations
from .liealg import LieAlgebra, check_dim_cap
from .linalg import Matrix, Q, ZERO


class GraphEmbedding:
    """A semidirect product together with the index ranges of its two slots."""

    __slots__ = ("whole", "s_slot", "g_slot")

    def __init__(self, whole: LieAlgebra, s_slot: range, g_slot: range):
        self.whole = whole
        self.s_slot = s_slot
        self.g_slot = g_slot

    def embed_g(self, g_coords) -> tuple:
        out = [ZERO] * self.whole.dim
        for k, c in zip(self.g_slot, g_coords):
            out[k] = c
        return tuple(out)

    def __repr__(self):
        return f"GraphEmbedding(dim {self.whole.dim} = {len(self.s_slot)} + {len(self.g_slot)})"


def semidirect(s: LieAlgebra, g: LieAlgebra, images: Sequence[Matrix]) -> GraphEmbedding:
    """s x_phi g, for phi given by the images phi(s_k) of the basis of s,
    with bracket [(s1,g1),(s2,g2)] = ([s1,s2], s1(g2) - s2(g1) + [g1,g2]).

    The Jacobi validation of the product is the one check of phi.  The
    triples (s_k, g_i, g_j) hold exactly when phi(s_k) is a derivation of g,
    and the triples (s_k, s_l, g_i) exactly when phi([s_k, s_l]) =
    [phi(s_k), phi(s_l)] on g_i; the rest are the Jacobi identities of s and
    of g.  So the product is a Lie algebra exactly when phi is a homomorphism
    s -> Der(g).  Raises ValueError unless there is one dim g x dim g image
    per basis vector of s, and InvalidStructureError (a ValueError) naming
    the failing basis triple of the product, whose indices below dim s are
    in s, when phi is not such a homomorphism.
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
        for j in range(n):
            table[(i, p + j)] = {p + k: c for k, c in enumerate(img.column(j)) if c}
    for i, row in enumerate(g.sc):
        for j, v in row.items():
            if i < j:
                table[(p + i, p + j)] = {p + k: c for k, c in v.items()}
    labels = tuple(f"s:{l}" for l in s.labels) + tuple(f"g:{l}" for l in g.labels)
    whole = LieAlgebra(dim, table, labels, check=True)
    return GraphEmbedding(whole, range(0, p), range(p, dim))


def full_graph(g: LieAlgebra, ds: DerivationSpace | None = None) -> GraphEmbedding:
    """f(g) = Der(g) x_id g.  Der(g) is computed here (canonical basis)
    unless a precomputed DerivationSpace for g is supplied."""
    if ds is None:
        ds = derivations(g)
    elif ds.base is not g and ds.base.sc != g.sc:
        raise ValueError("derivation space does not belong to this algebra")
    return semidirect(ds.algebra, g, ds.basis_mats)


def full_graph_iter(g: LieAlgebra, n: int) -> list[GraphEmbedding]:
    """The chain f(g), f^2(g), ..., f^n(g)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    chain = []
    current = g
    for _ in range(n):
        emb = full_graph(current)
        chain.append(emb)
        current = emb.whole
    return chain


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


class GradedPower:
    """g^(+)n: n slot copies of g with [u, v](k) = sum_{i+j=k} [u(i), v(j)].

    Slot k occupies coordinates (k-1)*dim(g) .. k*dim(g)-1.
    """

    __slots__ = ("algebra", "base", "copies")

    def __init__(self, algebra: LieAlgebra, base: LieAlgebra, copies: int):
        self.algebra = algebra
        self.base = base
        self.copies = copies

    def __repr__(self):
        return f"GradedPower({self.copies} copies of dim {self.base.dim})"


def graded_power(g: LieAlgebra, n: int) -> GradedPower:
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
    alg = LieAlgebra(dim, table, labels, check=True)
    return GradedPower(alg, g, n)


def grading_derivation(gp: GradedPower) -> Matrix:
    """Diagonal derivation acting as multiplication by k on slot k."""
    m = gp.base.dim
    dim = gp.copies * m
    return Matrix(
        [
            [Q((i // m) + 1) if i == j else ZERO for j in range(dim)]
            for i in range(dim)
        ]
    )


def abelian(n: int) -> LieAlgebra:
    if n < 0:
        raise ValueError("dimension must be >= 0")
    check_dim_cap(n)
    return LieAlgebra(n, {}, tuple(f"e{i+1}" for i in range(n)), check=False)


def nonabelian2() -> LieAlgebra:
    """The 2-dimensional algebra [x, y] = y (complete)."""
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
        return abelian(_count(name.split(":", 1)[1]))
    if name.startswith("heisenberg:"):
        return heisenberg(_count(name.split(":", 1)[1]))
    if name.startswith("graded-power:"):
        rest = name.split(":", 1)[1]
        inner_name, _, n = rest.rpartition(":")
        return graded_power(catalog(inner_name), _count(n)).algebra
    if name.startswith("full-graph:"):
        return full_graph(catalog(name.split(":", 1)[1])).whole
    raise KeyError(f"unknown catalog name {name!r} (expected {CATALOG_HELP})")


def _count(s: str) -> int:
    try:
        n = int(s)
    except ValueError:
        raise KeyError(f"bad catalog count {s!r}") from None
    return n
