"""Exact computations with finite-dimensional Lie algebras over Q.

Structure-constant algebras, derivation algebras, completeness
certificates, semidirect products and full graphs, Heisenberg algebras,
and torus weight decompositions, all in exact rational arithmetic.
"""

__version__ = "0.1.0"

from .constructions import (
    abelian,
    catalog,
    full_graph,
    graded_power,
    grading_derivation,
    heisenberg,
    nonabelian2,
    semidirect,
)
from .derivations import (
    CompletenessCertificate,
    DerivationSpace,
    centralizer_in_der,
    derivation_tower,
    derivations,
    f_s_subspace,
    inner_preimage,
    is_complete,
    is_derivation,
    verify_torus,
    z_s_subspace,
)
from .liealg import Element, InvalidStructureError, LieAlgebra, NotClosedError
from .linalg import (
    Matrix,
    Q,
    Subspace,
    minimal_polynomial,
    nullspace,
    rank,
    rank_bareiss,
    rational_roots,
    rref,
    solve,
)
from .weights import (
    is_nondegenerate_pair,
    lemma3_check,
    prop2_check,
    prop3_check,
    prop4_check,
    theorem1_pipeline,
    theorem2_check,
    theorem3_check,
    weight_decomposition,
)

__all__ = [name for name in dir() if not name.startswith("_")]
