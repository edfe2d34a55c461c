"""Exact computations with finite-dimensional Lie algebras over Q.

Structure-constant algebras, derivation algebras, completeness
certificates, semidirect products and full graphs, Heisenberg algebras,
and torus weight decompositions, all in exact rational arithmetic.
"""

__version__ = "0.1.0"
