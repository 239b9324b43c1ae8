"""Refined counts of rational plane tropical curves through boundary points.

Two independent engines compute the same Laurent-polynomial invariant of a
zero-sum multiset of lattice vectors: a fast chord recursion
(:func:`refined_invariant`) and a definition-level dynamic program over
subsets of end moments (:func:`oracle_invariant`) used to cross-validate it.
"""

from .lattice import (
    Degree,
    DegreeError,
    Vec,
    canonical_key,
    cp2_degree,
    make_degree,
)
from .refined_poly import RefinedPolynomial
from .chord_recursion import VectorNotInDegree, refined_invariant
from .direct_enumerator import GenericityFailure, TooLarge, oracle_invariant

__version__ = "4.0.0"

__all__ = [
    "Degree",
    "DegreeError",
    "GenericityFailure",
    "RefinedPolynomial",
    "TooLarge",
    "Vec",
    "VectorNotInDegree",
    "canonical_key",
    "cp2_degree",
    "make_degree",
    "oracle_invariant",
    "refined_invariant",
]
