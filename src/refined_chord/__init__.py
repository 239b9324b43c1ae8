"""Refined counts of rational plane tropical curves through boundary points.

Two independent engines compute the same Laurent-polynomial invariant of a
zero-sum multiset of lattice vectors: a fast chord recursion
(:func:`refined_invariant`) and a definition-level dynamic program over
subsets of end moments (:func:`oracle_invariant`) used to cross-validate it.
"""

from .lattice import (
    BadPartition,
    Degree,
    DegreeError,
    NonZeroSum,
    TooSmall,
    Vec,
    ZeroVector,
    canonical_key,
    cp2_degree,
    make_degree,
    omega,
)
from .refined_poly import (
    BadArity,
    RefinedPolynomial,
    mikhalkin_normalization,
    q_analog,
)
from .chord_recursion import (
    ChordDecomposition,
    DegenerateBlock,
    VectorNotInDegree,
    canonical_representative,
    enumerate_decompositions,
    refined_invariant,
    sub_degree,
)
from .direct_enumerator import (
    GenericityFailure,
    ORACLE_END_GUARD,
    TooLarge,
    oracle_invariant,
    sample_generic_moments,
)

__version__ = "1.0.0"

__all__ = [
    "BadArity",
    "BadPartition",
    "ChordDecomposition",
    "Degree",
    "DegreeError",
    "DegenerateBlock",
    "GenericityFailure",
    "NonZeroSum",
    "ORACLE_END_GUARD",
    "RefinedPolynomial",
    "TooLarge",
    "TooSmall",
    "Vec",
    "VectorNotInDegree",
    "ZeroVector",
    "canonical_key",
    "canonical_representative",
    "cp2_degree",
    "enumerate_decompositions",
    "make_degree",
    "mikhalkin_normalization",
    "omega",
    "oracle_invariant",
    "q_analog",
    "refined_invariant",
    "sample_generic_moments",
    "sub_degree",
]
