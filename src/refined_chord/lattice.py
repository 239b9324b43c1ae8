"""Lattice vectors, the determinant pairing, and zero-sum degrees.

The two-dimensional integer lattice is the common currency of this package:
directions of unbounded ends, slopes of edges, and sums of both live in it.
Vectors are plain ``(x, y)`` tuples of Python integers, so nothing can
overflow. A :class:`Degree` is a multiset of nonzero vectors with total sum
zero; it is the problem instance handed to both counting engines and, once
serialized by :func:`canonical_key`, the memoization key shared between them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Tuple

Vec = Tuple[int, int]


class DegreeError(ValueError):
    """A list of vectors does not form a valid degree."""


class NonZeroSum(DegreeError):
    """The vectors do not sum to (0, 0)."""


class ZeroVector(DegreeError):
    """A degree entry is the zero vector."""


class TooSmall(DegreeError):
    """Fewer than two vectors were supplied."""


class BadPartition(ValueError):
    """The parts are not a partition of the requested integer."""


def omega(u: Vec, v: Vec) -> int:
    """Determinant pairing ``u_x v_y - u_y v_x`` on the lattice.

    Bilinear and antisymmetric; its absolute value at two outgoing slopes of
    a trivalent vertex is the vertex's complex multiplicity.
    """
    return u[0] * v[1] - u[1] * v[0]


@dataclass(frozen=True)
class Degree:
    """A multiset of nonzero integer vectors summing to zero.

    ``vectors`` is sorted lexicographically, so equal multisets compare and
    hash equal regardless of construction order. Build instances through
    :func:`make_degree`, which validates; the constructor itself does not.
    """

    vectors: Tuple[Vec, ...]

    @property
    def m(self) -> int:
        """Number of vectors, counted with multiplicity."""
        return len(self.vectors)

    def __iter__(self):
        return iter(self.vectors)


def make_degree(vectors: Iterable[Vec]) -> Degree:
    """Validate and canonicalize a list of vectors into a :class:`Degree`.

    Raises :class:`TooSmall`, :class:`ZeroVector` or :class:`NonZeroSum`
    when the input is not a degree.
    """
    vecs = tuple(sorted((int(x), int(y)) for x, y in vectors))
    sx = sum(v[0] for v in vecs)
    sy = sum(v[1] for v in vecs)
    if (sx, sy) != (0, 0):
        raise NonZeroSum(f"vectors sum to ({sx},{sy}), not (0,0)")
    if any(v == (0, 0) for v in vecs):
        raise ZeroVector("degree entries must be nonzero vectors")
    if len(vecs) < 2:
        raise TooSmall(f"a degree needs at least 2 vectors, got {len(vecs)}")
    return Degree(vecs)


def canonical_key(d: Degree) -> str:
    """Serialize a degree as its sorted vector list, e.g. ``"(-1,0);(0,-1);(1,1)"``.

    The string is injective on multisets and stable across runs; it is the
    cache key used by the persistent memo store.
    """
    return vectors_key(d.vectors)


def vectors_key(vectors: Sequence[Vec]) -> str:
    """The :func:`canonical_key` serialization of an already sorted vector tuple."""
    return ";".join(f"({x},{y})" for x, y in vectors)


def cp2_degree(d: int, parts: Sequence[int]) -> Degree:
    """Degree of plane curves of degree ``d`` with vertical ends grouped by ``parts``.

    The result contains ``d`` copies of ``(-1,0)``, ``d`` copies of ``(1,1)``
    and one ``(0,-p)`` per part ``p``. ``parts`` must be positive integers
    summing to ``d``; any order is accepted (multisets do not care).
    """
    parts = sorted((int(p) for p in parts), reverse=True)
    if d < 1:
        raise BadPartition(f"degree must be positive, got {d}")
    if any(p <= 0 for p in parts):
        raise BadPartition(f"partition parts must be positive: {parts}")
    if sum(parts) != d:
        raise BadPartition(f"parts {parts} sum to {sum(parts)}, not {d}")
    vecs = [(-1, 0)] * d + [(1, 1)] * d + [(0, -p) for p in parts]
    return make_degree(vecs)
