"""Lattice vectors, the determinant pairing, and zero-sum degrees.

The two-dimensional integer lattice is the common currency of this package:
directions of unbounded ends, slopes of edges, and sums of both live in it.
Vectors are plain ``(x, y)`` tuples of Python integers, so nothing can
overflow. A :class:`Degree` is a multiset of nonzero vectors with total sum
zero; it is the problem instance handed to both counting engines. Counts
are unchanged by a change of lattice basis, N(A * D) = N(D) for A in GL2(Z)
(Block-Göttsche), so :func:`canonical_key` serializes a degree's class.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass
from math import gcd
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
    """Serialize the GL2(Z) class of a degree, e.g. ``"(-1,0);(0,-1);(1,1)"``:
    the sorted vectors of its :func:`_normal_form`, or for 2 and 3 ends,
    where a form costs more than it saves, its own. Stable across runs;
    equal keys mean equal invariants. The persistent memo store's key."""
    return vectors_key(_normal_form(d.vectors) if d.m > 3 else d.vectors)


def vectors_key(vectors: Sequence[Vec]) -> str:
    """The :func:`canonical_key` serialization of a sorted vector tuple."""
    return ";".join([f"({x},{y})" for x, y in vectors])


def _normal_form(vectors: Tuple[Vec, ...]) -> Tuple[Vec, ...]:
    """A sorted tuple shared by exactly the GL2(Z) images of ``vectors``: of
    the images under an ``M`` in GL2(Z) of determinant ``s`` = 1 or -1 that
    sends ``a' = primitive(a)``, for an end ``a`` of largest multiplicity,
    to ``(1, 0)`` and an end ``b`` of least positive ``y = s * omega(a', b)``
    to ``(r, y)``, ``0 <= r < y`` (for a colinear degree, ``a'`` to
    ``(s, 0)``), the one of least sorted ``(x, y, count)`` rows, one row per
    distinct vector. ``A`` in GL2(Z) maps these candidates of ``vectors``
    one to one onto those of ``A * vectors``, so both get the same form."""
    counts = Counter(vectors).items()
    top = max([n for _, n in counts])
    form = None
    for (px, py), c in counts:
        if c != top:
            continue
        g = gcd(px, py)
        px //= g
        py //= g
        # alpha * px + beta * py == 1, so the row (alpha, beta) completes M
        if py:
            alpha = pow(px, -1, abs(py))
            beta = (1 - alpha * px) // py
        else:
            alpha, beta = px, 0
        # (x, omega(a', v), count) per distinct vector v
        rows = [(alpha * x + beta * y, px * y - py * x, n) for (x, y), n in counts]
        ys = sorted([y for _, y, _ in rows])
        if ys[0] == ys[-1]:  # all 0, since the degree sums to zero: colinear
            form = min(sorted([(s * x, 0, n) for x, _, n in rows]) for s in (1, -1))
            break
        for s, d in ((1, ys[bisect_right(ys, 0)]), (-1, -ys[bisect_left(ys, 0) - 1])):
            for x, y, _ in rows:
                if s * y == d:
                    k = x // d * s  # the shear that puts b at (x mod d, d)
                    image = sorted([(u - k * v, s * v, n) for u, v, n in rows])
                    if form is None or image < form:
                        form = image
    return tuple([xy for x, y, n in form for xy in [(x, y)] * n])


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
