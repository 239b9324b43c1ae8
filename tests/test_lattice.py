import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from refined_chord import (
    BadPartition,
    Degree,
    NonZeroSum,
    TooSmall,
    ZeroVector,
    canonical_key,
    cp2_degree,
    make_degree,
)
from refined_chord.lattice import omega
from conftest import GL2_MOVES

coords = st.integers(-10**9, 10**9)
vectors = st.tuples(coords, coords)


def test_omega_examples():
    assert omega((1, 0), (0, 1)) == 1
    assert omega((2, 1), (2, 1)) == 0
    assert omega((-1, 0), (1, 1)) == -1


@given(vectors, vectors, vectors, st.integers(-50, 50), st.integers(-50, 50))
def test_omega_bilinear(u, v, w, a, b):
    au_bv = (a * u[0] + b * v[0], a * u[1] + b * v[1])
    assert omega(au_bv, w) == a * omega(u, w) + b * omega(v, w)


@given(vectors, vectors)
def test_omega_antisymmetric(u, v):
    assert omega(u, v) == -omega(v, u)
    assert omega(u, u) == 0


def test_make_degree_line():
    d = make_degree([(-1, 0), (0, -1), (1, 1)])
    assert d.m == 3
    assert d.vectors == ((-1, 0), (0, -1), (1, 1))


def test_make_degree_two_vectors():
    d = make_degree([(1, 0), (-1, 0)])
    assert d.m == 2


def test_make_degree_rejects_nonzero_sum():
    with pytest.raises(NonZeroSum):
        make_degree([(-1, 0), (1, 1)])
    with pytest.raises(NonZeroSum):
        make_degree([(1, 0)])


def test_make_degree_rejects_zero_vector():
    with pytest.raises(ZeroVector):
        make_degree([(0, 0), (1, 0), (-1, 0)])


def test_make_degree_rejects_too_small():
    with pytest.raises(TooSmall):
        make_degree([])


@given(st.lists(st.tuples(st.integers(-9, 9), st.integers(-9, 9)), min_size=1, max_size=6))
def test_make_degree_permutation_invariant(vecs):
    vecs = [v for v in vecs if v != (0, 0)]
    sx = sum(v[0] for v in vecs)
    sy = sum(v[1] for v in vecs)
    if (sx, sy) != (0, 0):
        vecs.append((-sx, -sy))
    if (0, 0) in vecs or len(vecs) < 2:
        return
    reference = make_degree(vecs)
    assert make_degree(reversed(vecs)) == reference
    assert make_degree(sorted(vecs, key=lambda v: (v[1], v[0]))) == reference


def test_canonical_key_order_independent():
    a = make_degree([(1, 1), (-1, 0), (0, -1)])
    b = make_degree([(0, -1), (1, 1), (-1, 0)])
    assert canonical_key(a) == canonical_key(b)


def test_canonical_key_distinct_multisets():
    a = make_degree([(0, -2), (-1, 0), (-1, 0), (1, 1), (1, 1)])
    b = make_degree([(0, -1), (0, -1), (-1, 0), (-1, 0), (1, 1), (1, 1)])
    assert canonical_key(a) != canonical_key(b)


def test_canonical_key_stable_serialization():
    d = make_degree([(1, 1), (0, -1), (-1, 0)])
    assert canonical_key(d) == "(-1,0);(0,-1);(1,1)"


def _class_invariants(vectors):
    # kept by every A in GL2(Z): |omega(Au, Av)| = |omega(u, v)|, and the
    # gcd of a vector's entries
    pairs = sorted(abs(omega(u, v)) for u, v in itertools.combinations(vectors, 2))
    return pairs, sorted(math.gcd(*v) for v in vectors)


def test_canonical_key_collision_free_corpus():
    # >= 10^4 distinct degrees: close every 4-multiset over a small box by
    # appending its balancing vector. The key is a class key: a random
    # unimodular word leaves it unchanged, and degrees sharing a key share
    # the invariants every GL2(Z) image keeps
    rng = random.Random(0)
    box = [v for v in itertools.product(range(-2, 3), repeat=2) if v != (0, 0)]
    seen = {}
    degrees = 0
    for combo in itertools.combinations_with_replacement(box, 4):
        sx = sum(v[0] for v in combo)
        sy = sum(v[1] for v in combo)
        vecs = combo if (sx, sy) == (0, 0) else combo + ((-sx, -sy),)
        if (0, 0) in vecs:
            continue
        d = make_degree(vecs)
        degrees += 1
        key = canonical_key(d)
        image = d.vectors
        for kind in rng.choices(sorted(GL2_MOVES), k=rng.randint(1, 8)):
            sign = rng.choice((1, -1))
            image = [GL2_MOVES[kind](x, y, sign) for x, y in image]
        assert canonical_key(make_degree(image)) == key, (d.vectors, image)
        invariants = _class_invariants(d.vectors)
        assert seen.setdefault(key, invariants) == invariants, d.vectors
    assert degrees > 10_000
    # the key merges images: fewer keys than multisets
    assert len(seen) < degrees


def test_cp2_degree_unit_partition():
    d = cp2_degree(3, [1, 1, 1])
    assert d == make_degree([(-1, 0)] * 3 + [(0, -1)] * 3 + [(1, 1)] * 3)
    assert d.m == 9


def test_cp2_degree_conic_tangency():
    d = cp2_degree(2, [2])
    assert d == make_degree([(-1, 0), (-1, 0), (0, -2), (1, 1), (1, 1)])


def test_cp2_degree_sorts_partition():
    assert cp2_degree(3, [1, 2]) == cp2_degree(3, [2, 1])


def test_cp2_degree_rejects_bad_partitions():
    with pytest.raises(BadPartition):
        cp2_degree(2, [1, 2])  # parts sum to 3
    with pytest.raises(BadPartition):
        cp2_degree(2, [3, -1])
    with pytest.raises(BadPartition):
        cp2_degree(0, [])


def test_degree_is_hashable_and_immutable():
    d = cp2_degree(1, [1])
    assert hash(d) == hash(make_degree([(1, 1), (0, -1), (-1, 0)]))
    with pytest.raises(AttributeError):
        d.vectors = ()
