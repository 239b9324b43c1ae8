import itertools
import math
import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from refined_chord import (
    Degree,
    DegreeError,
    canonical_key,
    cp2_degree,
    make_degree,
)
from refined_chord import lattice
from refined_chord.cli import parse_degree
from refined_chord.lattice import _normal_form, omega
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
    with pytest.raises(DegreeError, match=r"vectors sum to \(0,1\), not \(0,0\)"):
        make_degree([(-1, 0), (1, 1)])
    with pytest.raises(DegreeError, match=r"vectors sum to \(1,0\), not \(0,0\)"):
        make_degree([(1, 0)])


def test_make_degree_rejects_zero_vector():
    with pytest.raises(DegreeError, match="degree entries must be nonzero vectors"):
        make_degree([(0, 0), (1, 0), (-1, 0)])


def test_make_degree_rejects_too_small():
    with pytest.raises(DegreeError, match="a degree needs at least 2 vectors, got 0"):
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
    assert canonical_key(d) == "(-1,-1);(0,1);(1,0)"


# The keys persisted cache files are read under. Changing any of them (for
# instance which representative _normal_form picks) makes every saved file
# miss silently, so it needs a CACHE_VERSION bump in refined_chord.cli.
@pytest.mark.parametrize(
    "spec, key",
    [
        ("P2:1", "(-1,-1);(0,1);(1,0)"),
        ("(-1,0),(2,1),(-1,-1)", "(-1,-1);(0,1);(1,0)"),  # P2:1 sheared
        ("(0,-1)^2,(0,2)", "(-2,0);(1,0);(1,0)"),  # colinear
        ("P1xP1:2,2", "(-1,0);(-1,0);(0,-1);(0,-1);(0,1);(0,1);(1,0);(1,0)"),
        (
            "(1,0),(0,1),(-1,-1),(-1,0),(0,-1),(1,1)",
            "(-1,-1);(-1,0);(0,-1);(0,1);(1,0);(1,1)",
        ),
        ("(1,0)^3,(-3,0)", "(-3,0);(1,0);(1,0);(1,0)"),
        ("P2:3:2,1", "(-2,-2);(-1,-1);(0,1);(0,1);(0,1);(1,0);(1,0);(1,0)"),
        (
            "P2:4:2,2",
            "(-2,-2);(-2,-2);(0,1);(0,1);(0,1);(0,1);(1,0);(1,0);(1,0);(1,0)",
        ),
        (
            "P2:4",
            "(-1,-1);(-1,-1);(-1,-1);(-1,-1);(0,1);(0,1);(0,1);(0,1);"
            "(1,0);(1,0);(1,0);(1,0)",
        ),
        (
            "(-1,0)^4,(-1,-1)^4,(2,1)^4",  # P2:4 sheared by (x, y) -> (x + y, y)
            "(-1,-1);(-1,-1);(-1,-1);(-1,-1);(0,1);(0,1);(0,1);(0,1);"
            "(1,0);(1,0);(1,0);(1,0)",
        ),
    ],
)
def test_canonical_key_is_pinned(spec, key):
    assert canonical_key(parse_degree(spec)) == key


def _least_candidate(vectors):
    # _normal_form's definition without its skip: every candidate of every
    # end of largest multiplicity is built, and the least one kept
    counts = Counter(vectors).items()
    top = max(n for _, n in counts)
    images = []
    for (px, py), c in counts:
        if c != top:
            continue
        g = math.gcd(px, py)
        px, py = px // g, py // g
        alpha = pow(px, -1, abs(py)) if py else px
        beta = (1 - alpha * px) // py if py else 0
        rows = [(alpha * x + beta * y, px * y - py * x, n) for (x, y), n in counts]
        ys = [y for _, y, _ in rows]
        if not any(ys):
            images += [sorted((s * x, 0, n) for x, _, n in rows) for s in (1, -1)]
            continue
        for s in (1, -1):
            d = min(s * y for y in ys if s * y > 0)
            for x, y, _ in rows:
                if s * y == d:
                    k = x // d * s
                    images.append(sorted((u - k * v, s * v, n) for u, v, n in rows))
    return tuple(xy for x, y, n in min(images) for xy in [(x, y)] * n)


def test_normal_form_skips_only_symmetric_copies(monkeypatch):
    # _normal_form leaves an end once one of its candidates equals the least
    # of the ends before it; on degrees with symmetries (each closed under
    # v -> -v, or a hexagon or P1xP1 family) it still finds the least. It
    # sorts 112 times on the first 14 degrees; comparing every candidate of
    # every end would sort 159 times
    sorts = 0

    def counting_sorted(*args, **kwargs):
        nonlocal sorts
        sorts += 1
        return sorted(*args, **kwargs)

    rng = random.Random(3)
    hexagon = [(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)]
    degrees = [hexagon * k for k in (1, 2)]
    degrees += [parse_degree(f"P1xP1:{a},{b}").vectors for a in (1, 2, 3) for b in (1, 2, 3)]
    degrees += [parse_degree(f"P2:{d}").vectors for d in (2, 3, 4)]
    monkeypatch.setattr(lattice, "sorted", counting_sorted, raising=False)
    for vectors in degrees:
        _normal_form(tuple(sorted(vectors)))
    monkeypatch.undo()
    assert sorts == 112
    box = [v for v in itertools.product(range(-3, 4), repeat=2) if v != (0, 0)]
    for _ in range(2000):
        half = rng.choices(box, k=rng.randint(1, 4))
        degrees.append(half + [(-x, -y) for x, y in half])
    for vectors in degrees:
        vectors = tuple(sorted(vectors))
        assert _normal_form(vectors) == _least_candidate(vectors), vectors


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
    with pytest.raises(DegreeError, match=r"parts \[2, 1\] sum to 3, not 2"):
        cp2_degree(2, [1, 2])
    with pytest.raises(DegreeError, match="partition parts must be positive"):
        cp2_degree(2, [3, -1])
    with pytest.raises(DegreeError, match="degree must be positive, got 0"):
        cp2_degree(0, [])


@pytest.mark.parametrize(
    "build,arg",
    [
        (make_degree, [(1.5, 0), (-1.5, 0)]),
        (make_degree, [(1.9, 0), (0, 1.9), (-1, -1)]),
        (make_degree, [("1", 0), (-1, 0)]),
        (lambda parts: cp2_degree(2, parts), [1.5, 0.5]),
        (lambda parts: cp2_degree(2, parts), [1.9, 1]),
        (lambda parts: cp2_degree(1, parts), ["1"]),
    ],
    ids=[
        "float", "float-truncating-to-P2:1", "string",
        "float-part", "float-part-truncating-to-P2:2", "string-part",
    ],
)
def test_non_integral_coordinates_are_refused(build, arg):
    # int() would truncate or parse these; 1.9 would make a valid degree
    with pytest.raises(TypeError):
        build(arg)


def test_degree_is_hashable_and_immutable():
    d = cp2_degree(1, [1])
    assert hash(d) == hash(make_degree([(1, 1), (0, -1), (-1, 0)]))
    with pytest.raises(AttributeError):
        d.vectors = ()
