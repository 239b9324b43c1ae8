import gc
import itertools
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from refined_chord import (
    DegenerateBlock,
    RefinedPolynomial,
    VectorNotInDegree,
    canonical_key,
    canonical_representative,
    cp2_degree,
    enumerate_decompositions,
    make_degree,
    omega,
    oracle_invariant,
    q_analog,
    refined_invariant,
    sub_degree,
)
from refined_chord import chord_recursion, refined_poly
from conftest import CORPUS

P = RefinedPolynomial


def poly(pairs):
    return P(dict(pairs))


def test_sub_degree_singleton():
    assert sub_degree([(0, -1)]) == make_degree([(0, -1), (0, 1)])


def test_sub_degree_pair():
    assert sub_degree([(-1, 0), (0, -1)]) == make_degree([(-1, 0), (0, -1), (1, 1)])


def test_sub_degree_rejects_zero_sum():
    with pytest.raises(DegenerateBlock):
        sub_degree([(1, 0), (-1, 0)])
    with pytest.raises(DegenerateBlock):
        sub_degree([])


def test_line_has_single_decomposition():
    # worked out by hand from the definitions: one block, one left turn
    d = cp2_degree(1, [1])
    decs = list(enumerate_decompositions(d, (-1, 0), (1, 1)))
    assert len(decs) == 1
    dec = decs[0]
    assert dec.blocks == (((0, -1),),)
    assert dec.u == ((0, 1),)
    assert dec.w == ((1, 0), (1, 1))
    assert dec.sigma == (1,)
    assert dec.weight == 1


def test_conic_tangency_contribution():
    # total over decompositions must build the tabulated count of the
    # degree-2 curve with a double vertical end
    d = cp2_degree(2, [2])
    total = P.zero()
    for dec in enumerate_decompositions(d, (-1, 0), (1, 1)):
        term = P({0: dec.weight})
        for block, sig in zip(dec.blocks, dec.sigma):
            term = term * q_analog(abs(sig))
            if len(block) > 1:
                term = term * refined_invariant(sub_degree(block))
        total = total + term
    assert total == poly({1: 1, -1: 1})


def test_base_case_never_enumerated():
    d = make_degree([(1, 0), (-1, 0)])
    assert refined_invariant(d) == P.one()
    with pytest.raises(ValueError):
        list(enumerate_decompositions(d, (1, 0), (-1, 0)))


def test_missing_end_rejected():
    d = cp2_degree(1, [1])
    with pytest.raises(VectorNotInDegree):
        list(enumerate_decompositions(d, (2, 2), (1, 1)))
    with pytest.raises(VectorNotInDegree):
        refined_invariant(d, v1=(1, 1), vm=(1, 1))  # multiplicity 1 only


def test_equal_ends_allowed_with_multiplicity():
    d = cp2_degree(2, [2])
    same = refined_invariant(d, v1=(-1, 0), vm=(-1, 0))
    assert same == refined_invariant(d)


def test_decomposition_structure_invariants():
    # telescoping, block partitioning and sigma consistency on the corpus
    for name, d in CORPUS:
        vals = sorted(set(d.vectors))
        v1, vm = vals[0], vals[-1]
        if v1 == vm:
            continue
        pool = Counter(d.vectors)
        pool[v1] -= 1
        pool[vm] -= 1
        seen = 0
        for dec in enumerate_decompositions(d, v1, vm):
            seen += 1
            assert dec.w[0] == (-v1[0], -v1[1])
            assert dec.w[-1] == vm
            merged = Counter()
            for block, u, sig in zip(dec.blocks, dec.u, dec.sigma):
                merged.update(block)
                assert u == (-sum(v[0] for v in block), -sum(v[1] for v in block))
                assert u != (0, 0)
                assert sig != 0
                if sig > 0:
                    assert len(block) == 1
                assert dec.weight >= 1
            assert merged == +pool
            for i in range(len(dec.w) - 1):
                assert dec.sigma[i] == omega(dec.w[i], dec.w[i + 1])
            for i in range(len(dec.u) - 1):
                pair = dec.sigma[i] * dec.sigma[i + 1] * omega(dec.u[i], dec.u[i + 1])
                assert pair >= 0
            assert canonical_representative(dec.blocks)
        assert seen >= 1 or d.m == 2


def test_canonical_representative_cases():
    # identical singletons: order vacuous
    assert canonical_representative((((0, -1),), ((0, -1),)))
    # colinear blocks out of block order are not canonical
    low = ((0, -1),)
    high = ((0, -1), (0, -1))
    assert canonical_representative((low, high))
    assert not canonical_representative((high, low))
    # non-colinear consecutive blocks are unconstrained
    assert canonical_representative((((1, 1),), ((0, -1),)))
    assert canonical_representative((((0, -1),), ((1, 1),)))


def test_golden_line_and_conics():
    assert refined_invariant(cp2_degree(1, [1])) == P.one()
    assert refined_invariant(cp2_degree(2, [1, 1])) == P.one()
    assert refined_invariant(cp2_degree(2, [2])) == poly({1: 1, -1: 1})


def test_golden_cubics():
    assert refined_invariant(cp2_degree(3, [1, 1, 1])) == poly({2: 1, 0: 7, -2: 1})
    assert refined_invariant(cp2_degree(3, [2, 1])) == poly({3: 1, 1: 6, -1: 6, -3: 1})
    assert refined_invariant(cp2_degree(3, [3])) == poly({4: 1, 2: 5, 0: 6, -2: 5, -4: 1})


def test_golden_quartic_with_tangency():
    assert refined_invariant(cp2_degree(4, [2, 1, 1])) == poly(
        {7: 1, 5: 9, 3: 45, 1: 133, -1: 133, -3: 45, -5: 9, -7: 1}
    )


def test_heavy_vertical_regression():
    # frozen from the brute-force enumerator: the unique solution curve has
    # one vertex of complex multiplicity 2
    d = make_degree([(0, -2), (-1, 1), (1, 1)])
    assert refined_invariant(d) == poly({1: 1, -1: 1})


def test_degree_five_regression():
    # frozen after three-way agreement: chord recursion, a literal
    # enumeration over labeled ends, and the brute-force oracle on every
    # subproblem with at most 11 ends
    value = refined_invariant(cp2_degree(5, [1] * 5))
    assert value == poly(
        {12: 1, 10: 13, 8: 91, 6: 455, 4: 1745, 2: 5273, 0: 10719,
         -2: 5273, -4: 1745, -6: 455, -8: 91, -10: 13, -12: 1}
    )


def test_end_choice_invariance_small():
    for name, d in CORPUS[:8]:
        counts = Counter(d.vectors)
        values = set()
        for a in sorted(counts):
            for b in sorted(counts):
                if a == b and counts[a] < 2:
                    continue
                values.add(refined_invariant(d, v1=a, vm=b, cache={}))
        assert len(values) == 1, name


def test_memoization_transparency():
    shared = {}
    for name, d in CORPUS:
        fresh = refined_invariant(d, cache={})
        cached = refined_invariant(d, cache=shared)
        again = refined_invariant(d, cache=shared)
        assert fresh == cached == again, name
        assert refined_invariant(d) == fresh, name


def test_recursion_leaves_no_cyclic_garbage():
    # the suffix memo is freed by reference counting when the call returns
    d = cp2_degree(5, [1] * 5)
    refined_invariant(d, cache={})
    gc.collect()
    gc.disable()
    try:
        refined_invariant(d, cache={})
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_suffix_memo_guard_changes_no_value(monkeypatch):
    # clearing the memo only costs time: every value is recomputed exactly
    pinned = {name: oracle_invariant(d, seed=0) for name, d in CORPUS}
    monkeypatch.setattr(chord_recursion, "SUFFIX_MEMO_GUARD", 1)
    for name, d in CORPUS:
        assert refined_invariant(d, cache={}) == pinned[name], name


def test_narrow_slots_change_no_value(monkeypatch):
    # 2-bit slots overflow once a value at q = 1 reaches 4, as in seven
    # CORPUS degrees (P2:3:3 is 18), so those values come from the retries
    pinned = {name: oracle_invariant(d, seed=0) for name, d in CORPUS}
    monkeypatch.setattr(refined_poly, "_SLOT_BITS", 2)
    for name, d in CORPUS:
        assert refined_invariant(d, cache={}) == pinned[name], name


@st.composite
def packable_polys(draw):
    # nonnegative, palindromic, one exponent parity; all-zero lists give 0
    parity = draw(st.integers(0, 1))
    coeffs = draw(st.lists(st.integers(0, 2**70), max_size=6))
    terms = {}
    for i, c in enumerate(coeffs):
        terms[2 * i + parity] = terms[-(2 * i + parity)] = c
    return P(terms)


@settings(max_examples=200, deadline=None)
@given(packable_polys(), packable_polys())
def test_packed_product_matches_operator(a, b):
    # the narrowest slots the q = 1 bound allows for a, b and their product
    ea, eb = a.evaluate_at_one(), b.evaluate_at_one()
    bits = max(1, ea.bit_length(), eb.bit_length(), (ea * eb).bit_length())
    pa = refined_poly._pack("a", a, bits)
    pb = refined_poly._pack("b", b, bits)
    assert refined_poly._unpack(pa, bits) == a
    assert refined_poly._unpack(pb, bits) == b
    product = (pa[0] * pb[0], pa[1] + pb[1], pa[2] * pb[2])
    assert product[2] == (a * b).evaluate_at_one()
    assert refined_poly._unpack(product, bits) == a * b


# mixed parity is checked end to end in test_cli.py
@pytest.mark.parametrize(
    "terms",
    [{2: 1, 0: -1, -2: 1}, {2: 1, 0: 3}],
    ids=["negative", "not-palindromic"],
)
def test_pack_refuses_unpackable_value(terms):
    with pytest.raises(ValueError, match="some-key"):
        refined_poly._pack("some-key", P(terms), 64)


def test_top_level_cache_hit_is_returned_as_stored():
    d = cp2_degree(4, [1] * 4)
    cache = {canonical_key(d): refined_invariant(d, cache={})}
    assert refined_invariant(d, cache=cache) is cache[canonical_key(d)]


def test_generator_sum_matches_fast_engine():
    # the public stream of decompositions carries enough data to rebuild
    # the invariant term by term
    cache = {}
    for name, d in CORPUS:
        if d.m < 3:
            continue
        vals = sorted(set(d.vectors))
        counts = Counter(d.vectors)
        v1 = vals[0]
        vm = vals[-1] if vals[-1] != v1 or counts[v1] > 1 else vals[0]
        total = P.zero()
        for dec in enumerate_decompositions(d, v1, vm):
            term = P({0: dec.weight})
            for block, sig in zip(dec.blocks, dec.sigma):
                term = term * q_analog(abs(sig))
                if len(block) > 1:
                    term = term * refined_invariant(sub_degree(block), cache=cache)
            total = total + term
        assert total == refined_invariant(d, cache=cache), name


def test_labeled_weights_count_end_assignments():
    # two interchangeable vertical ends split across different blocks give
    # two distinct curves; the decomposition stream must reflect that
    d = cp2_degree(3, [1, 1, 1])
    weights = [dec.weight for dec in enumerate_decompositions(d, (-1, 0), (1, 1))]
    assert max(weights) > 1


small_vec = st.tuples(st.integers(-2, 2), st.integers(-2, 2)).filter(
    lambda v: v != (0, 0)
)


@settings(max_examples=40, deadline=None)
@given(st.lists(small_vec, min_size=2, max_size=5))
def test_invariant_structure_on_random_degrees(vecs):
    # close an arbitrary multiset by its balancing vector, then check the
    # structural facts every invariant must satisfy
    sx = sum(v[0] for v in vecs)
    sy = sum(v[1] for v in vecs)
    if (sx, sy) != (0, 0):
        vecs = vecs + [(-sx, -sy)]
    if (0, 0) in vecs or len(vecs) < 2:
        return
    d = make_degree(vecs)
    value = refined_invariant(d, cache={})
    assert value.is_palindromic()
    assert value.uniform_parity()
    assert all(c > 0 for _, c in value.items())
