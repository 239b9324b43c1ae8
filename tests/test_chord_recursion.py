import gc
import itertools
import json
import os
import random
from collections import Counter

import pytest
from hypothesis import assume, given, settings, strategies as st

from refined_chord import (
    RefinedPolynomial,
    VectorNotInDegree,
    canonical_key,
    cp2_degree,
    make_degree,
    oracle_invariant,
    refined_invariant,
)
from refined_chord import chord_recursion, refined_poly
from refined_chord.chord_recursion import _default_ends
from refined_chord.cli import parse_degree
from refined_chord.lattice import _normal_form, omega
from refined_chord.refined_poly import q_analog
from conftest import CORPUS, GL2_MOVES
from decomposition_reference import (
    DegenerateBlock,
    canonical_representative,
    enumerate_decompositions,
    sub_degree,
)

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


def _random_ends(seed, calls):
    """An end picker returning a seeded random admissible pair per degree;
    appends each degree it is asked about to ``calls``."""

    def pick(vectors, *args, **kwargs):
        calls.append(vectors)
        counts = Counter(vectors)
        pairs = [
            (a, b)
            for a in sorted(counts)
            for b in sorted(counts)
            if a != b or counts[a] > 1
        ]
        return random.Random(f"{seed}:{vectors}").choice(pairs)

    return pick


FUZZ_DEGREES = CORPUS + [
    ("P2:5:2,2,1", cp2_degree(5, [2, 2, 1])),
    ("P1xP1:2,3", parse_degree("P1xP1:2,3")),
]


@pytest.mark.parametrize(
    "seed, class_reuse",
    [pytest.param(seed, True, id=f"{seed}") for seed in range(3)]
    + [pytest.param(seed, False, id=f"{seed}-no-classes") for seed in range(3)],
)
def test_end_choice_invariance_every_sub_degree(monkeypatch, seed, class_reuse):
    # every sub-degree, not only the top level, gets a random chord; without
    # class reuse every sub-degree is solved, not only one per GL2(Z) class
    pinned = {name: refined_invariant(d, cache={}) for name, d in FUZZ_DEGREES}
    calls = []
    monkeypatch.setattr(chord_recursion, "_default_ends", _random_ends(seed, calls))
    if not class_reuse:
        monkeypatch.setattr(chord_recursion, "_normal_form", lambda vectors: vectors)
    for name, d in FUZZ_DEGREES:
        assert refined_invariant(d, cache={}) == pinned[name], name
    # the picker chose for many sub-degrees, not only the top-level ones
    assert len(set(calls)) > 2 * len(FUZZ_DEGREES)


def test_default_ends_tie_break():
    p2_3 = cp2_degree(3, [1, 1, 1]).vectors
    # every pair leaves 3 distinct vectors; omega(v1, vm) <= 0 comes next
    assert _default_ends(p2_3) == ((-1, 0), (-1, 0))
    # the parent's vm is preferred among equal distinct counts
    assert _default_ends(p2_3, parent_vm=(1, 1)) == ((-1, 0), (1, 1))
    # omega((-1, 0), (0, -1)) = 1 > 0 gives way to omega = 0
    assert _default_ends(p2_3, parent_vm=(0, -1)) == ((0, -1), (0, -1))
    # a parent that is not in the degree changes nothing
    assert _default_ends(p2_3, parent_vm=(5, 5)) == _default_ends(p2_3)
    fan = make_degree([(-1, 0), (-1, 0), (1, 2), (1, -2)]).vectors
    # fewer distinct vectors beats the parent's vm
    assert _default_ends(fan, parent_vm=(-1, 0)) == ((1, 2), (1, -2))
    # and the parent's vm beats omega(v1, vm) <= 0
    assert omega((1, -2), (1, 2)) > 0
    assert _default_ends(fan, parent_vm=(1, 2)) == ((1, -2), (1, 2))
    # a given end is kept
    assert _default_ends(fan, v1=(-1, 0)) == ((-1, 0), (-1, 0))
    assert _default_ends(fan, vm=(1, 2)) == ((1, -2), (1, 2))
    # deterministic: repeated and reordered calls agree
    assert _default_ends(tuple(reversed(fan)), parent_vm=(1, 2)) == ((1, -2), (1, 2))


def _default_ends_by_definition(vectors, v1=None, vm=None, parent_vm=None):
    # the O(k^3) count of distinct vectors left that _default_ends replaced
    # by its closed form; everything else as in _default_ends
    counts = Counter(vectors)
    values = sorted(counts)
    best = None
    for a in values if v1 is None else (v1,):
        for b in values if vm is None else (vm,):
            if a == b and counts[a] < 2:
                continue
            distinct = sum(
                1 for v, c in counts.items() if c - (v == a) - (v == b) > 0
            )
            cand = (distinct, b != parent_vm, omega(a, b) > 0, a, b)
            if best is None or cand < best:
                best = cand
    return best[3], best[4]


small_vecs = st.tuples(st.integers(-2, 2), st.integers(-2, 2))


@st.composite
def end_choices(draw):
    vectors = tuple(sorted(draw(st.lists(small_vecs, min_size=2, max_size=9))))
    given_end = st.none() | st.sampled_from(vectors)
    v1, vm = draw(given_end), draw(given_end)
    assume(v1 is None or v1 != vm or vectors.count(v1) > 1)
    return vectors, v1, vm, draw(st.none() | small_vecs)


@settings(max_examples=300, deadline=None)
@given(end_choices())
def test_default_ends_closed_form_matches_definition(case):
    vectors, v1, vm, parent_vm = case
    assert _default_ends(vectors, v1, vm, parent_vm) == _default_ends_by_definition(
        vectors, v1, vm, parent_vm
    )


def test_reference_values_reproduced():
    # every value the benchmark checks against, recomputed cold
    path = os.path.join(
        os.path.dirname(__file__), "..", "perfbench", "reference.json"
    )
    with open(path, encoding="utf-8") as fh:
        values = json.load(fh)["values"]
    assert len(values) == 49
    for spec, terms in values.items():
        expected = P({int(k): c for k, c in terms.items()})
        assert refined_invariant(parse_degree(spec), cache={}) == expected, spec


def _image(vectors, moves):
    for kind, sign in moves:
        vectors = [GL2_MOVES[kind](x, y, sign) for x, y in vectors]
    return make_degree(vectors).vectors


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["P2:3", "P2:4", "P2:4:2,2", "P1xP1:2,3", "P2:5:2,2,1"]),
    st.lists(
        st.tuples(st.sampled_from(sorted(GL2_MOVES)), st.sampled_from((1, -1))),
        min_size=1,
        max_size=6,
    ),
)
def test_gl2z_images_have_equal_invariants(spec, moves):
    # omega(Au, Av) = det(A) omega(u, v), so |omega| at every vertex is kept
    d = parse_degree(spec)
    image = make_degree(_image(d.vectors, moves))
    assert refined_invariant(image, cache={}) == refined_invariant(d, cache={})


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=2, max_size=7),
    st.lists(
        st.tuples(st.sampled_from(sorted(GL2_MOVES)), st.sampled_from((1, -1))),
        min_size=1,
        max_size=8,
    ),
)
def test_normal_form_is_a_class_invariant(vecs, moves):
    sx = sum(v[0] for v in vecs)
    sy = sum(v[1] for v in vecs)
    vecs = [v for v in vecs + [(-sx, -sy)] if v != (0, 0)]
    assume(len(vecs) >= 3)
    d = make_degree(vecs).vectors
    form = _normal_form(d)
    assert _normal_form(_image(d, moves)) == form
    assert _normal_form(form) == form
    assert make_degree(form).vectors == form  # a sorted degree of the class


def test_normal_form_of_colinear_degree_is_itself():
    # a colinear degree on the x-axis is its own form and that of each of
    # its images; another line is sent onto the x-axis
    line = make_degree([(-2, 0), (-1, 0), (1, 0), (2, 0)]).vectors
    assert _normal_form(line) == line
    for moves in ([("add-y", 1)], [("flip", 1), ("add-x", -1)], [("negate-x", 1)]):
        assert _normal_form(_image(line, moves)) == line
    ray = make_degree([(-3, -3), (1, 1), (2, 2)]).vectors
    assert _normal_form(ray) == ((-3, 0), (1, 0), (2, 0))
    assert _normal_form(_image(ray, [("negate-x", 1), ("add-x", 1)])) == _normal_form(ray)


def test_corpus_degrees_equal_their_normal_forms():
    for name, d in CORPUS:
        form = make_degree(_normal_form(d.vectors))
        assert refined_invariant(form, cache={}) == refined_invariant(d, cache={}), name


def test_class_reuse_solves_fewer_chords_than_keys_written(monkeypatch):
    # the cache holds one entry per GL2(Z) class, written by the one chord
    # that solves it; without class reuse P2:6 solves and writes 190
    calls = []
    real = chord_recursion._chord_sum

    def spy(vectors, *args):
        calls.append(vectors)
        return real(vectors, *args)

    monkeypatch.setattr(chord_recursion, "_chord_sum", spy)
    cache = {}
    refined_invariant(parse_degree("P2:6"), cache=cache)
    assert len(calls) == len(cache)
    monkeypatch.setattr(chord_recursion, "_normal_form", lambda vectors: vectors)
    calls.clear()
    unclassed = {}
    refined_invariant(parse_degree("P2:6"), cache=unclassed)
    assert len(calls) == len(unclassed) == 190
    assert len(cache) < 190


def test_class_reuse_writes_the_values_of_a_fresh_solve(monkeypatch):
    # every key is the normal form of a degree of its class, and holds that
    # degree's value solved without class reuse
    cache = {}
    refined_invariant(parse_degree("P2:6"), cache=cache)
    monkeypatch.setattr(chord_recursion, "_normal_form", lambda vectors: vectors)
    for key, value in cache.items():
        d = parse_degree(key.replace(";", ","))
        assert canonical_key(d) == key
        assert refined_invariant(d, cache={}) == value, key


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
    # clearing the memo only costs time: every value is recomputed exactly,
    # and the cache gets the same entries in the same order
    pinned = {name: oracle_invariant(d, seed=0) for name, d in CORPUS}
    exact = {name: {} for name, _ in CORPUS}
    for name, d in CORPUS:
        refined_invariant(d, cache=exact[name])
    monkeypatch.setattr(chord_recursion, "SUFFIX_MEMO_GUARD", 1)
    for name, d in CORPUS:
        cache = {}
        assert refined_invariant(d, cache=cache) == pinned[name], name
        assert list(cache.items()) == list(exact[name].items()), name


def test_suffix_memo_guard_bounds_states_and_summands(monkeypatch):
    # the guard counts suffix states and block summands; sub-degree values
    # have their own dict that no clear touches, so a guarded run solves the
    # same chords and writes the same cache as an unguarded one
    d = parse_degree("P2:6")
    unguarded = chord_recursion.SUFFIX_MEMO_GUARD
    real = chord_recursion._chord_sum

    def watched_run(guard):
        calls, sizes, shapes = [], {"memo": [], "values": []}, Counter()

        class Watched(dict):
            def __init__(self, name):
                self.name = name

            def __setitem__(self, key, value):
                dict.__setitem__(self, key, value)
                sizes[self.name].append(len(self))
                if self.name == "memo":
                    shapes[len(key)] += 1

        def spy(vectors, v1, vm, cache, memo, values, bits):
            calls.append(vectors)
            if type(memo) is dict:  # the fresh dicts of a top-level solve
                memo, values = Watched("memo"), Watched("values")
            return real(vectors, v1, vm, cache, memo, values, bits)

        monkeypatch.setattr(chord_recursion, "_chord_sum", spy)
        monkeypatch.setattr(chord_recursion, "SUFFIX_MEMO_GUARD", guard)
        cache = {}
        refined_invariant(d, cache=cache)
        return cache, calls, sizes, shapes

    guarded, guarded_calls, sizes, shapes = watched_run(40)
    assert max(sizes["memo"]) == 40  # reached, never exceeded
    assert sizes["memo"].count(1) > 1  # cleared
    assert set(shapes) == {3, 4}  # block summands and suffix states only
    assert sizes["values"] == sorted(sizes["values"])  # never cleared
    exact, exact_calls, _, _ = watched_run(unguarded)
    assert guarded_calls == exact_calls
    assert list(guarded.items()) == list(exact.items())


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
    # the reference stream of decompositions carries enough data to rebuild
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
