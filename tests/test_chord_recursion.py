import gc
import itertools
import json
import os
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from refined_chord import (
    RefinedPolynomial,
    VectorNotInDegree,
    canonical_key,
    cp2_degree,
    make_degree,
    oracle_invariant,
    refined_invariant,
)
from refined_chord import chord_recursion, lattice, refined_poly
from refined_chord.chord_recursion import _default_ends
from refined_chord.cli import parse_degree
from refined_chord.lattice import _normal_form, omega
from conftest import CORPUS, GL2_MOVES
from ring import add, mul, q_analog
from decomposition_reference import (
    DegenerateBlock,
    canonical_representative,
    enumerate_decompositions,
    sub_degree,
)
import end_choice_survey

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
    assert _decomposition_sum(d, (-1, 0), (1, 1), {}) == poly({1: 1, -1: 1})


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


def test_missing_end_rejected_at_two_ends():
    # the 2-end base case checks a given end as a 3-end degree does
    d = make_degree([(1, 0), (-1, 0)])
    for ends in [{"v1": (5, 5)}, {"vm": (5, 5)}, {"v1": (1, 0), "vm": (1, 0)}]:
        with pytest.raises(VectorNotInDegree):
            refined_invariant(d, **ends)
    for ends in [{"v1": (1, 0)}, {"vm": (1, 0)}, {"v1": (-1, 0), "vm": (1, 0)}]:
        assert refined_invariant(d, **ends) == P.one()


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
        monkeypatch.setattr(lattice, "_normal_form", lambda vectors: vectors)
    for name, d in FUZZ_DEGREES:
        assert refined_invariant(d, cache={}) == pinned[name], name
    # the picker chose for many sub-degrees, not only the top-level ones
    assert len(set(calls)) > 2 * len(FUZZ_DEGREES)


def test_default_ends_tie_break():
    # these pin a heuristic, not a correctness property: the value is the
    # same for every pick (test_end_choice_invariance_every_sub_degree), the
    # key only sets the work
    p2_3 = cp2_degree(3, [1, 1, 1]).vectors
    # every pair leaves 3 distinct vectors; a pair of equal ends leaves a
    # smaller pool (32 sub-multisets, against 36 for two different ends)
    assert _default_ends(p2_3) == ((-1, 0), (-1, 0))
    # the parent's vm is preferred among equal distinct counts, and the
    # smaller pool then beats omega((-1, 0), (1, 1)) < 0
    assert omega((-1, 0), (1, 1)) < 0
    assert _default_ends(p2_3, parent_vm=(1, 1)) == ((1, 1), (1, 1))
    # a parent that is not in the degree changes nothing
    assert _default_ends(p2_3, parent_vm=(5, 5)) == _default_ends(p2_3)
    fan = make_degree([(-1, 0), (-1, 0), (1, 2), (1, -2)]).vectors
    # fewer distinct vectors beats the parent's vm
    assert _default_ends(fan, parent_vm=(-1, 0)) == ((1, 2), (1, -2))
    # and the parent's vm beats a smaller pool: (1, -2) twice leaves 56
    # sub-multisets, (1, -2) and (-1, 0) leave 72
    heavy = make_degree([(-1, 0)] * 6 + [(1, 2)] * 3 + [(1, -2)] * 3).vectors
    assert _default_ends(heavy) == ((1, -2), (1, -2))
    assert _default_ends(heavy, parent_vm=(-1, 0)) == ((1, -2), (-1, 0))
    # among equal pools omega(v1, vm) < 0 comes first: (1, 2) leaves 72 too,
    # but omega((1, 2), (-1, 0)) > 0
    assert omega((1, -2), (-1, 0)) < 0 < omega((1, 2), (-1, 0))
    hexagon = make_degree([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])
    # and omega < 0 before omega == 0: omega((-1, 0), (1, 0)) = 0
    assert _default_ends(hexagon.vectors, vm=(1, 0)) == ((-1, 1), (1, 0))
    # a given end is kept
    assert _default_ends(fan, v1=(-1, 0)) == ((-1, 0), (1, 2))
    assert _default_ends(fan, vm=(1, 2)) == ((1, -2), (1, 2))
    # deterministic: repeated and reordered calls agree
    assert _default_ends(tuple(reversed(fan)), parent_vm=(1, 2)) == ((1, -2), (1, 2))


def _default_ends_by_definition(vectors, v1=None, vm=None, parent_vm=None):
    # the O(k^3) counts of distinct vectors and of sub-multisets left that
    # _default_ends replaced by closed forms; everything else as there
    counts = Counter(vectors)
    values = sorted(counts)
    best = None
    for a in values if v1 is None else (v1,):
        for b in values if vm is None else (vm,):
            if a == b and counts[a] < 2:
                continue
            after = [c - (v == a) - (v == b) for v, c in counts.items()]
            distinct = sum(1 for c in after if c > 0)
            left = 1
            for c in after:
                left *= c + 1
            cand = (distinct, b != parent_vm, left, omega(a, b) >= 0, a, b)
            if best is None or cand < best:
                best = cand
    return best[4], best[5]


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
    # that solves it; P2:6 solves and writes 31 with class reuse and 57
    # without. Both count the engine's work: a block that no tail can follow
    # is never solved. Chord ends are picked once per chord solved, the top
    # level included, so the picks count the solves
    calls = []
    real = chord_recursion._default_ends

    def spy(vectors, *args, **kwargs):
        calls.append(vectors)
        return real(vectors, *args, **kwargs)

    monkeypatch.setattr(chord_recursion, "_default_ends", spy)
    cache = {}
    refined_invariant(parse_degree("P2:6"), cache=cache)
    assert len(calls) == len(cache) == 31
    monkeypatch.setattr(lattice, "_normal_form", lambda vectors: vectors)
    calls.clear()
    unclassed = {}
    refined_invariant(parse_degree("P2:6"), cache=unclassed)
    assert len(calls) == len(unclassed) == 57
    assert len(cache) < len(unclassed)


def test_class_reuse_writes_the_values_of_a_fresh_solve(monkeypatch):
    # every key is the normal form of a degree of its class, and holds that
    # degree's value solved without class reuse; which member of a class is
    # solved first follows the solving order, so each degree is solved cold
    cache = {}
    for spec in ("P2:6", "P2:7", "P1xP1:4,4"):
        cold = {}
        refined_invariant(parse_degree(spec), cache=cold)
        assert all(cache.get(key, value) == value for key, value in cold.items())
        cache.update(cold)
    monkeypatch.setattr(lattice, "_normal_form", lambda vectors: vectors)
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


def _slot_widths(monkeypatch):
    """The slot widths of the solves made after this call, one per attempt."""
    widths, real = [], chord_recursion._chord_sum

    def attempt(*args):
        widths.append(args[-1])
        return real(*args)

    monkeypatch.setattr(chord_recursion, "_chord_sum", attempt)
    return widths


def test_recursion_leaves_no_cyclic_garbage(monkeypatch):
    # the suffix memo is freed by reference counting when the call returns:
    # cold, with a shared cache already warm (P2:6 after P2:5) and after a
    # retry at wider slots. refined_invariant pauses the collector on this
    p5, p6 = cp2_degree(5, [1] * 5), cp2_degree(6, [1] * 6)
    refined_invariant(p5, cache={})
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        refined_invariant(p5, cache={})
        assert gc.collect() == 0
        shared = {}
        refined_invariant(p5, cache=shared)
        refined_invariant(p6, cache=shared)
        assert gc.collect() == 0
        monkeypatch.setattr(refined_poly, "_SLOT_BITS", 2)
        widths = _slot_widths(monkeypatch)
        refined_invariant(p5, cache={})
        assert len(widths) > 1
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


def test_solve_leaves_the_collector_as_it_found_it(monkeypatch):
    # refined_invariant pauses the collector for a solve and re-enables it on
    # every exit only if it was enabled on entry
    d = cp2_degree(4, [1] * 4)
    top = canonical_key(d)
    cache = {}
    refined_invariant(d, cache=cache)
    # a sub-degree entry that the packed form cannot hold
    planted = {key: P({2: 1, 0: -1, -2: 1}) for key in cache if key != top}
    was_enabled = gc.isenabled()
    try:
        gc.enable()
        refined_invariant(d, cache={})
        assert gc.isenabled()
        with pytest.raises(VectorNotInDegree):
            refined_invariant(d, v1=(5, 5), vm=(1, 1), cache={})
        assert gc.isenabled()
        with pytest.raises(ValueError, match="not nonnegative"):
            refined_invariant(d, cache=planted)
        assert gc.isenabled()
        monkeypatch.setattr(refined_poly, "_SLOT_BITS", 2)
        widths = _slot_widths(monkeypatch)
        refined_invariant(d, cache={})
        assert len(widths) > 1  # a _SlotOverflow retry
        assert gc.isenabled()
        gc.disable()
        refined_invariant(d, cache={})
        assert not gc.isenabled()
    finally:
        if was_enabled:
            gc.enable()
        else:
            gc.disable()


def test_cold_solve_runs_no_collection():
    # the mechanism of the pause, as a work count: a cold P2:6 made 12-16
    # gen-0 and 1-2 gen-1 collections with the collector on. collect() first,
    # so the few allocations before the pause cannot reach the threshold;
    # get_stats() reads its totals before it allocates its result
    d = parse_degree("P2:6")
    assert gc.isenabled()
    gc.collect()
    before = gc.get_stats()
    refined_invariant(d, cache={})
    after = gc.get_stats()
    assert [s["collections"] for s in after] == [s["collections"] for s in before]


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


def test_suffix_memo_guard_bounds_passers(monkeypatch):
    # the memo holds one record of sigma passers per (w, pool), and the
    # guard counts the passers, checked as a record is stored; sub-degree
    # values have their own dict that no clear touches, so a guarded run
    # solves the same chords and writes the same cache as an unguarded one
    d = parse_degree("P2:6")
    unguarded = chord_recursion.SUFFIX_MEMO_GUARD
    real = chord_recursion._chord_sum
    real_ends = chord_recursion._default_ends

    def watched_run(guard):
        solves, stores, clears, triggers, keys = [], [], [], [], set()
        sizes = []

        class Watched(dict):
            def __setitem__(self, key, record):
                dict.__setitem__(self, key, record)
                keys.add(key)
                stores.append(sum(map(len, self.values())))
                if len(clears) > len(triggers):
                    triggers.append(len(record))  # the record that cleared

            def clear(self):
                clears.append(sum(map(len, self.values())))
                dict.clear(self)

        class Values(dict):
            def __setitem__(self, key, value):
                dict.__setitem__(self, key, value)
                sizes.append(len(self))

        def spy(vectors, v1, vm, cache, memo, values, bits):
            return real(vectors, v1, vm, cache, Watched(), Values(), bits)

        def ends(vectors, *args, **kwargs):  # once per chord solved
            solves.append(vectors)
            return real_ends(vectors, *args, **kwargs)

        monkeypatch.setattr(chord_recursion, "_chord_sum", spy)
        monkeypatch.setattr(chord_recursion, "_default_ends", ends)
        monkeypatch.setattr(chord_recursion, "SUFFIX_MEMO_GUARD", guard)
        cache = {}
        refined_invariant(d, cache=cache)
        return cache, solves, stores, list(zip(clears, triggers)), keys, sizes

    guard = 200  # above P2:6's largest record, 106 passers
    guarded, guarded_solves, stores, clears, keys, sizes = watched_run(guard)
    for w, pool in keys:  # (w, pool) records only
        assert len(w) == 2 and all(type(c) is int for c in w)
        assert all(len(v) == 2 and c > 0 for v, c in pool)
    assert max(stores) <= guard  # never exceeded
    assert len(clears) > 1  # cleared
    # only for a record that would take the count past the guard
    assert all(held + size > guard for held, size in clears)
    assert sizes == sorted(sizes)  # values never cleared
    exact, exact_solves, _, exact_clears, _, _ = watched_run(unguarded)
    assert exact_clears == []
    assert len(guarded_solves) == 31
    assert guarded_solves == exact_solves
    assert list(guarded.items()) == list(exact.items())


def test_every_record_streams_through_the_enumerator(monkeypatch):
    # the engine builds each record from _sub_multisets, wrapped here as the
    # benchmark tracer wraps it: every (w, pool) is streamed exactly once,
    # and the items streamed are the sigma passers the memo holds
    d = parse_degree("P2:6")
    plain = {}
    value = refined_invariant(d, cache=plain)
    real, real_sum = chord_recursion._sub_multisets, chord_recursion._chord_sum
    streamed, memos = [], []
    items = 0

    def counted(key):
        nonlocal items
        streamed.append(key)
        for item in real(key):
            items += 1
            yield item

    def spy(vectors, v1, vm, cache, memo, values, bits):
        memos.append(memo)
        return real_sum(vectors, v1, vm, cache, memo, values, bits)

    monkeypatch.setattr(chord_recursion, "_sub_multisets", counted)
    monkeypatch.setattr(chord_recursion, "_chord_sum", spy)
    cache = {}
    assert refined_invariant(d, cache=cache) == value
    assert list(cache.items()) == list(plain.items())
    (memo,) = memos  # one slot width
    assert len(streamed) == len(set(streamed)) == len(memo) > 0
    assert set(streamed) == set(memo)
    assert items == sum(map(len, memo.values())) > 0


def _tail_states(vecs, counts, takes, w):
    """What ``block_summand`` sees for the candidate ``takes`` of the record
    ``(w, zip(vecs, counts))``: ``(u, su_dir, block, tails)``, ``tails``
    holding ``(rest, w')`` after each run ``r = 1, 2, ...``; None if the
    candidate is not a sigma passer."""
    n = sum(takes)
    u = (-sum(t * v[0] for v, t in zip(vecs, takes)), -sum(t * v[1] for v, t in zip(vecs, takes)))
    sigma = omega(w, u)
    if not n or not sigma or (sigma > 0 and n > 1):
        return None
    g = gcd(*u) if sigma > 0 else -gcd(*u)
    block = tuple(v for v, t in zip(vecs, takes) for _ in range(t))
    tails = []
    for r in range(1, min(c // t for c, t in zip(counts, takes) if t) + 1):
        rest = tuple((v, c - r * t) for v, c, t in zip(vecs, counts, takes) if c > r * t)
        tails.append((rest, (w[0] + r * u[0], w[1] + r * u[1])))
    return u, (u[0] // g, u[1] // g), block, tails


def _admitted(rest, w, su_dir, prev_key):
    """The blocks of the record ``(w, rest)`` that a state after ``su_dir``
    and ``prev_key`` admits, by the state loop's cross and tie rules."""
    vecs = [v for v, _ in rest]
    admitted = []
    for ux, uy, sigma, _, takes, _ in chord_recursion._sub_multisets((w, rest)):
        cross = omega(su_dir, (ux, uy))
        block = tuple(v for v, t in zip(vecs, takes) for _ in range(t))
        if cross * sigma >= 0 and (cross or block > prev_key):
            admitted.append(block)
    return admitted


def test_admits_block_refuses_only_tails_that_admit_nothing():
    # the rule is a necessary condition: on seeded random passers (vectors
    # in [-3, 3]^2, up to 4 distinct, counts up to 3) a refused tail admits
    # no block at all, and the rule refuses often enough to be tested; a run
    # that empties the pool is not asked, as in block_summand
    rng = random.Random(32)
    grid = [(x, y) for x in range(-3, 4) for y in range(-3, 4) if (x, y) != (0, 0)]
    tails = refused = 0
    while tails < 4000:
        vecs = tuple(sorted(rng.sample(grid, rng.randint(1, 4))))
        counts = tuple(rng.randint(1, 3) for _ in vecs)
        takes = tuple(rng.randint(0, c) for c in counts)
        w = (rng.randint(-4, 4), rng.randint(-4, 4))
        states = _tail_states(vecs, counts, takes, w)
        if states is None:
            continue
        u, su_dir, block, after = states
        for rest, w_next in after:
            tails += 1
            if not rest:
                continue
            ok = chord_recursion._admits_block(rest, w_next, su_dir, block[0])
            assert type(ok) is bool
            if not ok:
                refused += 1
                assert not _admitted(rest, w_next, su_dir, block)
    assert refused > 1000


def test_admits_block_keeps_the_colinear_and_the_pair_only_tails():
    # the axis case: after the block ((0,-1),) the pool (-1,0)^3,(0,-1)^2 at
    # w' = (-1,0) after su_dir (0,-1) admits only the colinear block
    # (0,-1)^2: no singleton passes and no pair of ends crosses
    vecs, counts, takes, w = ((-1, 0), (0, -1)), (3, 3), (0, 1), (-1, -1)
    u, su_dir, block, after = _tail_states(vecs, counts, takes, w)
    assert (su_dir, block) == ((0, -1), ((0, -1),))
    assert after[0] == ((((-1, 0), 3), ((0, -1), 2)), (-1, 0))
    assert _admitted(*after[0], su_dir, block) == [((0, -1), (0, -1))]
    assert chord_recursion._admits_block(*after[0], su_dir, block[0]) is True
    # the pair-only case: after the block ((-1,0),) the pool (-1,1),(0,-1)
    # at w' = (2,1) after su_dir (-1,0) admits only the two-end block, whose
    # ends p = (-3, 1) and q = (2, -1) have omega(p, q) = 1 > 0
    vecs, counts, takes, w = ((-1, 0), (-1, 1), (0, -1)), (1, 1, 1), (1, 0, 0), (1, 1)
    u, su_dir, block, after = _tail_states(vecs, counts, takes, w)
    assert (su_dir, block) == ((-1, 0), ((-1, 0),))
    assert after == [((((-1, 1), 1), ((0, -1), 1)), (2, 1))]
    assert _admitted(*after[0], su_dir, block) == [((-1, 1), (0, -1))]
    assert chord_recursion._admits_block(*after[0], su_dir, block[0]) is True


CHORD_COLD = ["P2:5", "P1xP1:3,4", "P2:6:3,1,1,1", "P2:6", "P2:7:2,2,2,1"]


def test_chord_cold_pass_work_is_pinned(monkeypatch):
    # the work of one cold pass over the benchmark's chord-cold degrees, set
    # by _default_ends and by the tails _admits_block refuses (neither changes
    # a value): records streamed, sigma passers and chords solved. The key
    # without the pool term, (distinct, b != parent_vm, omega > 0, a, b),
    # gave 1,595 / 18,181 / 138; adding the sub-multisets left gave 1,348 /
    # 16,248 / 120; skipping the tails _admits_block refuses gave 924 / 13,778
    # / 120, the same chords; keying 3-end sub-degrees by their normal form
    # too merges 7 of them into classes already solved: 918 / 13,776 / 113.
    # A change to the pick or to the rule should move these on purpose, with
    # tests/end_choice_survey.py run on the broad corpus
    real_stream, real_ends = chord_recursion._sub_multisets, chord_recursion._default_ends
    records = passers = chords = 0

    def stream(key):
        nonlocal records, passers
        records += 1
        for item in real_stream(key):
            passers += 1
            yield item

    def ends(*args, **kwargs):
        nonlocal chords
        chords += 1
        return real_ends(*args, **kwargs)

    monkeypatch.setattr(chord_recursion, "_sub_multisets", stream)
    monkeypatch.setattr(chord_recursion, "_default_ends", ends)
    for spec in CHORD_COLD:
        refined_invariant(parse_degree(spec), cache={})
    assert (records, passers, chords) == (918, 13776, 113)


def test_end_choice_survey_runs(capsys):
    # the survey script is not collected; its counts are this module's spies'
    assert end_choice_survey.work("P2:6:3,1,1,1") == (117, 1793, 16, 390)
    assert end_choice_survey.main(["P2:3", "P2:4"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 4 and rows[-1].split()[-4:] == ["63", "507", "9", "127"]
    assert len(end_choice_survey.broad_corpus()) == 82


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
@example(P(), P({3: 1, 1: 6, -1: 6, -3: 1}))
@example(P({2: 1, 0: 7, -2: 1}), P())
def test_packed_product_matches_operator(a, b):
    # the narrowest slots the q = 1 bound allows for a, b and their product
    ea, eb = a.evaluate_at_one(), b.evaluate_at_one()
    bits = max(1, ea.bit_length(), eb.bit_length(), (ea * eb).bit_length())
    pa = refined_poly._pack("a", a, bits)
    pb = refined_poly._pack("b", b, bits)
    assert refined_poly._unpack(pa, bits) == a
    assert refined_poly._unpack(pb, bits) == b
    product = (pa[0] * pb[0], pa[1] + pb[1], pa[2] * pb[2])
    assert product[2] == mul(a, b).evaluate_at_one()
    assert refined_poly._unpack(product, bits) == mul(a, b)


# mixed parity is also checked end to end in test_cli.py
@pytest.mark.parametrize(
    "value",
    [
        P({2: 1, 0: -1, -2: 1}),
        P({2: 1, 0: 3}),
        P({1: 1}),
        P({1: 1, 0: 1}),
        # q^(1/2) and q^(-1/2) pass the length and mirror tests; only _dense sees the q^0
        P({1: 1, 0: 5, -1: 1}),
        refined_poly._Deferred(2, [1, -1, 1]),
        # a line the loader accepts; hi 4 with two coefficients is q^2 + q
        refined_poly._Deferred(4, [1, 1]),
        # every coefficient from q^1 down to q^-1, so only the mirror test refuses it
        P({2: 1, 0: 2, -2: 3}),
    ],
    ids=[
        "negative",
        "not-palindromic",
        "half-integer-not-palindromic",
        "mixed-parity",
        "full-length-mixed-parity",
        "deferred-negative",
        "deferred-not-palindromic",
        "full-length-not-palindromic",
    ],
)
def test_pack_refuses_unpackable_value(value):
    with pytest.raises(ValueError, match="some-key"):
        refined_poly._pack("some-key", value, 64)


def _no_records(monkeypatch):
    """Make streaming any record fail: nothing may be solved after this."""
    def stream(key):
        raise AssertionError(f"record {key} streamed")

    monkeypatch.setattr(chord_recursion, "_sub_multisets", stream)


def test_top_level_cache_hit_returns_an_equal_value_and_solves_nothing(monkeypatch):
    # a hit is packed and unpacked like a sub-degree hit, so it comes back
    # equal to the stored value, not as the stored object
    d = cp2_degree(4, [1] * 4)
    cache = {canonical_key(d): refined_invariant(d, cache={})}
    _no_records(monkeypatch)
    assert refined_invariant(d, cache=cache) == cache[canonical_key(d)]
    assert len(cache) == 1


def test_top_level_cache_hit_wider_than_the_slots_is_returned_exactly(monkeypatch):
    # a middle coefficient of 2**70 carries out of a 64-bit slot; only the
    # q = 1 check of the packed hit notices, and the read is redone with
    # slots twice as wide. Well formed, so nothing else refuses it
    d = cp2_degree(3, [1] * 3)
    planted = P({2: 1, 0: 2**70, -2: 1})
    cache = {canonical_key(d): planted}
    _no_records(monkeypatch)
    widths = _slot_widths(monkeypatch)
    assert refined_invariant(d, cache=cache) == planted
    assert widths == [64, 128]


def test_sub_degree_cache_hit_wider_than_the_slots_gives_the_wide_value(monkeypatch):
    # sub-degree entries above 2**64 give at the default width what a count
    # that starts at 128-bit slots gives, and the same entries. Each planted
    # value is a computed one times 2**64, so it keeps its parity
    d = cp2_degree(4, [1] * 4)
    cold = {}
    refined_invariant(d, cache=cold)
    del cold[canonical_key(d)]
    planted = {
        key: P({k: c << 64 * (i % 2) for k, c in value.items()})
        for i, (key, value) in enumerate(cold.items())
    }
    narrow, wide = dict(planted), dict(planted)
    at_default = refined_invariant(d, cache=narrow)
    monkeypatch.setattr(refined_poly, "_SLOT_BITS", 128)
    assert refined_invariant(d, cache=wide) == at_default
    assert narrow == wide


def test_explicit_chord_neither_reads_nor_writes_the_top_level_entry():
    d = cp2_degree(4, [1] * 4)
    key = canonical_key(d)
    expected = refined_invariant(d, cache={})
    # well formed, so a read would return it rather than fail the value check
    planted = P({2: 1, -2: 1})
    cache = {key: planted}
    assert refined_invariant(d, v1=(-1, 0), vm=(1, 1), cache=cache) == expected
    assert cache[key] is planted
    cache = {}
    assert refined_invariant(d, v1=(-1, 0), vm=(1, 1), cache=cache) == expected
    assert cache and key not in cache


def _decomposition_sum(d, v1, vm, cache):
    """The invariant rebuilt term by term from the reference stream of
    decompositions, which prunes no tail, with the chord ``(v1, vm)``."""
    terms = []
    for dec in enumerate_decompositions(d, v1, vm):
        factors = [P({0: dec.weight})]
        for block, sig in zip(dec.blocks, dec.sigma):
            factors.append(q_analog(abs(sig)))
            if len(block) > 1:
                factors.append(refined_invariant(sub_degree(block), cache=cache))
        terms.append(mul(*factors))
    return add(*terms)


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
        assert _decomposition_sum(d, v1, vm, cache) == refined_invariant(d, cache=cache), name


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
    refined_poly._check_cached("value", value)  # palindromic, one parity
    assert all(c > 0 for _, c in value.items())


@settings(max_examples=300, deadline=None)
@given(st.lists(small_vec, min_size=2, max_size=5), st.data())
def test_decomposition_sum_matches_engine_on_random_degrees(vecs, data):
    # the engine skips the tails that _admits_block refuses, the reference
    # stream none: on a random degree of at most 6 ends and a random chord
    # the two sums must agree
    sx = sum(v[0] for v in vecs)
    sy = sum(v[1] for v in vecs)
    if (sx, sy) != (0, 0):
        vecs = vecs + [(-sx, -sy)]
    assume((0, 0) not in vecs and len(vecs) >= 3)
    d = make_degree(vecs)
    counts = Counter(d.vectors)
    v1, vm = data.draw(
        st.sampled_from(
            [(a, b) for a in sorted(counts) for b in sorted(counts) if a != b or counts[a] > 1]
        )
    )
    cache = {}
    assert _decomposition_sum(d, v1, vm, cache) == refined_invariant(d, v1=v1, vm=vm, cache=cache)
