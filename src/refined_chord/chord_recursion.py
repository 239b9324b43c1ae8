"""Recursive computation of the refined boundary count of a degree.

Every rational tropical curve with prescribed end moments contains a unique
path, the chord, joining two chosen unbounded ends ``v1`` and ``vm``. When
the two chosen moments are pushed to infinity the surviving curves are read
off combinatorially: the remaining ends split into an ordered sequence of
blocks hanging off the chord, and the count factors over that sequence.

Concretely, for blocks ``B_1, ..., B_p`` partitioning the ends other than
``v1, vm`` set ``u_i = -sum(B_i)``, ``w_1 = -v1``, ``w_{i+1} = w_i + u_i``
and ``sigma_i = omega(w_i, w_{i+1})``. A sequence is admissible when every
``sigma_i`` is nonzero, ``sigma_i > 0`` forces ``B_i`` to be a singleton,
and ``omega(sigma_i u_i, sigma_{i+1} u_{i+1}) >= 0`` for consecutive
blocks. Each admissible sequence contributes the product of the quantum
integers ``[|sigma_i|]_q`` times the recursively computed counts of the
closed block degrees ``B_i + {u_i}``; a two-end degree counts 1.

Two bookkeeping rules make the sum count curves exactly once:

* Ends are distinguishable (each carries its own moment), so equal vectors
  distributed into different blocks give distinct curves. Decompositions
  are summed as sequences of vector multisets: :func:`_chord_sum` takes
  each run of ``r`` identical blocks in one step and weights its summand
  by the integer ``fam``, the number of ways to assign the labeled ends
  to those ``r`` blocks as an unordered family.
* Sequences differing only by reordering consecutive blocks with colinear
  ``u`` vectors describe the same curves (only one order has positive edge
  lengths at any given configuration). One representative per class is
  kept, blocks strictly increasing within each colinear run; identical
  blocks of a run are the single unordered family that ``fam`` counts.

The value is independent of the choice of ``(v1, vm)``, at the top level
and in every sub-degree; the test suite checks this rather than assuming it.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, product
from math import comb, gcd, prod
from operator import sub
from typing import Dict, Optional, Tuple

from .lattice import Degree, Vec, _normal_form, canonical_key, omega, vectors_key
from .refined_poly import (
    Packed,
    RefinedPolynomial,
    _check_cached,
    _pack,
    _packed_q_analog,
    _SlotOverflow,
    _unpack,
    _widening,
)

_ONE = RefinedPolynomial.one()

# suffix states and block summands per top-level memo: P2:10 peaks at 86,631
# (52 MB peak, 2.5 s) and P2:11 at 137,843 (80 MB, 8 s), so no triangle degree
# up to 11 reaches the guard. Clearing costs time, not values. Sub-degree
# values (1,125 and 1,497) are kept apart and never cleared.
SUFFIX_MEMO_GUARD = 250_000


class VectorNotInDegree(ValueError):
    """The requested chord ends cannot be removed from the degree."""


def _remove_ends(vectors: Tuple[Vec, ...], *ends: Vec) -> Counter:
    """The multiset ``vectors`` with one instance of each of ``ends`` taken out."""
    pool = Counter(vectors)
    for v in ends:
        if pool[v] <= 0:
            raise VectorNotInDegree(f"{v} cannot be removed from {vectors}")
        pool[v] -= 1
    return +pool


def _sub_multisets(pool):
    """All nonempty sub-multisets of ``pool`` with their complement and slope.

    ``pool`` is a sorted tuple of ``(vector, count)`` pairs; each choice
    yields ``(block, rest, u)`` where ``block`` is sorted and ``u`` is the
    balancing slope ``-sum(block)``. The engine never calls it: it streams
    its own candidates, so the benchmark tracer's ``suffix_states`` and
    ``candidates``, counted by wrapping this generator by name, read 0.
    Deleting it would turn both into ``null``, which fails
    ``tests/test_perfbench_quick.py::test_workload_result_line_is_well_formed``.
    It leaves ``src`` with the ``Stats`` item of ROADMAP.md, once the
    tracer reads its counts from the engine.
    """
    vecs = [v for v, _ in pool]
    counts = [c for _, c in pool]
    for takes in product(*(range(c + 1) for c in counts)):
        if not any(takes):
            continue
        block = []
        ux = uy = 0
        for v, t in zip(vecs, takes):
            if t:
                block.extend((v,) * t)
                ux -= v[0] * t
                uy -= v[1] * t
        rest = tuple(
            (v, c - t) for v, c, t in zip(vecs, counts, takes) if c - t > 0
        )
        yield tuple(block), rest, (ux, uy)


def _default_ends(
    vectors: Tuple[Vec, ...],
    v1: Optional[Vec] = None,
    vm: Optional[Vec] = None,
    parent_vm: Optional[Vec] = None,
) -> Tuple[Vec, Vec]:
    """Pick chord ends ``(v1, vm)`` minimizing, in this order: the distinct
    vectors left in the pool, ``vm != parent_vm``, ``omega(v1, vm) > 0``,
    then ``v1`` and ``vm`` lexicographically, so the pick is deterministic.

    A given ``v1`` or ``vm`` is kept and only the other end is chosen.
    Correctness never depends on the choice, only the work does. Fewer
    distinct vectors is a coarse proxy for fewer decompositions. Suffix
    states are shared per ``vm`` across the sub-degrees of one call (see
    :func:`_chord_sum`), so a sub-degree that reuses the ``vm`` of the chord
    that spawned it (``parent_vm``; None at the top level) can find its
    states already summed. Preferring ``omega(v1, vm) <= 0`` is empirical:
    it took fewer candidate blocks on the benchmark degrees.
    """
    counts = Counter(vectors)
    values = sorted(counts)
    total = len(counts)
    best = None
    for a in values if v1 is None else (v1,):
        for b in values if vm is None else (vm,):
            if a != b:
                distinct = total - (counts[a] == 1) - (counts[b] == 1)
            elif counts[a] < 2:
                continue
            else:
                distinct = total - (counts[a] == 2)
            cand = (distinct, b != parent_vm, omega(a, b) > 0, a, b)
            if best is None or cand < best:
                best = cand
    return best[3], best[4]


def refined_invariant(
    d: Degree,
    v1: Optional[Vec] = None,
    vm: Optional[Vec] = None,
    cache: Optional[Dict[str, RefinedPolynomial]] = None,
) -> RefinedPolynomial:
    """Refined count of rational tropical curves of degree ``d`` through
    generic boundary constraints.

    ``cache`` is an optional memo store mapping canonical degree keys to
    polynomials; it is consulted and updated for every sub-degree. When
    ``v1``/``vm`` are supplied the top-level value is recomputed from
    scratch with that chord (so end-choice invariance can be observed), but
    sub-degrees still go through the cache. Entries are only ever written
    with a degree's final value, so sharing a cache across threads is safe:
    concurrent duplicate work can happen, concurrent wrong answers cannot.

    A cached value, of a sub-degree or of ``d`` itself, must be
    nonnegative, palindromic and of uniform parity, as every computed value
    is; any other raises ``ValueError`` naming its key.
    """
    if cache is None:
        cache = {}
    if d.m == 2:
        return _ONE
    if v1 is None and vm is None:
        return _invariant(d.vectors, cache)
    if v1 is None or vm is None:
        v1, vm = _default_ends(d.vectors, v1, vm)
    # an explicit chord bypasses the top-level cache entry on purpose
    return _solve(d.vectors, v1, vm, cache)


def _invariant(vectors: Tuple[Vec, ...], cache) -> RefinedPolynomial:
    if len(vectors) == 2:
        return _ONE
    key = canonical_key(Degree(vectors))
    hit = cache.get(key)
    if hit is not None:
        _check_cached(key, hit)
        return hit
    value = cache[key] = _solve(vectors, *_default_ends(vectors), cache)
    return value


def _solve(vectors, v1, vm, cache) -> RefinedPolynomial:
    """Run :func:`_chord_sum` with a fresh ``memo`` and ``values`` at each
    slot width."""
    return _widening(lambda bits: _chord_sum(vectors, v1, vm, cache, {}, {}, bits))


def _packed_invariant(vectors, cache, memo, values, bits, parent_vm) -> Packed:
    """Sub-degree lookup for the sorted tuple ``vectors``, spawned by a chord
    ending in ``parent_vm``. N(A * D) = N(D) for A in GL2(Z), so any
    image's value serves: lookups go to ``values`` under ``vectors``, then
    under its form (the :func:`_normal_form` above 3 ends, else
    ``vectors``), then to ``cache`` under the form's string, the class's
    canonical key. Only when all miss is ``vectors`` solved, in its own
    coordinates; its value is written to ``cache`` once per class, and
    packed to ``values`` under both tuples."""
    packed = values.get(vectors)
    if packed is None:
        form = _normal_form(vectors) if len(vectors) > 3 else vectors
        packed = values.get(form)
        if packed is None:
            key = vectors_key(form)
            hit = cache.get(key)
            if hit is None:
                ends = _default_ends(vectors, parent_vm=parent_vm)
                packed = _chord_sum(vectors, *ends, cache, memo, values, bits)
                cache[key] = _unpack(packed, bits)
            else:
                packed = _pack(key, hit, bits)
            values[form] = packed
        values[vectors] = packed
    return packed


def _chord_sum(vectors, v1, vm, cache, memo, values, bits) -> Packed:
    """Sum the recursion over admissible decompositions of ``vectors``.

    Runs of identical blocks are chosen atomically (they share one sigma,
    since advancing ``w`` by ``u`` leaves ``omega(w, u)`` unchanged), with
    the exact count of unordered labeled families as integer weight. The
    choice of the next group only interacts with the past through the
    remaining pool, the direction of the previous ``sigma*u`` and the
    previous block key, so suffix sums are memoized on that state; the
    chord slope ``w`` is itself a function of the remaining pool. The last
    two only decide which blocks a state admits, so ``block_summand``
    memoizes a block's summand, over every run length ``r``, under
    ``(vm, pool, take vector)`` for every state that admits the block.

    A state never depends on ``v1``: the degree sums to zero, so
    ``w = vm + sum(remaining pool)``. One ``memo`` therefore serves every
    sub-degree of a top-level call, keyed by ``vm`` and the state. Each
    sub-degree is solved with ``parent_vm`` set to this chord's ``vm`` (see
    :func:`_default_ends`), so where its pool allows, it ends its chord in
    the same ``vm`` and meets states already summed. The memo is
    created by :func:`_solve` and dropped when that call returns, never
    stored in ``cache`` (which callers persist), and cleared before a store
    whenever it holds ``SUFFIX_MEMO_GUARD`` states and summands, which costs
    time but changes no value. ``suffix_sum`` and ``block_summand`` refer to
    each other through their closure cells, a reference cycle that would
    keep the memo alive until the cyclic garbage collector runs; deleting
    both names on exit breaks the cycle, so reference counting frees the
    memo as soon as the call returns.

    Values are packed as ``(n, hi, e1)``, one int of coefficient slots with
    the highest half-exponent and the exact value at q = 1 (see
    :mod:`refined_chord.refined_poly`): a product is one bigint multiply and
    a sum a shift-add. ``e1 < 2**bits`` at every stored state total proves
    that no slot carried, in it or in the summands it adds up; otherwise
    :class:`_SlotOverflow` makes :func:`_solve` retry with the slots twice
    as wide. A summand whose ``e1`` is 0 (some sub-degree invariants
    vanish) is skipped, since its ``hi`` means nothing and would shift the
    sum; a block whose own sub-degree invariant vanishes is skipped before
    its tails are summed. Sub-degree values enter through
    :func:`_packed_invariant` and are kept packed in ``values``, created
    with ``memo`` but never cleared: it holds about two entries per
    sub-degree reached. ``cache`` keeps only unpacked polynomials.

    The weight of a run of ``r`` identical blocks, taking ``t_v`` of each
    vector ``v`` from a pool of ``c_v``, is ``fam_r = fam_(r-1) * X_r / r``
    with ``X_r = prod_v C(c_v - (r-1) t_v, t_v)`` and ``fam_0 = 1``. The
    division is exact because ``fam_(r-1) * X_r`` counts ordered choices of
    the ``r``-th block after an unordered ``r - 1``, which is ``r * fam_r``.

    Candidate blocks are streamed as per-vector take counts with the block
    size ``n`` and ``u`` kept as running sums, and rejected in this order,
    the first three before the block tuple is built: ``sigma == 0``;
    ``sigma > 0`` with ``n > 1``; ``omega(prev_su_dir, u) * sigma < 0``; and, for ``u``
    colinear with the previous ``sigma*u``, ``block <= prev_key``. The tie
    rule is ``<=`` where the decomposition stream of
    ``tests/decomposition_reference.py`` uses ``<``, because the ``r`` loop
    already takes a run of identical blocks together, so letting an equal
    block follow would count that run a second time. A summand found in
    the memo needs no block tuple.
    """
    pool_items = tuple(sorted(_remove_ends(vectors, v1, vm).items()))
    total_len = len(vectors)

    def suffix_sum(pool_items, w, prev_su_dir, prev_key):
        state = (vm, pool_items, prev_su_dir, prev_key)
        hit = memo.get(state)
        if hit is not None:
            return hit
        vecs, counts = zip(*pool_items)
        k = len(counts)
        w0, w1 = w
        acc = hi = e1 = 0
        takes = [0] * k
        n = ux = uy = 0
        while True:
            # next take vector, odometer order; n and u follow incrementally
            i = 0
            while i < k:
                if takes[i] < counts[i]:
                    takes[i] += 1
                    n += 1
                    ux -= vecs[i][0]
                    uy -= vecs[i][1]
                    break
                t = takes[i]
                takes[i] = 0
                n -= t
                ux += t * vecs[i][0]
                uy += t * vecs[i][1]
                i += 1
            else:
                break
            sigma = w0 * uy - w1 * ux  # omega(w, u)
            if sigma == 0 or (sigma > 0 and n > 1):
                continue
            if prev_su_dir is not None:
                cross = prev_su_dir[0] * uy - prev_su_dir[1] * ux
                if cross * sigma < 0:
                    continue
                if cross == 0:
                    block = ()
                    for v, t in zip(vecs, takes):
                        if t:
                            block += (v,) * t
                    if block <= prev_key:
                        continue
            key = (vm, pool_items, tuple(takes))
            summand = memo.get(key)
            if summand is None:
                summand = block_summand(key, vecs, counts, n, ux, uy, sigma, w0, w1)
            sn, sh, se = summand
            if not se:
                continue  # a vanishing summand's hi means nothing
            if not e1:
                acc, hi, e1 = summand
                continue
            assert (hi - sh) % 2 == 0
            if sh <= hi:
                acc += sn << (bits * ((hi - sh) >> 1))
            else:
                acc = (acc << (bits * ((sh - hi) >> 1))) + sn
                hi = sh
            e1 += se
        if e1 >> bits:
            raise _SlotOverflow
        total = (acc, hi, e1)
        if len(memo) >= SUFFIX_MEMO_GUARD:  # inline: a helper call cost 1.8 %
            memo.clear()
        memo[state] = total
        return total

    def block_summand(key, vecs, counts, n, ux, uy, sigma, w0, w1):
        # every run of r >= 1 blocks taking key[2] from the pool, summed
        takes = key[2]
        block = ()
        for v, t in zip(vecs, takes):
            if t:
                block += (v,) * t
        fn, fh, fe = _packed_q_analog(abs(sigma), bits)
        acc = hi = e1 = 0
        if n > 1:
            closed = block + ((ux, uy),)
            assert len(closed) < total_len
            sn, sh, se = _packed_invariant(
                tuple(sorted(closed)), cache, memo, values, bits, vm
            )
            fn *= sn
            fh += sh
            fe *= se
        # identical blocks repeat with the same sigma; take r at once
        max_r = min([c // t for c, t in zip(counts, takes) if t]) if fe else 0
        g = gcd(ux, uy) if sigma > 0 else -gcd(ux, uy)
        su_dir = (ux // g, uy // g)  # primitive(sigma * u)
        tn, th, te = fn, fh, fe
        fam = 1
        left = counts
        for r in range(1, max_r + 1):
            if r > 1:
                tn *= fn
                th += fh
                te *= fe
            fam = fam * prod(map(comb, left, takes)) // r
            left = list(map(sub, left, takes))
            rest = tuple(compress(zip(vecs, left), left))
            w_next = (w0 + r * ux, w1 + r * uy)
            if rest:
                xn, xh, xe = suffix_sum(rest, w_next, su_dir, block)
                if not xe:
                    continue  # a vanishing summand's hi means nothing
                sn, sh, se = fam * tn * xn, th + xh, fam * te * xe
            else:
                assert w_next == vm
                sn, sh, se = fam * tn, th, fam * te
            if not e1:
                acc, hi, e1 = sn, sh, se
                continue
            assert (hi - sh) % 2 == 0
            if sh <= hi:
                acc += sn << (bits * ((hi - sh) >> 1))
            else:
                acc = (acc << (bits * ((sh - hi) >> 1))) + sn
                hi = sh
            e1 += se
        total = (acc, hi, e1)
        if len(memo) >= SUFFIX_MEMO_GUARD:  # inline: a helper call cost 1.8 %
            memo.clear()
        memo[key] = total
        return total

    try:
        return suffix_sum(pool_items, (-v1[0], -v1[1]), None, None)
    finally:
        del suffix_sum, block_summand
