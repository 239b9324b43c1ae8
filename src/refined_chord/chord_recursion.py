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

import gc
from collections import Counter
from itertools import compress
from math import comb, gcd, prod
from operator import sub
from typing import Dict, Optional, Tuple

from .lattice import Degree, Vec, canonical_key, omega
from .refined_poly import (
    Packed,
    RefinedPolynomial,
    _pack,
    _packed_q_analog,
    _SlotOverflow,
    _unpack,
    _widening,
)

_ONE = RefinedPolynomial.one()

# sigma passers held in the (w, pool) records of one top-level memo, each
# with at most one filled slot of terms: P2:10 peaks at 92,582 (37 MB peak),
# P2:11 at 160,979 (54 MB) and P2:12 at 256,808 (82 MB), so no triangle
# degree up to 12 reaches the guard; P2:13 clears it once and P2:14 6 times,
# all at 128-bit slots. Chosen by bytes: at 500,000 cold P2:14 took 160 MB,
# at this guard 136 MB. Clearing costs time, not values. Sub-degree values
# are kept apart, never cleared.
SUFFIX_MEMO_GUARD = 400_000


class VectorNotInDegree(ValueError):
    """The requested chord ends cannot be removed from the degree."""


def _remove_ends(vectors: Tuple[Vec, ...], *ends: Vec) -> Counter:
    """The multiset ``vectors`` with one instance of each of ``ends``, which
    :func:`_default_ends` chose from it, taken out."""
    pool = Counter(vectors)
    pool.subtract(ends)
    return +pool


def _sub_multisets(key):
    """The sigma passers of the record key ``(w, pool)``, in odometer order.

    ``pool`` is a sorted tuple of ``(vector, count)`` pairs and ``w`` the
    chord slope before the next block. Each nonempty choice of per-vector
    take counts is a candidate block of ``n`` ends and slope
    ``u = -sum(block)``; one with ``sigma = omega(w, u) != 0``, and ``n == 1``
    if ``sigma > 0``, is yielded as ``[ux, uy, sigma, n, takes, None]``, the
    last item the slot for its terms. This is the engine's one enumerator,
    and the benchmark tracer wraps it by name: its calls are the records
    streamed (``suffix_states``), its items the passers (``candidates``).
    """
    (w0, w1), pool = key
    vecs, counts = zip(*pool)
    k = len(counts)
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
            return
        sigma = w0 * uy - w1 * ux  # omega(w, u)
        if sigma and (sigma < 0 or n == 1):
            yield [ux, uy, sigma, n, tuple(takes), None]


def _admits_block(pool, w, su_dir, least):
    """False if the state of ``pool`` at slope ``w``, after ``su_dir`` and a
    block whose least end is ``least``, is proven to admit no next block, so
    its tail sums to zero; see :func:`_chord_sum` for the rule."""
    (w0, w1), (s0, s1) = w, su_dir
    # p: the most counterclockwise (a, b) with a < 0 <= b, q: the most
    # clockwise with b < 0 <= a; some pair has omega(p, q) > 0 iff these do
    pa = pb = qa = qb = 0
    for v, c in pool:
        a = w1 * v[0] - w0 * v[1]  # the sigma of {v}
        b = s1 * v[0] - s0 * v[1]  # its cross
        if a * b > 0 or a and not b and v > least:
            return True  # {v} passes; a tie needs v > the block's least end
        if b < 0:
            if not qb or a * qb > b * qa:
                qa, qb = a, b
        elif a < 0:
            if not b and c > 1:
                return True  # copies of an edge end
            if not pa or pa * b > pb * a:
                pa, pb = a, b
    return pa * qb > pb * qa


def _default_ends(
    vectors: Tuple[Vec, ...],
    v1: Optional[Vec] = None,
    vm: Optional[Vec] = None,
    parent_vm: Optional[Vec] = None,
) -> Tuple[Vec, Vec]:
    """Pick chord ends ``(v1, vm)`` minimizing, in this order: the distinct
    vectors left in the pool, ``vm != parent_vm``, the pool's sub-multisets
    ``left = prod(c_v + 1)``, ``omega(v1, vm) >= 0``, then ``v1`` and ``vm``
    lexicographically. A given ``v1`` or ``vm`` is kept; if no pair of
    ends of ``vectors`` has it, :class:`VectorNotInDegree` names it.

    Only the work depends on the choice, never the value. Records are keyed
    by ``(w, pool)`` across one call's sub-degrees (see :func:`_chord_sum`)
    and ``w = vm + sum(pool)``, so a sub-degree that reuses the ``vm`` of
    the chord that spawned it (``parent_vm``; None at the top level) can
    find them already streamed. The chord's own solve streams at most
    ``left - 1`` records, one per nonempty sub-multiset of the pool;
    distinct vectors are a coarser proxy. ``omega < 0`` first is empirical
    (``tests/end_choice_survey.py``).
    """
    counts = Counter(vectors)
    values = sorted(counts)
    total = len(counts)
    size = prod([c + 1 for c in counts.values()])
    best = None
    for a in values if v1 is None else (v1,):
        ca = counts[a]
        for b in values if vm is None else (vm,):
            cb = counts[b] - (a == b)  # once a is removed
            if ca < 1 or cb < 1:
                continue
            distinct = total - (ca == 1) - (cb == 1)
            left = size * ca // (ca + 1) * cb // (cb + 1)
            cand = (distinct, b != parent_vm, left, omega(a, b) >= 0, a, b)
            if best is None or cand < best:
                best = cand
    if best is None:
        end = vm if v1 is None or counts[v1] else v1
        raise VectorNotInDegree(f"{end} cannot be removed from {vectors}")
    return best[4], best[5]


def refined_invariant(
    d: Degree,
    v1: Optional[Vec] = None,
    vm: Optional[Vec] = None,
    cache: Optional[Dict[str, RefinedPolynomial]] = None,
) -> RefinedPolynomial:
    """Refined count of rational tropical curves of degree ``d`` through
    generic boundary constraints.

    ``cache`` is an optional memo store mapping canonical degree keys to
    polynomials; it is consulted and updated for every sub-degree. A given
    ``v1`` or ``vm`` that is not an end of ``d`` raises
    :class:`VectorNotInDegree`, even at 2 ends; otherwise the top-level value
    is recomputed with that chord (so end-choice invariance can be observed),
    and its entry is neither read nor written. Entries are only ever written
    with a degree's final value, so sharing a cache across threads is safe:
    concurrent duplicate work can happen, concurrent wrong answers cannot.

    A cached value, of a sub-degree or of ``d`` itself, must be
    nonnegative, palindromic and of uniform parity, as every computed value
    is; any other raises ``ValueError`` naming its key.

    A solve pauses CPython's cyclic collector: its records hold many
    container objects until it returns, which the collector would rescan
    while it can find nothing, since the recursion makes no reference
    cycles (see :func:`_chord_sum`). The collector is re-enabled on exit,
    normal or not, only if it was enabled on entry. That has one global
    effect: if another thread calls ``gc.disable()`` during a call that saw
    the collector enabled, the call re-enables it on exit. A cache hit on
    ``d`` pauses it too; only a 2-end degree returns without pausing it.
    """
    cache = {} if cache is None else cache
    if v1 is not None or vm is not None:
        v1, vm = _default_ends(d.vectors, v1, vm)
    if d.m == 2:
        return _ONE
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _widening(
            lambda bits: _chord_sum(d.vectors, v1, vm, cache, {}, {}, bits)
        )
    finally:
        if collecting:
            gc.enable()


def _chord_sum(vectors, v1, vm, cache, memo, values, bits) -> Packed:
    """Sum the recursion over admissible decompositions of ``vectors``.

    Runs of identical blocks are chosen atomically (they share one sigma,
    since advancing ``w`` by ``u`` leaves ``omega(w, u)`` unchanged), with
    the exact count of unordered labeled families as integer weight. The
    choice of the next group only interacts with the past through its
    state: the remaining pool, the chord slope ``w``, the direction of the
    previous ``sigma*u`` and the previous block key. Both sigma rules
    depend only on ``(w, pool)``, so the first visit of a ``(w, pool)``
    keeps the candidates that :func:`_sub_multisets` streams, the pool's
    sigma passers, in one record, each with a slot for its terms, one per
    run length ``r``. Every state of the pool loops over the record,
    applies the cross and tie rules and adds up the terms of the passers it
    admits; the first state that admits a passer fills its slot through
    ``block_summand``. This loop is the recursion's only packed sum.

    A record depends on nothing but its key, so one ``memo`` serves every
    sub-degree of the call. The degree sums to zero, so
    ``w = vm + sum(pool)``: records are shared by the sub-degrees whose
    chord ends in the same ``vm``, which :func:`_default_ends` prefers.

    One frame serves the call: :func:`refined_invariant` calls this once
    per slot width with a fresh ``memo`` and ``values``. The nested
    ``value`` is the one path from a degree to its value, for every closed
    block and for the top level unless its chord is given, which ``solve``
    then sums directly; ``solve`` sums a chord with its own ``vm``. The
    frame counts the passers its records hold, each with at most one filled
    slot, and clears the memo before storing a record that would take the
    count past ``SUFFIX_MEMO_GUARD``, which costs time but changes no value.
    ``value``, ``solve``, ``suffix_sum`` and ``block_summand`` refer to each
    other through their closure cells; deleting them on exit breaks that
    cycle once, so reference counting frees the memo as soon as the call
    returns, with no help from the cyclic collector, which
    :func:`refined_invariant` pauses. The memo is never stored in ``cache``.

    Values are packed as ``(n, hi, e1)``, one int of coefficient slots with
    the highest half-exponent and the exact value at q = 1 (see
    :mod:`refined_chord.refined_poly`): a product is one bigint multiply and
    a sum a shift-add. ``e1 < 2**bits`` at every state total proves
    that no slot carried, in it or in the terms it adds up; otherwise
    :class:`_SlotOverflow` makes :func:`refined_invariant` retry with the
    slots twice as wide. A value whose ``e1`` is 0 (some sub-degree
    invariants vanish) has a ``hi`` that means nothing and would shift the
    sum, so every stored term has ``e1 > 0``.

    A block's term for run length ``r`` is the vertex weight times the
    closed block's own invariant times ``fam`` times the tail after the
    run. A block that vanishes, or that no tail can follow, stores ``()``;
    the tails are summed first, so a closed block is solved only when some
    tail survives. The pool never holds the chord's two ends, so a closed
    block has at most ``m - 1`` ends. After its tails ``value`` looks it
    up in ``values`` under its sorted vectors, then in ``cache`` under its
    :func:`canonical_key`, since N(A * D) = N(D) for A in GL2(Z). Only when
    both miss is the block solved, in its own coordinates, and ``cache``
    written once per class. A hit is packed, and one whose value at q = 1
    reaches ``2**bits`` raises :class:`_SlotOverflow` as a state total
    does. ``values`` is never cleared and keeps packed values; ``cache``
    keeps unpacked polynomials.

    In its one loop over run lengths ``block_summand`` asks
    :func:`_admits_block` whether the tail's state, the pool left at
    ``w' = w + r * u`` after ``su_dir``, could admit a next block. An end
    ``v`` of that pool has ``a = omega(w', -v)`` and
    ``b = omega(su_dir, -v)``, the sigma and cross of the singleton
    ``{v}``; a block's are the sums over its ends. A singleton passes iff
    ``a * b > 0``, or ``a != 0 == b`` and ``(v,)`` beats the tie rule, i.e.
    ``v`` exceeds the least end of the run's block. A block of two or more
    ends needs its sum in ``{a < 0, b <= 0}``. With no singleton passing,
    the only ends in that region lie on its edge ``a < 0 == b``, so by
    Caratheodory's theorem in the plane the sum lies in the cone of an edge
    end, or of a ``p`` with ``a < 0 <= b`` and a ``q`` with ``b < 0 <= a``
    and ``omega(p, q) > 0``. An edge end forms such a pair with every
    ``q``, so without a pair the block's ends all have ``b = 0 != a``; its
    cross is 0, and since none exceeds the run block's least end, the tie
    rule leaves only copies of that end: an edge end of count 2 or more.
    A run with no passing singleton, no such pair and no such end is
    skipped unvisited; a run that empties the pool is not asked. The test
    is necessary, not sufficient: it ignores the counts that a block of
    several ends needs, the tie rule for such a block and the tails after
    it, so a kept tail can still sum to zero.

    The weight of a run of ``r`` identical blocks, taking ``t_v`` of each
    vector ``v`` from a pool of ``c_v``, is ``fam_r = fam_(r-1) * X_r / r``
    with ``X_r = prod_v C(c_v - (r-1) t_v, t_v)`` and ``fam_0 = 1``. The
    division is exact because ``fam_(r-1) * X_r`` counts ordered choices of
    the ``r``-th block after an unordered ``r - 1``, which is ``r * fam_r``.

    A state rejects a passer with ``omega(prev_su_dir, u) * sigma < 0``,
    and, for ``u`` colinear with the previous ``sigma*u``, one with
    ``block <= prev_key``. The tie rule is ``<=`` where
    ``tests/decomposition_reference.py`` uses ``<``, because the ``r`` loop
    already takes a run of identical blocks together, so letting an equal
    block follow would count that run a second time.
    """
    passers = 0  # held in memo's records

    def solve(vectors, v1, vm):
        pool = tuple(sorted(_remove_ends(vectors, v1, vm).items()))
        return suffix_sum(pool, (-v1[0], -v1[1]), vm, None, None)

    def suffix_sum(pool, w, vm, prev_su_dir, prev_key):
        nonlocal passers
        vecs, counts = zip(*pool)
        key = (w, pool)
        record = memo.get(key)
        if record is None:
            record = [*_sub_multisets(key)]
            if passers + len(record) > SUFFIX_MEMO_GUARD:
                memo.clear()  # inline: a helper call cost 1.8 %
                passers = 0
            passers += len(record)
            memo[key] = record
        w0, w1 = w
        acc = hi = e1 = 0
        for cand in record:
            ux, uy, sigma, n, takes, terms = cand
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
            if terms is None:
                terms = cand[5] = block_summand(
                    vecs, counts, takes, n, ux, uy, sigma, w0, w1, vm
                )
            for sn, sh, se in terms:
                if not e1:
                    acc, hi, e1 = sn, sh, se
                    continue
                assert (hi - sh) % 2 == 0
                if sh <= hi:  # inline: a shared refined_poly summing helper cost 16 %
                    acc += sn << (bits * ((hi - sh) >> 1))
                else:
                    acc = (acc << (bits * ((sh - hi) >> 1))) + sn
                    hi = sh
                e1 += se
        if e1 >> bits:
            raise _SlotOverflow
        return acc, hi, e1

    def block_summand(vecs, counts, takes, n, ux, uy, sigma, w0, w1, vm):
        # one term per run of r >= 1 blocks taking ``takes`` from the pool
        # whose tail survives; the tails first, so a block that no tail can
        # follow is never solved
        g = gcd(ux, uy) if sigma > 0 else -gcd(ux, uy)
        su_dir = (ux // g, uy // g)  # primitive(sigma * u)
        block = ()
        for v, t in zip(vecs, takes):
            if t:
                block += (v,) * t
        least = block[0]
        tails = []  # (r, fam * tail), for the tails that do not vanish
        fam = 1
        left = counts
        for r in range(1, min([c // t for c, t in zip(counts, takes) if t]) + 1):
            fam = fam * prod(map(comb, left, takes)) // r
            left = list(map(sub, left, takes))
            rest = tuple(compress(zip(vecs, left), left))
            w_next = (w0 + r * ux, w1 + r * uy)
            if not rest:
                assert w_next == vm
                tails.append((r, fam, 0, fam))
            elif _admits_block(rest, w_next, su_dir, least):
                xn, xh, xe = suffix_sum(rest, w_next, vm, su_dir, block)
                if xe:  # a vanishing tail's hi means nothing
                    tails.append((r, fam * xn, xh, fam * xe))
        if not tails:
            return ()
        fn, fh, fe = _packed_q_analog(abs(sigma), bits)
        if n > 1:
            sn, sh, se = value(tuple(sorted(block + ((ux, uy),))), vm)
            if not se:
                return ()
            fn *= sn
            fh += sh
            fe *= se
        # identical blocks repeat with the same sigma: r blocks weigh f ** r
        return [(fn**r * xn, fh * r + xh, fe**r * xe) for r, xn, xh, xe in tails]

    def value(vectors, parent_vm):
        packed = values.get(vectors)
        if packed is None:
            key = canonical_key(Degree(vectors))
            hit = cache.get(key)
            if hit is None:
                packed = solve(vectors, *_default_ends(vectors, parent_vm=parent_vm))
                cache[key] = _unpack(packed, bits)
            else:
                packed = _pack(key, hit, bits)
            values[vectors] = packed
        return packed

    try:
        return solve(vectors, v1, vm) if v1 is not None else value(vectors, None)
    finally:
        del solve, suffix_sum, block_summand, value
