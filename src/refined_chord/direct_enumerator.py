"""Definition-level reference count by a dynamic program over end subsets.

This is the independent check on the chord recursion. Every end ``j`` of a
degree gets a generic rational moment ``mu_j``, and the oracle counts the
trivalent tropical curves whose end ``j`` lies on the line
``{p : omega(v_j, p) = mu_j}``, each with its refined multiplicity, the
product over vertices of the quantum integer of ``|omega(u, v)|`` for two
outgoing slopes ``u, v``.

Root every curve at end 0. The edge carrying the ends of a set ``S`` away
from the root has slope ``u_S = sum(v_j for j in S)``, and moments are
additive, so it lies on the line ``omega(u_S, p) = mu_S`` with
``mu_S = sum(mu_j for j in S)``. The vertex splitting ``S`` into ``A`` and
``B`` is therefore the meeting point ``C`` of the lines of ``A`` and ``B``,
and the determinant of that 2x2 system, ``omega(u_A, u_B)``, is the vertex
multiplicity. The edge towards a subtree on ``A`` has positive length
exactly when that subtree's root lies strictly beyond ``C`` along ``u_A``.
So the curves on ``S`` are summarized by their root positions along
``u_S`` with suffix sums of weights, built from smaller subsets; no tree
is enumerated and no linear system is solved.

Genericity of a moment configuration is certified rather than assumed: a
configuration is rejected (and the oracle redraws) when two coincident
lines would have to meet or when a child's root sits exactly on its parent
vertex, the two ways a configuration can sit on the degenerate locus.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from itertools import combinations
from operator import itemgetter
from typing import Sequence, Tuple

from .lattice import Degree
from .refined_poly import Packed, RefinedPolynomial, _packed_q_analog, _SlotOverflow, _widening

# 2**(m-1) subsets and about 3**(m-1)/2 splits. Large entries cost too, through
# the polynomial degree of the weights, which the pair sum P = sum over pairs of
# ends of |omega(v_i, v_j)| bounds. A degree is refused when it has more than
# max_ends ends, or when 2**(m-1) * P exceeds 2**(max_ends-1) * ORACLE_PAIR_GUARD,
# so at m = max_ends P may reach ORACLE_PAIR_GUARD (P2:d has P = 3 d**2). CPU
# times, one fresh process each, on a 2-vCPU Xeon VM whose speed swings up to
# twofold: P2:5 (15 ends, P = 75) 1.8-1.9 s at 57 MB, ((-9,2),(2,-9),(7,7))*4
# (12 ends, P = 3696) 4.5 s at 91 MB. At the default guard the budget is 4.2 M:
# ((-6,1),(1,-6),(5,5))*4 (3.4 M, 0.4 s) and P2:6:3,3 (0.9 M, 0.8 s) run, while
# ((-7,1),(1,-7),(6,6))*4 (4.7 M, 2.8 s), ((-8,1),(1,-8),(7,7))*4 (6.2 M,
# 3.8-5.3 s) and the 12-end degree above (7.6 M) are refused. The estimate is
# coarse: ((-7,2),(2,-7),(5,5))*4 (4.4 M) takes only 0.7-0.9 s, refused too.
ORACLE_END_GUARD = 14
ORACLE_PAIR_GUARD = 512


class TooLarge(RuntimeError):
    """The degree is beyond the oracle's guard on ends and pair sum."""


class GenericityFailure(RuntimeError):
    """No generic moment configuration found within the redraw bound."""


def sample_generic_moments(d: Degree, seed: int) -> Tuple[int, ...]:
    """Deterministic wide-range integer moments for the ends of ``d``.

    The first ``m-1`` moments are drawn uniformly and the last closes the
    sum to zero, so the zero-sum condition holds exactly by construction.
    All moments are kept pairwise distinct; degeneracies subtler than that
    are detected during solving and handled by the caller's redraw loop.
    """
    rng = random.Random(seed)
    m = d.m
    while True:
        mus = [rng.randint(-(10**6), 10**6) for _ in range(m - 1)]
        mus.append(-sum(mus))
        if len(set(mus)) == m:
            return tuple(mus)


class _DegenerateConfiguration(Exception):
    """Internal: the moment draw hit the non-generic locus; redraw."""


def _subset_count(vectors, mu: Sequence[int]) -> RefinedPolynomial:
    """Refined count of the curves with the given end moments.

    ``table[S]`` holds, for the curves on the non-root ends ``S`` (as a
    bitmask), their root positions ``u_S . C`` sorted ascending and the
    suffix sums of their weights. Every proper subset of ``S`` is a smaller
    integer, so ascending masks fill the table before it is read.

    A position is ``num / det``, so the keys of ``S`` are stored as the exact
    integers ``num * (scale // det)`` for ``scale`` the lcm of the ``det`` of
    its own entries; a position ``p / d`` is then looked up as
    ``floor(p * scale / d)``, which lands on a key exactly when ``d`` divides
    ``p * scale``. The scale has at most one factor per split of ``S``, so
    its size grows with the number of ends and only logarithmically with the
    size of the entries.

    Weights are packed (see :mod:`refined_chord.refined_poly`): a vertex
    weight ``[det]_q`` is a packed q-analog, each child factor one bigint
    multiply, and a suffix tail a shift-add; only the answer is unpacked.
    The shift ``(hi - h) / 2`` is a whole number of slots because all curves
    on ``S`` share one exponent parity. A curve's ``hi`` is
    ``sum_v (|omega(u_A, u_B)| - 1)`` over its ``|S| - 1`` vertices, and
    ``omega`` is bilinear, so ``sum_v omega(u_A, u_B)`` is
    ``sum_(i<j in S) omega(v_i, v_j)`` up to signs, every pair of ends being
    split at exactly one vertex; mod 2 the signs do not matter. All
    coefficients are nonnegative, so the tail at the first key of ``S``
    bounds every coefficient of every tail and weight of ``S``, and its value
    at q = 1 is checked against the slot width once per subset.
    """
    return _widening(lambda bits: _packed_count(vectors, mu, bits))


def _packed_count(vectors, mu: Sequence[int], bits: int) -> Packed:
    """The subset DP of :func:`_subset_count` at slot width ``bits``.

    A split ``s = a | b`` checks ``a`` first, then ``b`` (``u_b`` is
    ``u_s - u_a``): a child with no root beyond the vertex ends the split,
    which most splits do. Only a split passing both takes its vertex weight
    ``[det]_q``, kept per call by ``det``. A subset whose ``det`` are all 1
    keeps its positions as keys without rescaling.

    A row is ``(keys, tails, scale, last)``, ``last`` its largest key. A
    subset with one curve, the most common case, stores its key ``num``,
    scale ``det`` and tail as they are, after the slot-width check; a subset
    with none stores no row and ends every split it is a child of. A child's
    test compares ``p = (u . C) * scale`` with ``last * det`` first: above,
    the split ends; equal, side ``a`` raises; only below are the floor and the
    bisect taken. These are the cases in which the bisect lands past the last
    key, so every draw returns the same value or raises the same error at the
    same split. Only two nonzero slopes are tested for coincident lines.

    A root of ``a`` on the vertex ``C`` raises. A root of ``b = b1 | b2`` on
    ``C`` needs no check, since an earlier split of ``s`` has already
    raised: the lines of ``a``, ``b1`` and ``b2`` all pass through ``C``, so
    the split ``(a | b1) | b2``, whose side ``a | b1`` is a superset of ``a``
    and so comes first, has its vertex at ``C`` with the root of ``a | b1``
    on it, and raises there (or as coincident lines) unless
    ``u_a + u_b1 = 0``. The same holds for ``(a | b2) | b1`` unless
    ``u_a + u_b2 = 0``, and both escapes together make ``u_b = -2 u_a``
    parallel to ``u_a``, so that ``a | b`` itself is skipped or raises.
    """
    n = len(vectors) - 1
    size = 1 << n
    ux, uy, mom = [0] * size, [0] * size, [0] * size
    table = [None] * size
    weights = {}  # det -> packed [det]_q
    key_of, det_of = itemgetter(0), itemgetter(1)
    for s in range(1, size):
        # s's sums first: s ^ low and every split side a, b are smaller masks
        low = s & -s
        j = low.bit_length()  # end j, since end 0 is the root
        sx = ux[s] = ux[s ^ low] + vectors[j][0]
        sy = uy[s] = uy[s ^ low] + vectors[j][1]
        ms = mom[s] = mom[s ^ low] + mu[j]
        if s == low or (sx == 0 and sy == 0):
            continue  # single ends contribute 1; a zero slope is never a child
        entries = []
        rest = s ^ low
        sub = rest
        while sub:  # unordered splits s = a | b with the lowest end in a
            sub = (sub - 1) & rest
            a = low | sub
            ax, ay = ux[a], uy[a]
            bx, by = sx - ax, sy - ay
            b = s ^ a
            ma = mom[a]
            mb = ms - ma
            det = ax * by - ay * bx  # omega(u_a, u_b); 0 also for a zero slope
            if det == 0:
                if ma * bx == mb * ax and ma * by == mb * ay and (ax or ay) and (bx or by):
                    raise _DegenerateConfiguration(f"coincident lines at split {a}|{b}")
                continue
            # C = (ma * u_b - mb * u_a) / det solves omega(u_a, C) = ma, omega(u_b, C) = mb
            cx, cy = ma * bx - mb * ax, ma * by - mb * ay
            if det < 0:
                det, cx, cy = -det, -cx, -cy
            if a & (a - 1):
                row = table[a]
                if row is None:
                    continue
                keys, tails, scale, last = row
                p = (ax * cx + ay * cy) * scale
                if p >= last * det:
                    if p == last * det:
                        raise _DegenerateConfiguration(f"zero-length edge to {a} at split {a}|{b}")
                    continue
                at, rem = divmod(p, det)
                i = bisect_right(keys, at)
                if not rem and i and keys[i - 1] == at:
                    raise _DegenerateConfiguration(f"zero-length edge to {a} at split {a}|{b}")
                wn, wh, we = tails[i]
            else:
                wn = we = 1
                wh = 0
            if b & (b - 1):
                row = table[b]
                if row is None:
                    continue
                keys, tails, scale, last = row
                p = (bx * cx + by * cy) * scale
                if p >= last * det:
                    continue
                tn, th, te = tails[bisect_right(keys, p // det)]
                wn *= tn
                wh += th
                we *= te
            weight = weights.get(det)
            if weight is None:
                weight = weights[det] = _packed_q_analog(det, bits)
            entries.append(
                (sx * cx + sy * cy, det, wn * weight[0], wh + weight[1], we * weight[2])
            )
        if len(entries) < 2:
            if entries:
                num, det, wn, wh, we = entries[0]
                if we >> bits:
                    raise _SlotOverflow
                table[s] = ([num], [(wn, wh, we)], det, num)
            continue
        scale = math.lcm(*map(det_of, entries))
        if scale != 1:
            entries = [(num * (scale // det), det, wn, wh, we) for num, det, wn, wh, we in entries]
        entries.sort(key=key_of)
        tails = []  # one pass: two accumulate passes at the top hi cost 23 %
        acc = hi = e1 = 0
        for _, _, wn, wh, we in reversed(entries):
            if not e1:
                acc, hi, e1 = wn, wh, we
            else:
                assert (hi - wh) % 2 == 0
                if wh <= hi:
                    acc += wn << (bits * ((hi - wh) >> 1))
                else:
                    acc = (acc << (bits * ((wh - hi) >> 1))) + wn
                    hi = wh
                e1 += we
            tails.append((acc, hi, e1))
        if e1 >> bits:
            raise _SlotOverflow
        tails.reverse()
        keys = list(map(key_of, entries))
        table[s] = (keys, tails, scale, keys[-1])
    row = table[size - 1]
    return row[1][0] if row else (0, 0, 0)


def check_oracle_size(d: Degree, max_ends: int = ORACLE_END_GUARD) -> None:
    """Raise :class:`TooLarge` when ``d`` has more than ``max_ends`` ends, or
    when ``2**(m-1)`` times its pair sum exceeds the budget
    ``2**(max_ends-1) * ORACLE_PAIR_GUARD``; raising ``max_ends`` raises both.
    It tests ``pairs > ORACLE_PAIR_GUARD << (max_ends - m)``, skipping the
    shift once it is too wide to refuse, so a huge ``max_ends`` costs nothing."""
    m = d.m
    if m > max_ends:
        raise TooLarge(f"degree has {m} ends, guard is {max_ends}")
    pairs = sum(
        abs(xi * yj - yi * xj) for (xi, yi), (xj, yj) in combinations(d.vectors, 2)
    )
    shift = max_ends - m
    if shift < pairs.bit_length() and pairs > ORACLE_PAIR_GUARD << shift:
        raise TooLarge(
            f"degree has {m} ends and pair sum {pairs}: 2**{m - 1} * {pairs} exceeds "
            f"the guard 2**{max_ends - 1} * {ORACLE_PAIR_GUARD}"
        )


def oracle_invariant(d: Degree, seed: int = 0, max_ends: int = ORACLE_END_GUARD) -> RefinedPolynomial:
    """Refined count of ``d`` computed from the definition over end subsets.

    Deterministic in ``seed``. Configurations failing the exact genericity
    checks are redrawn with the seed incremented, up to 100 times. Time and
    memory grow exponentially in the number of ends (``2**(m-1)`` subsets)
    and with the size of the entries, so degrees beyond
    :func:`check_oracle_size` are refused with :class:`TooLarge` unless
    ``max_ends`` is raised explicitly.
    """
    check_oracle_size(d, max_ends)
    if d.m == 2:
        return RefinedPolynomial.one()
    for attempt in range(100):
        mu = sample_generic_moments(d, seed + attempt)
        try:
            return _subset_count(d.vectors, mu)
        except _DegenerateConfiguration:
            continue
    raise GenericityFailure(f"no generic configuration after 100 draws (seed {seed})")
