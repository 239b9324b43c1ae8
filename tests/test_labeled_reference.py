"""Reference re-implementation of the chord sum over explicitly labeled ends.

The production engine enumerates block sequences at the multiset level and
weights them by the number of labeled-end assignments. This module recounts
the same sum the slow literal way: every end is a distinct object tracked in
a bitmask, ordered partitions are enumerated subset by subset, and the
colinear-run quotient is applied by requiring ascending labeled blocks.
No multiplicity formula enters, so agreement checks the weighting logic.
"""

from refined_chord import cp2_degree, make_degree, refined_invariant
from refined_chord.chord_recursion import _default_ends, _invariant
from decomposition_reference import _primitive
from refined_chord.refined_poly import RefinedPolynomial, q_analog
from conftest import CORPUS

P = RefinedPolynomial


def labeled_chord_sum(d, v1, vm, cache):
    ends = list(d.vectors)
    ends.remove(v1)
    ends.remove(vm)
    n = len(ends)
    full = (1 << n) - 1
    sx = [0] * (1 << n)
    sy = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        j = low.bit_length() - 1
        sx[mask] = sx[mask ^ low] + ends[j][0]
        sy[mask] = sy[mask ^ low] + ends[j][1]
    w1 = (-v1[0], -v1[1])
    totx, toty = sx[full], sy[full]
    memo = {}

    def go(rem, prev_su_dir, prev_key):
        state = (rem, prev_su_dir, prev_key)
        hit = memo.get(state)
        if hit is not None:
            return hit
        w = (w1[0] - (totx - sx[rem]), w1[1] - (toty - sy[rem]))
        total = P.zero()
        sub = rem
        while sub:
            block, sub = sub, (sub - 1) & rem
            u = (-sx[block], -sy[block])
            sigma = w[0] * u[1] - w[1] * u[0]
            if sigma == 0:
                continue
            size = bin(block).count("1")
            if sigma > 0 and size > 1:
                continue
            cross = None
            if prev_su_dir is not None:
                cross = prev_su_dir[0] * u[1] - prev_su_dir[1] * u[0]
                if cross * sigma < 0:
                    continue
            # built only for blocks that passed the sign rules
            content = tuple(sorted(ends[j] for j in range(n) if block >> j & 1))
            labels = tuple(j for j in range(n) if block >> j & 1)
            if cross == 0 and (content, labels) < prev_key:
                continue
            factor = q_analog(abs(sigma))
            if size > 1:
                factor = factor * _invariant(tuple(sorted(content + (u,))), cache)
            rest = rem & ~block
            if rest == 0:
                total = total + factor
            else:
                total = total + factor * go(
                    rest,
                    _primitive((sigma * u[0], sigma * u[1])),
                    (content, labels),
                )
        memo[state] = total
        return total

    return go(full, None, None)


def test_labeled_recount_matches_on_corpus():
    cache = {}
    for name, d in CORPUS:
        if d.m < 3:
            continue
        v1, vm = _default_ends(d.vectors)
        assert labeled_chord_sum(d, v1, vm, cache) == refined_invariant(
            d, v1=v1, vm=vm, cache=cache
        ), name


def test_labeled_recount_matches_on_triangles():
    cache = {}
    for d_spec in [(3, [1, 1, 1]), (4, [1, 1, 1, 1]), (4, [2, 2]), (4, [4])]:
        d = cp2_degree(*d_spec)
        assert labeled_chord_sum(d, (-1, 0), (1, 1), cache) == refined_invariant(
            d, cache=cache
        ), d_spec


def test_labeled_recount_degree_five():
    cache = {}
    d = cp2_degree(5, [1] * 5)
    assert labeled_chord_sum(d, (-1, 0), (1, 1), cache) == refined_invariant(
        d, cache=cache
    )


def test_labeled_recount_heavy_multiplicities():
    cache = {}
    for vecs in [
        [(-2, 0), (0, -2), (2, 2)],
        [(0, -1)] * 4 + [(-1, 2), (1, 2)],
        [(-1, 0)] * 3 + [(1, 0)] * 3 + [(0, -1), (0, 1)],
        # colinear-heavy: long runs of identical blocks meet the tie rule
        [(-1, 0)] * 3 + [(1, 0)] * 3 + [(0, -1)] * 2 + [(0, 1)] * 2,
        cp2_degree(4, [2, 1, 1]).vectors,
    ]:
        d = make_degree(vecs)
        v1, vm = _default_ends(d.vectors)
        assert labeled_chord_sum(d, v1, vm, cache) == refined_invariant(
            d, v1=v1, vm=vm, cache=cache
        ), vecs
