"""Decomposition-stream reference for the chord recursion.

The production engine (``refined_chord.chord_recursion._chord_sum``) sums
the recursion without ever materializing a decomposition: runs of identical
blocks are taken at once and suffix sums are memoized. This module keeps
the literal stream it replaced. :func:`enumerate_decompositions` yields one
:class:`ChordDecomposition` per class of admissible block sequences, each
with its blocks, slopes, signed multiplicities and the integer ``weight``
counting the labeled-end assignments that realize it, so a test can rebuild
the invariant term by term and check the structure of every term.

The stream owns its enumerator: :func:`_sub_multisets` yields every
nonempty sub-multiset of the pool with its complement and slope, and the
rules below filter them. It shares no enumeration code with the engine it
checks, whose own enumerator, ``chord_recursion._sub_multisets``, streams
per-vector take counts and applies the sigma rules as it goes.

The four admissibility rules are checked here in the same order as in
``_chord_sum``, with one difference: the colinear tie rule is
``block < prev_key`` here, where the engine uses ``<=``, because the stream
keeps identical blocks of a run as separate steps and divides out their
orders in the weight instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import product
from math import factorial, gcd
from typing import Iterator, Sequence, Tuple

from refined_chord import VectorNotInDegree
from refined_chord.lattice import Degree, Vec, make_degree, omega

Block = Tuple[Vec, ...]


class DegenerateBlock(ValueError):
    """A block of ends sums to zero, which would force a zero-slope edge."""


@dataclass(frozen=True)
class ChordDecomposition:
    """One admissible ordered partition of the non-chord ends.

    ``blocks[i]`` is the i-th block (a sorted tuple of vectors), ``u[i]``
    its inward slope, ``w`` the chord slopes ``w_1 .. w_{p+1}``, and
    ``sigma[i]`` the signed multiplicity of the i-th chord vertex; the
    telescoping ``w[-1] == vm`` always holds. ``weight`` is the number of
    assignments of the labeled ends realizing this block sequence, after
    dividing out reorderings of identical blocks within colinear runs.
    """

    blocks: Tuple[Block, ...]
    u: Tuple[Vec, ...]
    w: Tuple[Vec, ...]
    sigma: Tuple[int, ...]
    weight: int = 1


def sub_degree(block: Sequence[Vec]) -> Degree:
    """Close a block of ends into a degree by appending the balancing vector.

    Raises :class:`DegenerateBlock` when the block sums to zero: the closing
    vector would be a zero slope, which no simple curve allows.
    """
    block = tuple(block)
    if not block:
        raise DegenerateBlock("empty block")
    sx = sum(v[0] for v in block)
    sy = sum(v[1] for v in block)
    if (sx, sy) == (0, 0):
        raise DegenerateBlock(f"block {block} sums to zero")
    return make_degree(block + ((-sx, -sy),))


def canonical_representative(blocks: Sequence[Block]) -> bool:
    """True iff a block sequence is the chosen representative of its class.

    Within every maximal run of consecutive blocks whose ``u`` vectors lie
    on one line through the origin, the blocks must appear in nondecreasing
    lexicographic order of their sorted vector lists; any sequence violating
    this is a reordering of the unique representative that satisfies it.
    """
    us = [_block_u(b) for b in blocks]
    keys = [tuple(sorted(b)) for b in blocks]
    for i in range(len(blocks) - 1):
        if omega(us[i], us[i + 1]) == 0 and keys[i + 1] < keys[i]:
            return False
    return True


def _primitive(v: Vec) -> Vec:
    g = gcd(abs(v[0]), abs(v[1]))
    return (v[0] // g, v[1] // g)


def _block_u(block: Sequence[Vec]) -> Vec:
    return (-sum(v[0] for v in block), -sum(v[1] for v in block))


def _labeled_weight(pool: Counter, blocks: Sequence[Block], us: Sequence[Vec]) -> int:
    """Number of labeled-end assignments realizing a canonical block sequence.

    Multinomial per vector value, divided by k! for every group of k
    identical blocks inside a colinear run (those orders are identified).
    """
    weight = 1
    for v, total in pool.items():
        weight *= factorial(total)
        for b in blocks:
            weight //= factorial(sum(1 for x in b if x == v))
    i = 0
    while i < len(blocks):
        j = i + 1
        while (
            j < len(blocks)
            and blocks[j] == blocks[i]
            and omega(us[j - 1], us[j]) == 0
        ):
            j += 1
        weight //= factorial(j - i)
        i = j
    return weight


def enumerate_decompositions(d: Degree, v1: Vec, vm: Vec) -> Iterator[ChordDecomposition]:
    """Yield one representative per class of admissible chord decompositions.

    ``v1`` and ``vm`` must be removable instances of members of ``d`` (equal
    vectors are allowed when the multiplicity is at least 2), and ``d`` must
    have at least 3 ends; two-end degrees are the recursion's base case and
    are never decomposed. Enumeration is depth-first over block prefixes,
    pruning as soon as a sigma or consecutive-pair constraint fails.
    """
    if d.m < 3:
        raise ValueError("decompositions need at least 3 ends")
    pool = Counter(d.vectors)
    for v in (v1, vm):
        if not pool[v]:
            raise VectorNotInDegree(f"{v} cannot be removed from {d.vectors}")
        pool[v] -= 1
    pool = +pool
    pool_items = tuple(sorted(pool.items()))
    w1 = (-v1[0], -v1[1])
    for blocks, us, ws, sigmas in _search(pool_items, w1, None, None, (), (), (w1,), ()):
        assert ws[-1] == vm
        yield ChordDecomposition(
            blocks=blocks,
            u=us,
            w=ws,
            sigma=sigmas,
            weight=_labeled_weight(pool, blocks, us),
        )


def _sub_multisets(pool):
    """All nonempty sub-multisets of ``pool`` with their complement and slope.

    ``pool`` is a sorted tuple of ``(vector, count)`` pairs; each choice
    yields ``(block, rest, u)`` where ``block`` is sorted and ``u`` is the
    balancing slope ``-sum(block)``.
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


def _search(pool, w, prev_su_dir, prev_key, blocks, us, ws, sigmas):
    """Depth-first enumeration over block prefixes with incremental pruning."""
    for block, rest, u in _sub_multisets(pool):
        sigma = omega(w, u)
        if sigma == 0:
            continue
        if sigma > 0 and len(block) > 1:
            continue
        if prev_su_dir is not None:
            cross = omega(prev_su_dir, u)
            if cross * sigma < 0:
                continue
            if cross == 0 and block < prev_key:
                continue
        w_next = (w[0] + u[0], w[1] + u[1])
        state = (
            blocks + (block,),
            us + (u,),
            ws + (w_next,),
            sigmas + (sigma,),
        )
        if not rest:
            yield state
        else:
            yield from _search(
                rest,
                w_next,
                _primitive((sigma * u[0], sigma * u[1])),
                block,
                *state,
            )
