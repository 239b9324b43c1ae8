"""Every GL2(Z) class of degrees with ends in a box, and the laws each class
was observed to satisfy. The tier-1 slice in ``test_direct_enumerator.py``
and ``slow_class_sweep.py`` share them.
"""

import itertools
import math

from refined_chord.lattice import _normal_form, omega


def box_classes(bound, max_ends):
    """One vector tuple per GL2(Z) class, keyed by ``_normal_form``, of the
    zero-sum multisets of 3 to ``max_ends`` nonzero vectors in
    ``[-bound, bound]^2``. Each multiset is listed once: its last vector
    closes the sum and is the largest. ``canonical_key`` is the string of
    the same form.

    Heads of ``k`` vectors are walked in lexicographic order, as
    ``itertools.combinations_with_replacement`` lists them. A partial sum is
    dropped when the ``r`` vectors still to come, the closing one included,
    cannot cancel it: each has ``x`` at least that of the vector just taken
    and ``|x|, |y| <= bound``."""
    box = [(x, y) for x in range(-bound, bound + 1) for y in range(-bound, bound + 1)]
    box.remove((0, 0))
    inside = set(box)
    classes = {}

    def walk(head, start, r, sx, sy):
        # r vectors follow head: r - 1 of the head, then the closing one
        if r == 1:
            last = (-sx, -sy)
            if last in inside and last >= head[-1]:
                classes.setdefault(_normal_form(head + (last,)), None)
            return
        r -= 1
        for i in range(start, len(box)):
            x, y = box[i]
            tx, ty = sx + x, sy + y
            if r * x > -tx:
                break  # every later vector has at least this x
            if -tx <= r * bound and abs(ty) <= r * bound:
                walk(head + (box[i],), i, r, tx, ty)

    for k in range(2, max_ends):
        walk((), 0, k + 1, 0, 0)
    return list(classes)


def top_half_exponent(vectors):
    """H(D) = 2A - m + 2, where 2A is twice the area of the polygon whose
    edges are the ``m`` vectors of D in angular order."""
    x = y = twice_area = 0
    for vx, vy in sorted(vectors, key=lambda v: math.atan2(v[1], v[0])):
        twice_area += x * vy - y * vx
        x, y = x + vx, y + vy
    return twice_area - len(vectors) + 2


def law_break(vectors, value):
    """How ``value``, the N(D) of ``vectors``, breaks the class laws, or None.

    Both laws are observed on every class swept so far, not proven: N(D) is
    0 exactly when all ends of D are parallel, and otherwise its top
    half-exponent is H(D) (:func:`top_half_exponent`), with coefficient 1.
    """
    parallel = all(omega(a, b) == 0 for a, b in itertools.combinations(vectors, 2))
    if parallel or not value:
        return None if parallel == (not value) else f"N(D) = {value}, all ends parallel: {parallel}"
    top, h = value.support[0], top_half_exponent(vectors)
    coefficient = dict(value.items())[top]
    if (top, coefficient) != (h, 1):
        return f"top term {coefficient}*q^({top}/2), H(D) = {h}"
    return None
