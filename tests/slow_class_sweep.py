"""Every GL2(Z) class of degrees in a box, by both engines and the class laws.

    python tests/slow_class_sweep.py 2 9    # ends in [-2, 2]^2, 3 to 9 ends
    python tests/slow_class_sweep.py 3 7

Lists one degree per class (``class_box.box_classes``), computes N(D) by the
chord recursion with one shared cache, and checks it against the oracle on
seeds 1 and 2 and against the observed laws of ``class_box.law_break``. On a
seeded sample of the classes (``CHORD_SHARE`` of them) it also recomputes N(D)
with up to ``CHORD_PAIRS`` chords ``(v1, vm)`` drawn from its ends, which must
not change it.
Prints, per number of ends, the classes, the nonzero ones, the oracle's
refusals, the chord checks and the disagreements; then the time of each
step, and the smallest disagreement (fewest ends, then least vectors) or
none. Exits 1 on a disagreement. Too slow for the test suite (3 to 4
minutes for each of the two runs above on one core), so the file name keeps
it out of pytest's collection;
``test_direct_enumerator.py`` runs :func:`main` on a small box so the
script cannot rot.
"""

import itertools
import os
import random
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))

from refined_chord import make_degree, oracle_invariant, refined_invariant  # noqa: E402
from refined_chord.direct_enumerator import GenericityFailure, TooLarge  # noqa: E402

from class_box import box_classes, law_break  # noqa: E402

SEEDS = (1, 2)
CHORD_SHARE = 1 / 8  # of the classes, drawn with random.Random(0)
CHORD_PAIRS = 3  # distinct (v1, vm) per drawn class


def main(argv) -> int:
    """Sweep the box ``[-B, B]^2`` for ``argv = [B, max_ends]``."""
    bound, max_ends = map(int, argv)
    t0 = time.perf_counter()
    classes = sorted(box_classes(bound, max_ends), key=lambda v: (len(v), v))
    t1 = time.perf_counter()
    cache = {}
    values = [refined_invariant(make_degree(v), cache=cache) for v in classes]
    t2 = time.perf_counter()
    keys = ("classes", "nonzero", "refused", "chord checks", "disagreements")
    counts = {key: Counter() for key in keys}
    rng = random.Random(0)
    first = None
    for vectors, value in zip(classes, values):
        m = len(vectors)
        counts["classes"][m] += 1
        counts["nonzero"][m] += bool(value)
        why = law_break(vectors, value)
        for seed in SEEDS:
            try:
                oracle = oracle_invariant(make_degree(vectors), seed=seed)
            except (TooLarge, GenericityFailure):
                counts["refused"][m] += 1
                continue
            if why is None and oracle != value:
                why = f"oracle seed {seed} gives {oracle}, the recursion {value}"
        if rng.random() < CHORD_SHARE:
            pairs = sorted({(vectors[i], vectors[j]) for i, j in itertools.permutations(range(m), 2)})
            for v1, vm in rng.sample(pairs, min(CHORD_PAIRS, len(pairs))):
                counts["chord checks"][m] += 1
                other = refined_invariant(make_degree(vectors), v1=v1, vm=vm, cache=cache)
                if why is None and other != value:
                    why = f"chord {v1}, {vm} gives {other}, the default {value}"
        if why is not None:
            counts["disagreements"][m] += 1
            first = first or (vectors, why)
    t3 = time.perf_counter()
    print(f"box [-{bound}, {bound}]^2, 3 to {max_ends} ends, oracle seeds {SEEDS}")
    for m in sorted(counts["classes"]):
        print(f"{m} ends: " + ", ".join(f"{counts[key][m]} {key}" for key in counts))
    print(
        f"total: {len(classes)} classes, {sum(counts['nonzero'].values())} nonzero; "
        f"listing {t1 - t0:.1f} s, recursion {t2 - t1:.1f} s, oracle, chords and laws {t3 - t2:.1f} s"
    )
    print("disagreements: none" if first is None else f"smallest disagreement: {first[0]}: {first[1]}")
    return 0 if first is None else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
