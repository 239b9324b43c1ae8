"""The work each degree of a broad corpus costs the chord recursion, cold.

    python tests/end_choice_survey.py                # the broad corpus
    python tests/end_choice_survey.py P2:6 P2:7      # any degree specs

For each degree, solved once with a fresh cache, it prints the records
streamed (calls of ``_sub_multisets``), the sigma passers they hold (its
items), the chords solved (calls of ``_default_ends``, once per chord,
the top level included) and the tails refused (the False returns of
``_admits_block``, tails skipped unvisited), then the totals. The
counts are deterministic. They depend on which chord ends
``_default_ends`` picks and on what ``_admits_block`` refuses, never the
values, so with the rule fixed they are the measure to compare end-choice
keys on.
The file name keeps it out of pytest's collection;
``test_chord_recursion.py`` runs :func:`work` on one degree so the script
cannot rot. The broad corpus is every triangle partition for d = 3..8,
P1xP1:a,b for a <= b <= 5, the hexagon and the three skew degrees of
``conftest.CORPUS``: 82 degrees, about 1.5 s together.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, "..", "src"))
sys.path.insert(0, HERE)

from conftest import CORPUS  # noqa: E402
from refined_chord import chord_recursion, refined_invariant  # noqa: E402
from refined_chord.cli import _partitions, parse_degree  # noqa: E402
from refined_chord.lattice import vectors_key  # noqa: E402

HEXAGON = "(1,0),(0,1),(-1,1),(-1,0),(0,-1),(1,-1)"
SKEW = ("skew-triangle", "split-fan", "mixed-quad")


def broad_corpus():
    """The 82 degree specs the survey runs by default."""
    specs = [
        f"P2:{d}:" + ",".join(map(str, lam))
        for d in range(3, 9)
        for lam in _partitions(d)
    ]
    specs += [f"P1xP1:{a},{b}" for b in range(1, 6) for a in range(1, b + 1)]
    specs.append(HEXAGON)
    return specs + [vectors_key(d.vectors).replace(";", ",") for name, d in CORPUS if name in SKEW]


def work(spec):
    """``(records, passers, chords solved, tails refused)`` of one cold
    solve of ``spec``."""
    real_stream = chord_recursion._sub_multisets
    real_ends = chord_recursion._default_ends
    real_admits = chord_recursion._admits_block
    counts = [0, 0, 0, 0]

    def stream(key):
        counts[0] += 1
        for item in real_stream(key):
            counts[1] += 1
            yield item

    def ends(*args, **kwargs):
        counts[2] += 1
        return real_ends(*args, **kwargs)

    def admits(*args):
        ok = real_admits(*args)
        counts[3] += not ok
        return ok

    chord_recursion._sub_multisets = stream
    chord_recursion._default_ends = ends
    chord_recursion._admits_block = admits
    try:
        refined_invariant(parse_degree(spec), cache={})
    finally:
        chord_recursion._sub_multisets = real_stream
        chord_recursion._default_ends = real_ends
        chord_recursion._admits_block = real_admits
    return tuple(counts)


def main(argv=None) -> int:
    """Print the work of each spec in ``argv`` (default: the broad corpus)."""
    specs = list(argv) if argv else broad_corpus()
    total = [0, 0, 0, 0]
    print(f"{'degree':<42} {'records':>8} {'passers':>9} {'chords':>7} {'refused':>8}")
    for spec in specs:
        row = work(spec)
        total = [t + c for t, c in zip(total, row)]
        print(f"{spec:<42} {row[0]:>8} {row[1]:>9} {row[2]:>7} {row[3]:>8}", flush=True)
    label = f"total ({len(specs)} degrees)"
    print(f"{label:<42} {total[0]:>8} {total[1]:>9} {total[2]:>7} {total[3]:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
