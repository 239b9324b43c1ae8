import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from refined_chord import cp2_degree, make_degree  # noqa: E402

# Cross-validation corpus: every degree has at most 8 ends so the brute-force
# enumerator stays cheap. Mixes the triangle families (including all the
# tabulated ones small enough for the oracle), non-primitive degrees, and
# degrees of other toric surfaces.
CORPUS = [
    ("P2:1", cp2_degree(1, [1])),
    ("P2:2", cp2_degree(2, [1, 1])),
    ("P2:2:2", cp2_degree(2, [2])),
    ("P2:3:3", cp2_degree(3, [3])),
    ("P2:3:2,1", cp2_degree(3, [2, 1])),
    ("doubled-line", make_degree([(-2, 0), (0, -2), (2, 2)])),
    ("heavy-vertical", make_degree([(0, -2), (-1, 1), (1, 1)])),
    ("P1xP1:1,1", make_degree([(-1, 0), (1, 0), (0, -1), (0, 1)])),
    ("P1xP1:1,2", make_degree([(-1, 0)] * 2 + [(1, 0)] * 2 + [(0, -1), (0, 1)])),
    ("P1xP1:2,2", make_degree([(-1, 0)] * 2 + [(1, 0)] * 2 + [(0, -1)] * 2 + [(0, 1)] * 2)),
    ("hexagon", make_degree([(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)])),
    ("skew-triangle", make_degree([(-3, 1), (1, -2), (2, 1)])),
    ("split-fan", make_degree([(-1, 0), (-1, 0), (1, 2), (1, -2)])),
    ("mixed-quad", make_degree([(0, -1), (0, -1), (-1, 1), (1, 1)])),
]

# Degrees whose vectors are not all primitive, and degrees that are not of
# the triangle family; both views of the corpus above.
NON_PRIMITIVE = ["P2:2:2", "P2:3:3", "P2:3:2,1", "doubled-line", "heavy-vertical"]
NON_CP2 = [
    "doubled-line", "heavy-vertical", "P1xP1:1,1", "P1xP1:1,2", "P1xP1:2,2",
    "hexagon", "skew-triangle", "split-fan", "mixed-quad",
]

# elementary moves of GL2(Z) applied to a vector (x, y) with a sign s = +-1;
# each has det +-1, and words in them reach every element of GL2(Z)
GL2_MOVES = {
    "add-x": lambda x, y, s: (x + s * y, y),
    "add-y": lambda x, y, s: (x, y + s * x),
    "flip": lambda x, y, s: (y, x),
    "negate-x": lambda x, y, s: (-x, y),
}
