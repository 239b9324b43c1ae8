"""Closed forms for the top coefficients: a check from outside the recursion.

Write g = (d-1)(d-2)/2, the genus of a plane curve of degree d, and c_k for
the coefficient of q^(g-k) in N(P2:d). From d = 3 on, the top coefficients
are those of one generating function,

    sum_k c_k x^k = (1-x)^-(3d-2) * (1 - 3d x^(d-1) (d - (d-1) x))

for every k < 2d-4. This was read off the computed values and holds at
every degree checked here; it is an observation, not a theorem. From d = 4
on the coefficient at k = 2d-4 breaks it: c - F there is -216, -1800,
-4725, -10584 and -21168 for d = 4..8. Expanded, the formula gives the
laws found one at a time before it:

* c_k = C(3d-3+k, k) for k <= d-2, the start of (1-x)^-(m-2) for a degree
  of m = 3d ends;
* c_(d-1) = C(4d-4, d-1) - 3d^2 (from d = 3 on; at d = 3, k = d-1 = 2d-4,
  where the formula still holds);
* c_d = C(4d-3, d) - 3d(3d^2-3d+1) (from d = 5 on);
* c_(d+1) = C(4d-2, d+1) - (3d/2)(9d^3-15d^2+12d-4) (from d = 6 on; at
  d = 5 it is the break at k = 2d-4).

Degrees with grouped ends follow the same prefix: P2:d:l for k <= d-2, and
the rectangle P1xP1:a,b for k <= min(a,b)-1. In every case the coefficient
after the prefix breaks it, so the prefix is not longer than stated.
"""

from math import comb

import pytest

from refined_chord import refined_invariant
from refined_chord.cli import parse_degree

# one cache for the whole module: the degrees share their sub-degrees
_CACHE = {}


def top_coefficients(spec):
    """The number of ends of ``spec``, and the coefficients of its value
    from the top term down in steps of q (the half-exponent steps by 2)."""
    d = parse_degree(spec)
    terms = dict(refined_invariant(d, cache=_CACHE).items())
    hi = max(terms)
    return len(d.vectors), hi, [terms.get(k, 0) for k in range(hi, -hi - 1, -2)]


def assert_prefix(spec, m, c, last):
    """c_k = C(m-3+k, k) for k <= last, and not for k = last + 1."""
    for k in range(last + 1):
        assert c[k] == comb(m - 3 + k, k), (spec, k)
    assert c[last + 1] != comb(m - 2 + last, last + 1), (spec, last + 1)


def codegree_formula(d, k):
    """[x^k] (1-x)^-(3d-2) * (1 - 3d x^(d-1) (d - (d-1) x))."""

    def tail(shift):  # [x^(k-shift)] (1-x)^-(3d-2)
        return comb(3 * d - 3 + k - shift, k - shift) if k >= shift else 0

    return tail(0) - 3 * d * d * tail(d - 1) + 3 * d * (d - 1) * tail(d)


# c - F at k = 2d-4, the first coefficient the formula misses
FIRST_RESIDUAL = {4: -216, 5: -1800, 6: -4725, 7: -10584, 8: -21168}


@pytest.mark.parametrize("d", range(1, 9))
def test_p2_top_coefficients(d):
    m, hi, c = top_coefficients(f"P2:{d}")
    assert m == 3 * d
    assert hi == (d - 1) * (d - 2)  # the top term is q^g
    if d < 3:
        assert c == [1]
        return
    for k in range(max(2 * d - 4, d)):  # and k = d-1 at d = 3
        assert c[k] == codegree_formula(d, k), (d, k)
    if d >= 4:
        residual = c[2 * d - 4] - codegree_formula(d, 2 * d - 4)
        assert residual != 0 and residual == FIRST_RESIDUAL.get(d, residual)


@pytest.mark.parametrize(
    "spec",
    ["P2:5:2,2,1", "P2:6:2,2,2", "P2:6:3,2,1", "P2:7:2,2,2,1", "P2:8:2,2,2,2",
     "P2:8:3,3,2"],
)
def test_partition_prefix(spec):
    d = int(spec.split(":")[1])
    m, _, c = top_coefficients(spec)
    assert_prefix(spec, m, c, d - 2)


@pytest.mark.parametrize("a,b", [(2, 6), (3, 4), (4, 4)])
def test_rectangle_prefix(a, b):
    spec = f"P1xP1:{a},{b}"
    m, _, c = top_coefficients(spec)
    assert m == 2 * (a + b)
    assert_prefix(spec, m, c, min(a, b) - 1)


def test_slow_check_runs_on_small_degrees(capsys):
    # tests/slow_codegree_laws.py runs d = 9..12 outside the suite
    from slow_codegree_laws import main

    assert main(["3", "4", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:3] for line in lines] == [
        [f"P2:{d}", "laws", "hold"] for d in (3, 4, 5)
    ]
