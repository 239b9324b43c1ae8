"""Closed forms for the top coefficients: a check from outside the recursion.

Write g = (d-1)(d-2)/2, the genus of a plane curve of degree d, and c_k for
the coefficient of q^(g-k) in N(P2:d). These laws were read off the computed
values and hold at every degree checked here; they are observations, not
theorems:

* c_k = C(3d-3+k, k) for k <= d-2;
* c_(d-1) = C(4d-4, d-1) - 3d^2 (from d = 3 on);
* c_d = C(4d-3, d) - 3d(3d^2-3d+1) (from d = 5 on);
* c_(d+1) = C(4d-2, d+1) - (3d/2)(9d^3-15d^2+12d-4) (from d = 6 on; it
  fails at d = 5).

The first is the start of the series (1-x)^-(m-2) for a degree of m ends.
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


@pytest.mark.parametrize("d", range(1, 9))
def test_p2_top_coefficients(d):
    m, hi, c = top_coefficients(f"P2:{d}")
    assert m == 3 * d
    assert hi == (d - 1) * (d - 2)  # the top term is q^g
    if d >= 3:
        assert_prefix(f"P2:{d}", m, c, d - 2)
        assert c[d - 1] == comb(4 * d - 4, d - 1) - 3 * d * d
    else:
        assert c == [1]
    if d >= 5:
        assert c[d] == comb(4 * d - 3, d) - 3 * d * (3 * d * d - 3 * d + 1)
    if d >= 6:
        r2 = 3 * d * (9 * d**3 - 15 * d * d + 12 * d - 4) // 2
        assert c[d + 1] == comb(4 * d - 2, d + 1) - r2


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
