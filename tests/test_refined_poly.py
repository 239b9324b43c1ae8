import random

import pytest
from hypothesis import given, strategies as st

from refined_chord import (
    BadArity,
    RefinedPolynomial,
    mikhalkin_normalization,
    omega,
    q_analog,
)

P = RefinedPolynomial

polys = st.builds(
    P,
    st.dictionaries(st.integers(-8, 8), st.integers(-30, 30), max_size=6),
)


def half(k, c=1):
    return P({k: c})


def test_add_identity_and_inverse():
    s = half(1) + half(-1)
    assert s + P.zero() == s
    p = half(2) + 7 + half(-2)
    assert p + (-p) == P.zero()
    assert half(1) + half(-1) == P({1: 1, -1: 1})


def test_mul_examples():
    s = P({1: 1, -1: 1})
    assert s * s == P({2: 1, 0: 2, -2: 1})
    p = P({3: 4, 0: -2})
    assert p * P.one() == p
    assert P({1: 1, -1: -1}) * P({1: 1, -1: 1}) == P({2: 1, -2: -1})


def test_zero_coefficients_never_stored():
    p = P({2: 1, 0: 0, -2: 1})
    assert p.support == (2, -2)
    assert (p - p).support == ()


@given(polys, polys, polys)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


def _sum_by_operators(summands):
    total = P.zero()
    for scale, a, b in summands:
        total = total + (scale * a if b is None else scale * a * b)
    return total


@given(
    st.lists(
        st.tuples(st.integers(-5, 5), polys, st.one_of(st.none(), polys)),
        max_size=5,
    )
)
def test_sum_of_products_matches_operators(summands):
    got = P.sum_of_products(summands)
    assert got == _sum_by_operators(summands)
    assert 0 not in dict(got.items()).values()


def test_sum_of_products_cancellation():
    s = P({1: 1, -1: 1})
    d = P({1: 1, -1: -1})
    summands = [(3, s, d), (-3, d, s), (2, P({0: 5}), None), (-10, P.one(), None)]
    assert P.sum_of_products(summands) == P.zero()
    assert P.sum_of_products(summands).support == ()
    # partial cancellation: only the constant term survives
    summands = [(1, s, s), (-1, d, d)]
    assert P.sum_of_products(summands) == P({2: 0, 0: 4, -2: 0}) == 4
    assert P.sum_of_products([]) == P.zero()


def test_q_analog_values():
    assert q_analog(1) == P.one()
    assert q_analog(2) == P({1: 1, -1: 1})
    assert q_analog(0) == P.zero()
    assert q_analog(-3) == -P({2: 1, 0: 1, -2: 1})
    assert q_analog(5) == P({4: 1, 2: 1, 0: 1, -2: 1, -4: 1})


def test_q_analog_clears_denominator():
    # [a]_q * (q^(1/2) - q^(-1/2)) recovers q^(a/2) - q^(-a/2)
    s = P({1: 1, -1: -1})
    for a in range(1, 51):
        assert q_analog(a) * s == P({a: 1, -a: -1})


@given(st.integers(-60, 60))
def test_q_analog_palindromic_and_odd(a):
    assert q_analog(a).is_palindromic()
    assert q_analog(-a) == -q_analog(a)
    assert q_analog(a).evaluate_at_one() == a


def test_is_palindromic():
    assert P({2: 1, 0: 7, -2: 1}).is_palindromic()
    assert not half(1).is_palindromic()
    assert P.zero().is_palindromic()


def test_evaluate_at_one():
    assert P({2: 1, 0: 7, -2: 1}).evaluate_at_one() == 9
    assert P({1: 1, -1: 1}).evaluate_at_one() == 2
    assert P.zero().evaluate_at_one() == 0


def test_uniform_parity():
    assert P({2: 1, 0: 7, -2: 1}).uniform_parity()
    assert P({3: 1, 1: 6, -1: 6, -3: 1}).uniform_parity()
    assert not P({1: 1, 0: 1}).uniform_parity()
    assert P.zero().uniform_parity()


def test_mikhalkin_normalization():
    assert mikhalkin_normalization(P.one(), 3) == P({1: 1, -1: -1})
    assert mikhalkin_normalization(P.one(), 2) == P.one()
    s = P({1: 1, -1: 1})
    assert mikhalkin_normalization(s, 2) == s
    with pytest.raises(BadArity):
        mikhalkin_normalization(P.one(), 1)


def _bracket(n):
    # q^n - q^(-n), exponents in whole powers of q
    return P({2 * n: 1, -2 * n: -1})


def test_wall_crossing_identity_sampled():
    # three-term identity behind invariance across walls, checked exactly on
    # vector triples satisfying its sign preconditions
    rng = random.Random(20240817)
    found = 0
    while found < 200:
        a1 = (rng.randint(-5, 5), rng.randint(-5, 5))
        a2 = (rng.randint(-5, 5), rng.randint(-5, 5))
        a3 = (rng.randint(-5, 5), rng.randint(-5, 5))
        a23 = (a2[0] + a3[0], a2[1] + a3[1])
        a12 = (a1[0] + a2[0], a1[1] + a2[1])
        a13 = (a1[0] + a3[0], a1[1] + a3[1])
        needed = [
            omega(a1, a2), omega(a2, a3), omega(a1, a3),
            omega(a1, a23), omega(a12, a3), omega(a2, a13),
        ]
        if any(x <= 0 for x in needed):
            continue
        found += 1
        lhs = _bracket(omega(a2, a3)) * _bracket(omega(a1, a23))
        rhs = _bracket(omega(a1, a2)) * _bracket(omega(a12, a3)) + _bracket(
            omega(a1, a3)
        ) * _bracket(omega(a2, a13))
        assert lhs == rhs


def test_text_rendering():
    p = P({6: 1, 4: 10, 2: 55, 0: 172, -2: 55, -4: 10, -6: 1})
    assert p.to_text() == "q^3 + 10*q^2 + 55*q + 172 + 55*q^-1 + 10*q^-2 + q^-3"
    assert P({1: 1, -1: 1}).to_text() == "q^(1/2) + q^(-1/2)"
    assert P({5: 3, -5: 3}).to_text() == "3*q^(5/2) + 3*q^(-5/2)"
    assert P.zero().to_text() == "0"
    assert P.one().to_text() == "1"
    assert P({2: -1, 0: 4}).to_text() == "-q + 4"


def test_json_round_trip():
    p = P({9: 1, 1: 88, -1: 88, -9: 1})
    data = p.to_json_dict()
    assert data == {"9": "1", "1": "88", "-1": "88", "-9": "1"}
    assert P.from_json_dict(data) == p
    big = P({0: 10**40, 2: -(10**39)})
    assert P.from_json_dict(big.to_json_dict()) == big


def test_from_json_dict_drops_zero_coefficients():
    p = P.from_json_dict({"2": "0", "0": "5", "-2": "-0"})
    assert p == P({0: 5})
    assert dict(p.items()) == {0: 5}
    assert P.from_json_dict({"1": "0"}).is_zero()


def test_integer_coercion():
    p = half(2) + half(-2)
    assert p * 3 == P({2: 3, -2: 3})
    assert 1 + P.zero() == P.one()
    assert P.one() == 1
    assert P.zero() == 0


def test_power():
    s = P({1: 1, -1: -1})
    assert s**0 == P.one()
    assert s**2 == P({2: 1, 0: -2, -2: 1})
    with pytest.raises(ValueError):
        s ** (-1)
