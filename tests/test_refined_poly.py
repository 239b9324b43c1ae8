import random

import pytest
from hypothesis import given, strategies as st

from refined_chord import RefinedPolynomial
from refined_chord.lattice import omega
from refined_chord.refined_poly import _Deferred, _dense, _pack, q_analog

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
    big = P({0: 10**40, 2: -(10**39)})
    assert big.to_json_dict() == {"2": str(-(10**39)), "0": str(10**40)}


@pytest.mark.parametrize(
    "eager",
    [P(), P({0: 1}), P({2: 1, 0: 7, -2: 1}), P({3: 1, 1: 5, -1: 5, -3: 1}),
     P({3: 10**30, -3: 10**30})],
    ids=["zero", "one", "cubic", "half-integer", "big"],
)
def test_deferred_polynomial_behaves_as_eager(eager):
    # built the way load_cache builds its values, from the hi and
    # coefficients that save_cache writes
    def lazy():
        return _Deferred(*_dense("k", eager))

    assert lazy() == eager and eager == lazy() and lazy() == lazy()
    assert lazy() != eager + 1 and not (lazy() == eager + 1)
    assert hash(lazy()) == hash(eager)
    assert lazy().to_text() == str(lazy()) == eager.to_text()
    assert repr(lazy()) == repr(eager)
    assert lazy().to_json_dict() == eager.to_json_dict()
    assert lazy().support == eager.support
    assert dict(lazy().items()) == dict(eager.items())
    assert bool(lazy()) == bool(eager) and lazy().is_zero() == eager.is_zero()
    assert lazy().evaluate_at_one() == eager.evaluate_at_one()
    assert lazy() * lazy() == eager * eager and lazy() + 2 == eager + 2
    assert -lazy() == -eager and 3 - lazy() == 3 - eager
    for bits in (64, 128):
        assert _pack("k", lazy(), bits) == _pack("k", eager, bits)


def test_deferred_polynomial_drops_zero_coefficients():
    lazy = _Deferred(4, [1, 0, 0, 0, 1])
    assert lazy == P({4: 1, -4: 1})
    assert dict(lazy.items()) == {4: 1, -4: 1}
    assert _Deferred(0, []).is_zero()


def test_integer_coercion():
    p = half(2) + half(-2)
    assert p * 3 == P({2: 3, -2: 3})
    assert 1 + P.zero() == P.one()
    assert P.one() == 1
    assert P.zero() == 0

