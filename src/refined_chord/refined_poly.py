"""Exact Laurent polynomials in a half-integer power of q.

Values of the refined counts live in the ring of Laurent polynomials in
``q^(1/2)`` with integer coefficients. A polynomial is stored sparsely as a
map from the half-exponent ``k`` (meaning the term ``q^(k/2)``) to its
coefficient; zero coefficients are never stored, so two polynomials are
equal exactly when their term maps are. Coefficients are Python integers,
hence exact at any size.

Both engines compute on a packed form instead, one Python int per value
(Kronecker substitution); the helpers at the end of this module convert
between the two and are the only definition of that form.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Dict, Iterator, List, Mapping, Tuple


class RefinedPolynomial:
    """Immutable sparse Laurent polynomial in ``q^(1/2)``.

    Supports ``+``, ``-`` and ``*``, with polynomials and integers.
    Instances are never mutated after construction, so they can be shared
    and cached freely.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms: Dict[int, int] = {
            int(k): int(c) for k, c in (terms or {}).items() if c != 0
        }

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "RefinedPolynomial":
        return cls()

    @classmethod
    def one(cls) -> "RefinedPolynomial":
        return cls({0: 1})

    @classmethod
    def _adopt(cls, terms: Dict[int, int]) -> "RefinedPolynomial":
        """Wrap ``terms`` without copying: int keys, nonzero int values only."""
        out = cls.__new__(cls)
        out._terms = terms
        return out

    # -- inspection -------------------------------------------------------

    @property
    def support(self) -> Tuple[int, ...]:
        """Half-exponents with nonzero coefficient, in decreasing order."""
        return tuple(sorted(self._terms, reverse=True))

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._terms.items())

    def is_zero(self) -> bool:
        return not self._terms

    def is_palindromic(self) -> bool:
        """True iff the coefficients of ``q^(k/2)`` and ``q^(-k/2)`` agree for all k."""
        return all(self._terms.get(-k) == c for k, c in self._terms.items())

    def uniform_parity(self) -> bool:
        """True iff all exponents are integers, or all are strict half-integers."""
        return len({k & 1 for k in self._terms}) <= 1

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at q = 1."""
        return sum(self._terms.values())

    # -- arithmetic -------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RefinedPolynomial):
            return other
        if isinstance(other, int):
            return RefinedPolynomial({0: other})
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        terms = dict(self._terms)
        for k, c in other._terms.items():
            s = terms.get(k, 0) + c
            if s:
                terms[k] = s
            else:
                terms.pop(k, None)
        return RefinedPolynomial._adopt(terms)

    __radd__ = __add__

    def __neg__(self):
        return RefinedPolynomial._adopt({k: -c for k, c in self._terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        prod: Dict[int, int] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                k = k1 + k2
                s = prod.get(k, 0) + c1 * c2
                if s:
                    prod[k] = s
                else:
                    del prod[k]
        return RefinedPolynomial._adopt(prod)

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    # -- rendering --------------------------------------------------------

    def to_text(self) -> str:
        """Human form, terms in strictly decreasing exponent order.

        Integer exponents render as ``q^3``, half exponents as ``q^(5/2)``,
        the unit power as ``q``, and the constant term bare, e.g.
        ``q^3 + 10*q^2 + 55*q + 172 + 55*q^-1 + 10*q^-2 + q^-3``.
        """
        if not self._terms:
            return "0"
        parts = []
        for k in self.support:
            c = self._terms[k]
            mag = _power_text(k)
            if mag is None:
                body = str(abs(c))
            elif abs(c) == 1:
                body = mag
            else:
                body = f"{abs(c)}*{mag}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def to_json_dict(self) -> Dict[str, str]:
        """JSON form: half-exponent and coefficient both as decimal strings."""
        return {str(k): str(self._terms[k]) for k in self.support}

    def __repr__(self):
        return f"RefinedPolynomial({self.to_text()!r})"

    __str__ = to_text


class _Deferred(RefinedPolynomial):
    """The polynomial whose coefficient of ``q^((hi - 2i)/2)`` is
    ``coeffs[i]``, for a list of ints ``coeffs``; its term map is built on
    first use.

    ``hi`` and ``coeffs`` are kept, so a cache can write the value back
    without building the map. The building lives in this subclass because
    a class that defines ``__getattr__`` takes a slower path for every
    attribute it reads.
    """

    __slots__ = ("_hi", "_coeffs")

    def __init__(self, hi: int, coeffs: List[int]):
        self._hi = hi
        self._coeffs = coeffs

    def __getattr__(self, name):
        # only the unset _terms slot gets here; setting it builds the map once
        if name != "_terms":
            raise AttributeError(name)
        hi = self._hi
        exponents = range(hi, hi - 2 * len(self._coeffs), -2)
        terms = self._terms = {k: c for k, c in zip(exponents, self._coeffs) if c}
        return terms


def _dense(key: str, poly: RefinedPolynomial) -> Tuple[int, List[int]]:
    """``poly`` as the ``(hi, coeffs)`` that :class:`_Deferred` takes and a
    cache entry stores: ``hi`` its highest half-exponent and ``coeffs`` its
    coefficients of ``q^((hi - 2i)/2)``, the zero polynomial ``(0, [])``.
    Raises ``ValueError`` naming ``key`` if ``poly`` mixes integer and
    half-integer exponents, which this form cannot hold."""
    terms = dict(poly.items())
    if not terms:
        return 0, []
    if len({k & 1 for k in terms}) > 1:
        raise ValueError(
            f"cache entry {key!r} mixes integer and half-integer exponents"
        )
    hi = max(terms)
    return hi, [terms.get(k, 0) for k in range(hi, min(terms) - 1, -2)]


def _power_text(half_exp: int):
    """Render ``q^(half_exp/2)``; None means the q^0 constant."""
    if half_exp == 0:
        return None
    if half_exp % 2 == 0:
        n = half_exp // 2
        return "q" if n == 1 else f"q^{n}"
    return f"q^({half_exp}/2)"


_Q_ANALOG_CACHE: Dict[int, RefinedPolynomial] = {}


def q_analog(a: int) -> RefinedPolynomial:
    """The quantum integer ``[a]_q = (q^(a/2) - q^(-a/2)) / (q^(1/2) - q^(-1/2))``.

    For positive ``a`` this is the a-term sum ``q^((a-1)/2) + ... + q^(-(a-1)/2)``;
    ``[0]_q`` is zero and ``[-a]_q = -[a]_q``, matching the defining quotient.
    """
    poly = _Q_ANALOG_CACHE.get(a)
    if poly is None:
        if a == 0:
            poly = RefinedPolynomial.zero()
        elif a > 0:
            poly = RefinedPolynomial({k: 1 for k in range(a - 1, -a, -2)})
        else:
            poly = -q_analog(-a)
        _Q_ANALOG_CACHE[a] = poly
    return poly


# -- packed values (Kronecker substitution) -------------------------------
#
# Both engines do their arithmetic on packed values. ``(n, hi, e1)`` stands
# for the polynomial whose coefficient of ``q^((2j - hi)/2)`` is slot ``j``
# of ``n`` (bits ``j * bits`` to ``(j + 1) * bits - 1``), and ``e1`` is its
# exact value at q = 1. Every packed value is palindromic of uniform parity
# with nonnegative coefficients, so ``-hi`` is its lowest half-exponent, a
# product is ``(n1 * n2, hi1 + hi2, e1 * e2)`` and a sum shifts the summand
# of smaller ``hi`` up by ``(hi - h) / 2`` slots. Each coefficient is at most
# ``e1``, so ``e1 < 2**bits`` at a stored total proves that no slot carried;
# otherwise the engine raises :class:`_SlotOverflow` and :func:`_widening`
# redoes the count with slots twice as wide.

Packed = Tuple[int, int, int]

# initial slot width of packed values; _widening doubles it after an overflow
_SLOT_BITS = 64


class _SlotOverflow(Exception):
    """A packed total reached its slot width, so a slot may have carried."""


def _widening(count: Callable[[int], Packed]) -> RefinedPolynomial:
    """``count(bits)`` unpacked, with ``bits`` starting at ``_SLOT_BITS`` and
    doubled after every :class:`_SlotOverflow`."""
    bits = _SLOT_BITS
    while True:
        try:
            return _unpack(count(bits), bits)
        except _SlotOverflow:
            bits *= 2


def _check_cached(key: str, poly: RefinedPolynomial) -> None:
    """Raise ``ValueError`` naming ``key`` unless ``poly``, read from a
    cache, is nonnegative, palindromic and of uniform parity, as every
    computed value is, and as the packed form needs to hold it exactly."""
    if not (
        poly.is_palindromic()
        and poly.uniform_parity()
        and all(c > 0 for _, c in poly.items())
    ):
        raise ValueError(
            f"cache entry {key!r} is not nonnegative, palindromic and of uniform parity"
        )


def _pack(key: str, poly: RefinedPolynomial, bits: int) -> Packed:
    """``poly`` in packed form, or ``ValueError`` naming ``key`` when the
    form cannot hold it exactly (see :func:`_check_cached`)."""
    _check_cached(key, poly)
    if poly.is_zero():
        return 0, 0, 0
    hi = poly.support[0]
    n = 0
    for k, c in poly.items():
        n += c << (bits * ((k + hi) >> 1))
    return n, hi, poly.evaluate_at_one()


def _unpack(packed: Packed, bits: int) -> RefinedPolynomial:
    """The polynomial of a packed value whose coefficients fit their slots."""
    n, hi, _ = packed
    mask = (1 << bits) - 1
    terms = {}
    k = -hi
    while n:
        c = n & mask
        if c:
            terms[k] = c
        n >>= bits
        k += 2
    return RefinedPolynomial(terms)


# bounded: [a]_q packs into a * bits bits, and a grows with the entries
@lru_cache(maxsize=1024)
def _packed_q_analog(a: int, bits: int) -> Packed:
    """``[a]_q`` for ``a > 0``: ``a`` unit slots, lowest exponent ``-(a - 1)``."""
    return ((1 << bits * a) - 1) // ((1 << bits) - 1), a - 1, a
