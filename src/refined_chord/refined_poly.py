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
from operator import index
from typing import Callable, Dict, Iterator, List, Mapping, Tuple


class RefinedPolynomial:
    """Immutable sparse Laurent polynomial in ``q^(1/2)``.

    A value with no arithmetic: the engines compute on the packed form
    below. It equals only another polynomial with the same terms, never an
    int. Instances are never mutated after construction, so they can be
    shared and cached freely.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[int, int] | None = None):
        self._terms: Dict[int, int] = {
            index(k): index(c) for k, c in (terms or {}).items() if index(c)
        }

    # -- constructors ----------------------------------------------------

    @classmethod
    def one(cls) -> "RefinedPolynomial":
        return cls({0: 1})

    # -- inspection -------------------------------------------------------

    @property
    def support(self) -> Tuple[int, ...]:
        """Half-exponents with nonzero coefficient, in decreasing order."""
        return tuple(sorted(self._terms, reverse=True))

    def items(self) -> Iterator[Tuple[int, int]]:
        return iter(self._terms.items())

    def evaluate_at_one(self) -> int:
        """Sum of all coefficients, i.e. the value at q = 1."""
        return sum(self._terms.values())

    # -- comparison -------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, RefinedPolynomial):
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

    ``hi`` and ``coeffs`` are kept and :func:`_dense` returns them, so a
    cache can check, pack and write the value back without building the
    map. The building lives in this subclass because a class that defines
    ``__getattr__`` takes a slower path for every attribute it reads.
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
    """``poly`` as the ``(hi, coeffs)`` that a cache entry stores and a
    :class:`_Deferred` holds, and gives back as it is: ``hi`` the highest
    half-exponent, ``coeffs`` the coefficients of ``q^((hi - 2i)/2)``, the
    zero polynomial ``(0, [])``. Raises ``ValueError`` naming ``key`` if
    ``poly`` mixes integer and half-integer exponents, which no pair holds."""
    if type(poly) is _Deferred:
        return poly._hi, poly._coeffs
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


def _check_cached(key: str, poly: RefinedPolynomial) -> Tuple[int, List[int]]:
    """``poly``, read from a cache, as :func:`_dense` gives it; raises
    ``ValueError`` naming ``key`` unless it is nonnegative, palindromic
    (``hi + 1`` coefficients, the same read both ways) and of uniform
    parity, as every computed value is and as the packed form needs."""
    hi, coeffs = _dense(key, poly)
    if coeffs and (len(coeffs) != hi + 1 or coeffs != coeffs[::-1] or min(coeffs) < 0):
        raise ValueError(
            f"cache entry {key!r} is not nonnegative, palindromic and of uniform parity"
        )
    return hi, coeffs


def _pack(key: str, poly: RefinedPolynomial, bits: int) -> Packed:
    """``poly`` in packed form, or ``ValueError`` naming ``key`` when the
    form cannot hold it exactly (see :func:`_check_cached`), or
    :class:`_SlotOverflow` when its value at q = 1 reaches ``2**bits``."""
    hi, coeffs = _check_cached(key, poly)
    e1 = sum(coeffs)
    if e1 >> bits:
        raise _SlotOverflow
    n = 0
    for c in coeffs:  # from the top: slot hi is q^(hi/2)
        n = n << bits | c
    return n, hi, e1


def _unpack(packed: Packed, bits: int) -> RefinedPolynomial:
    """The polynomial of a packed value whose coefficients fit their slots."""
    n, hi, _ = packed
    mask = (1 << bits) - 1
    terms = {}  # a _Deferred instead measured the same in time and lines
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
