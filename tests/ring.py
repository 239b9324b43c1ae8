"""Ring arithmetic on ``RefinedPolynomial`` values, for the test references.
The engines compute on packed ints; these read only ``items()``."""

from refined_chord import RefinedPolynomial as P


def add(*polys):
    terms = {}
    for p in polys:
        for k, c in p.items():
            terms[k] = terms.get(k, 0) + c
    return P(terms)


def mul(*polys):
    terms = {0: 1}
    for p in polys:
        right = list(p.items())
        prod = {}
        for k1, c1 in terms.items():
            for k2, c2 in right:
                prod[k1 + k2] = prod.get(k1 + k2, 0) + c1 * c2
        terms = prod
    return P(terms)


def q_analog(a):
    """``[a]_q = (q^(a/2) - q^(-a/2)) / (q^(1/2) - q^(-1/2))``, so ``[-a]_q = -[a]_q``."""
    return P({k: 1 if a > 0 else -1 for k in range(abs(a) - 1, -abs(a), -2)})
