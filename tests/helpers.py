"""Shared constructors for the test suite."""

from hkcalc import MonomialOrder, PolynomialRing, PresentedRing, PrimeField
from hkcalc.parser import parse_polynomial


def polynomial_ring_of(p, names, kind="grevlex"):
    return PolynomialRing(PrimeField(p), tuple(names), MonomialOrder(kind))


def ring_of(p, names, kind="grevlex", relations=()):
    ambient = polynomial_ring_of(p, names, kind)
    rels = [poly_of(ambient, s) for s in relations]
    return PresentedRing(ambient.field, ambient.variables, ambient.order, rels)


def poly_of(ring, text):
    return parse_polynomial(text, 0, 0, ring)


def random_poly(rng, ring, max_terms=5, max_exp=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms.append((mono, rng.randint(0, ring.field.p - 1)))
    return ring.poly(terms)
