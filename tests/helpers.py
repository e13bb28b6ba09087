"""Shared constructors for the test suite."""

import pathlib

from hkcalc import MonomialOrder, PolynomialRing, PresentedRing
from hkcalc.parser import parse_polynomial


def polynomial_ring_of(p, names, kind="grevlex"):
    return PolynomialRing(p, tuple(names), MonomialOrder(kind))


def ring_of(p, names, kind="grevlex", relations=()):
    ambient = polynomial_ring_of(p, names, kind)
    return PresentedRing(ambient, [poly_of(ambient, s) for s in relations])


def poly_of(ring, text):
    return parse_polynomial(text, 0, 0, ring)


def random_poly(rng, ring, max_terms=5, max_exp=4):
    terms = []
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in range(ring.nvars))
        terms.append((mono, rng.randint(0, ring.p - 1)))
    return ring.poly(terms)


def readme_block(marker):
    """The first fenced block of README.md after the text marker."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("\n", readme.index("```", readme.index(marker))) + 1
    return readme[start : readme.index("```", start)]
