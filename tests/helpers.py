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


def s_poly(f, g):
    """S(f, g) by Polynomial arithmetic: with L the lcm of the leading
    monomials, lc(g) * (L / lm f) * f - lc(f) * (L / lm g) * g."""
    ring, lcm = f.ring, tuple(map(max, f.lm, g.lm))
    shift_f = ring.poly([(tuple(a - b for a, b in zip(lcm, f.lm)), g.terms[0][1])])
    shift_g = ring.poly([(tuple(a - b for a, b in zip(lcm, g.lm)), f.terms[0][1])])
    return shift_f * f - shift_g * g


def session_text(session):
    """Canonical DSL rendering of a parsed session; reparsing it yields an
    identical session."""
    out = [
        "char %d" % session.ring.p,
        "vars %s" % " ".join(session.ring.variables),
        "order %s" % session.ring.order.kind,
    ]
    for r in session.relations:
        out.append("mod %s" % r.render())
    for keyword, table in (("ideal", session.ideals), ("prime", session.primes)):
        for name, gens in table.items():
            out.append("%s %s = %s" % (keyword, name, ", ".join(g.render() for g in gens)))
    for name, g in session.params.items():
        out.append("param %s = %s" % (name, g.render()))
    return "\n".join(out) + "\n"


def readme_block(marker):
    """The first fenced block of README.md after the text marker."""
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    start = readme.index("\n", readme.index("```", readme.index(marker))) + 1
    return readme[start : readme.index("```", start)]
