"""Polynomial rings and presented rings over F_p.

A PolynomialRing is F_p[variables] with a monomial order: the prime p, an
int, the variable names and the order.  It is what every polynomial and
Groebner basis belongs to, and it caches nothing.  A session builds one.

A PresentedRing is a polynomial ring modulo a list of its own polynomials,
the relations, with the Groebner bases computed over it cached on it.  The
model is the local ring at the origin, so every relation must vanish there
(zero constant term).  Nothing it caches refers back to it, so a dropped
PresentedRing and its bases are freed at once, without waiting for the
cyclic collector.
"""

from __future__ import annotations

from .errors import InputError
from .field import characteristic
from .orders import MonomialOrder
from .poly import Polynomial


class PolynomialRing:
    """F_p[variables] with a monomial order; rings equal in p, variables
    and order mix."""

    __slots__ = ("p", "variables", "order", "nvars")

    def __init__(self, p: int, variables, order: MonomialOrder):
        variables = tuple(variables)
        if not variables:
            raise InputError("at least one variable is required")
        if len(set(variables)) != len(variables):
            raise InputError("variable names must be distinct")
        self.p = characteristic(p)
        self.variables = variables
        self.order = order
        self.nvars = len(variables)

    # -- element constructors -------------------------------------------------

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, which, exp: int = 1) -> Polynomial:
        """x_which^exp; `which` is a variable name or an index."""
        if isinstance(which, str):
            try:
                which = self.variables.index(which)
            except ValueError:
                raise InputError("unknown variable %r" % which) from None
        elif not 0 <= which < self.nvars:
            raise InputError("variable index %d out of range 0..%d" % (which, self.nvars - 1))
        mono = tuple(exp if j == which else 0 for j in range(self.nvars))
        return Polynomial(self, ((mono, 1),))

    def poly(self, terms) -> Polynomial:
        return Polynomial(self, terms)

    def owns(self, f: Polynomial) -> bool:
        """True iff f belongs to this ring: same p, variables and order."""
        return f.ring is self or f.ring == self

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PolynomialRing)
            and self.p == other.p
            and self.variables == other.variables
            and self.order == other.order
        )

    def __hash__(self) -> int:
        return hash((self.p, self.variables, self.order))

    def __repr__(self) -> str:
        return "F_%d[%s]" % (self.p, ",".join(self.variables))


class PresentedRing:
    """`ambient`, a PolynomialRing, modulo `relations`, a tuple of its
    polynomials; the Groebner bases computed over it are cached here."""

    __slots__ = ("ambient", "relations", "_bases", "_elements", "_homogenizing")

    def __init__(self, ambient: PolynomialRing, relations=()):
        self.ambient = ambient
        self.relations = tuple(relations)
        for rel in self.relations:
            if not ambient.owns(rel):
                raise InputError("relation lives in a different ring")
            if rel.is_zero():
                raise InputError("zero relation is not allowed")
            if rel.constant_term() != 0:
                raise InputError("relation has nonzero constant term")
        self._bases = {}  # sorted set of generator terms -> reduced GroebnerBasis
        self._elements = {}  # terms -> the one element of _bases with them
        self._homogenizing = None  # built by lengths for the first Lazard route

    @property
    def p(self) -> int:
        return self.ambient.p

    @property
    def variables(self) -> tuple:
        return self.ambient.variables

    @property
    def order(self) -> MonomialOrder:
        return self.ambient.order

    @property
    def nvars(self) -> int:
        return self.ambient.nvars

    # -- element constructors: polynomials of the ambient ring ----------------

    def one(self) -> Polynomial:
        return self.ambient.one()

    def constant(self, c: int) -> Polynomial:
        return self.ambient.constant(c)

    def var(self, which, exp: int = 1) -> Polynomial:
        return self.ambient.var(which, exp)

    def poly(self, terms) -> Polynomial:
        return self.ambient.poly(terms)

    def owns(self, f: Polynomial) -> bool:
        """True iff f belongs to the ambient ring; relations do not matter."""
        return self.ambient.owns(f)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresentedRing)
            and self.ambient == other.ambient
            and tuple(r.terms for r in self.relations) == tuple(r.terms for r in other.relations)
        )

    def __hash__(self) -> int:
        return hash((self.ambient, tuple(r.terms for r in self.relations)))

    def __repr__(self) -> str:
        rels = ", ".join(r.render() for r in self.relations)
        base = repr(self.ambient)
        return base if not rels else "%s/(%s)" % (base, rels)
