"""Presented rings: a polynomial ring over F_p modulo a list of relations.

The model is the local ring at the origin, so every relation must vanish
there (zero constant term).
"""

from __future__ import annotations

from .errors import InputError
from .field import PrimeField
from .orders import MonomialOrder
from .poly import Polynomial


class PresentedRing:
    __slots__ = (
        "field",
        "variables",
        "order",
        "relations",
        "_bases",
        "_elements",
        "_homogenizing",
        "_graded",
    )

    def __init__(self, field: PrimeField, variables, order: MonomialOrder, relations=()):
        variables = tuple(variables)
        if not variables:
            raise InputError("at least one variable is required")
        if len(set(variables)) != len(variables):
            raise InputError("variable names must be distinct")
        self.field = field
        self.variables = variables
        self.order = order
        # Relations may come from any ring over the same field and variables
        # (e.g. one with another order); they are re-homed here by terms.
        rehomed = []
        for rel in relations:
            if rel.ring.field != field or rel.ring.variables != variables:
                raise InputError("relation lives in a different ring")
            if rel.is_zero():
                raise InputError("zero relation is not allowed")
            if rel.constant_term() != 0:
                raise InputError("relation has nonzero constant term")
            rehomed.append(self.poly(rel.terms))
        self.relations = tuple(rehomed)
        self._bases = {}  # sorted generator terms -> reduced GroebnerBasis
        self._elements = {}  # terms -> the one element of _bases with them
        self._homogenizing = None  # built by lengths on first non-graded ideal
        self._graded = all(r.is_homogeneous() for r in self.relations)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- element constructors -------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial(self, ())

    def one(self) -> Polynomial:
        return self.constant(1)

    def constant(self, c: int) -> Polynomial:
        return Polynomial(self, (((0,) * self.nvars, c),))

    def var(self, which, exp: int = 1) -> Polynomial:
        if isinstance(which, str):
            try:
                which = self.variables.index(which)
            except ValueError:
                raise InputError("unknown variable %r" % which) from None
        mono = tuple(exp if j == which else 0 for j in range(self.nvars))
        return Polynomial(self, ((mono, 1),))

    def poly(self, terms) -> Polynomial:
        return Polynomial(self, terms)

    def owns(self, f: Polynomial) -> bool:
        """True iff f was built in this ring, or in one that differs only in
        its relations (same field, variables and order)."""
        other = f.ring
        return other is self or (
            other.field == self.field
            and other.variables == self.variables
            and other.order == self.order
        )

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PresentedRing)
            and self.field == other.field
            and self.variables == other.variables
            and self.order == other.order
            and tuple(r.terms for r in self.relations) == tuple(r.terms for r in other.relations)
        )

    def __hash__(self) -> int:
        return hash(
            (self.field.p, self.variables, self.order, tuple(r.terms for r in self.relations))
        )

    def __repr__(self) -> str:
        rels = ", ".join(r.render() for r in self.relations)
        base = "F_%d[%s]" % (self.field.p, ",".join(self.variables))
        return base if not rels else "%s/(%s)" % (base, rels)
