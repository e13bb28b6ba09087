"""Presented rings: a polynomial ring over F_p modulo a list of relations.

The model is the local ring at the origin, so every relation must vanish
there (zero constant term).
"""

from __future__ import annotations

from .errors import InputError
from .field import PrimeField
from .orders import MonomialOrder
from .poly import Polynomial

MAX_VARS = 10


class PresentedRing:
    __slots__ = ("field", "variables", "order", "relations", "_dim", "_bases")

    def __init__(self, field: PrimeField, variables, order: MonomialOrder, relations=()):
        variables = tuple(variables)
        if not variables:
            raise InputError("at least one variable is required")
        if len(variables) > MAX_VARS:
            raise InputError("at most %d variables are supported" % MAX_VARS)
        if len(set(variables)) != len(variables):
            raise InputError("variable names must be distinct")
        if len(order.precedence) != len(variables):
            raise InputError("order arity does not match variable count")
        relations = tuple(relations)
        for rel in relations:
            if rel.field.p != field.p or rel.order != order or rel.nvars != len(variables):
                raise InputError("relation lives in a different ring")
            if rel.is_zero():
                raise InputError("zero relation is not allowed")
            if rel.constant_term() != 0:
                raise InputError("relation has nonzero constant term")
        self.field = field
        self.variables = variables
        self.order = order
        self.relations = relations
        self._dim = None
        self._bases = {}  # sorted generator terms -> reduced GroebnerBasis

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- element constructors -------------------------------------------------

    def zero(self) -> Polynomial:
        return Polynomial.zero(self.field, self.order, self.nvars)

    def one(self) -> Polynomial:
        return Polynomial.constant(self.field, self.order, self.nvars, 1)

    def constant(self, c: int) -> Polynomial:
        return Polynomial.constant(self.field, self.order, self.nvars, c)

    def var(self, which, exp: int = 1) -> Polynomial:
        if isinstance(which, str):
            try:
                which = self.variables.index(which)
            except ValueError:
                raise InputError("unknown variable %r" % which) from None
        return Polynomial.variable(self.field, self.order, self.nvars, which, exp)

    def poly(self, terms) -> Polynomial:
        return Polynomial(self.field, self.order, self.nvars, terms)

    def owns(self, f: Polynomial) -> bool:
        return f.field.p == self.field.p and f.order == self.order and f.nvars == self.nvars

    # -- invariants -----------------------------------------------------------

    @property
    def dimension(self) -> int:
        """Krull dimension of the ring (dimension of the zero ideal)."""
        if self._dim is None:
            from .lengths import dimension
            from .ideals import Ideal

            self._dim = dimension(Ideal(self, ()))
        return self._dim

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
            (self.field.p, self.variables, self.order.spec(), tuple(r.terms for r in self.relations))
        )

    def __repr__(self) -> str:
        rels = ", ".join(r.render(self.variables) for r in self.relations)
        base = "F_%d[%s]" % (self.field.p, ",".join(self.variables))
        return base if not rels else "%s/(%s)" % (base, rels)
