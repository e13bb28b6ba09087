"""Monomials and monomial orders.

A monomial is a plain tuple of nonnegative exponents, one per variable.
A MonomialOrder turns monomials into sort keys; larger key = larger monomial.
"""

from __future__ import annotations

from .errors import InputError

ORDER_KINDS = ("grevlex", "lex", "grlex")

Monomial = tuple  # exponent tuple; alias for readability


def mono_mul(u: Monomial, v: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(u, v))


def mono_pow(u: Monomial, k: int) -> Monomial:
    return tuple(a * k for a in u)


class MonomialOrder:
    """A total, multiplicative well-order on monomials.

    kind is one of grevlex / lex / grlex; precedence is a permutation of
    variable indices, most significant first (default: declaration order).
    """

    __slots__ = ("kind", "precedence", "_rev")

    def __init__(self, kind: str, nvars: int, precedence=None):
        if kind not in ORDER_KINDS:
            raise InputError("unknown monomial order %r" % kind)
        if precedence is None:
            precedence = tuple(range(nvars))
        else:
            precedence = tuple(precedence)
            if sorted(precedence) != list(range(nvars)):
                raise InputError("precedence must be a permutation of variable indices")
        self.kind = kind
        self.precedence = precedence
        self._rev = tuple(reversed(precedence))

    def key(self, m: Monomial):
        """Sort key; key(u) > key(v) iff u > v in this order."""
        if self.kind == "lex":
            return tuple(m[i] for i in self.precedence)
        deg = sum(m)
        if self.kind == "grlex":
            return (deg,) + tuple(m[i] for i in self.precedence)
        # grevlex: ties broken by the *smallest* exponent on the least
        # significant variable, hence the reversed negated tuple.
        return (deg,) + tuple(-m[i] for i in self._rev)

    def spec(self):
        return (self.kind, self.precedence)

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.spec() == other.spec()

    def __hash__(self) -> int:
        return hash(("MonomialOrder",) + self.spec())

    def __repr__(self) -> str:
        return "MonomialOrder(%r, precedence=%r)" % (self.kind, self.precedence)
