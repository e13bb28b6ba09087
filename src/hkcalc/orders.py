"""Monomials and monomial orders.

A monomial is a plain tuple of nonnegative exponents, one per variable.
A MonomialOrder turns monomials into sort keys; larger key = larger monomial.
Every order kind ranks the variables in declaration order, the first most
significant.
"""

from __future__ import annotations

from operator import neg

from .errors import InputError


def mono_mul(u: tuple, v: tuple) -> tuple:
    return tuple(a + b for a, b in zip(u, v))


def mono_pow(u: tuple, k: int) -> tuple:
    return tuple(a * k for a in u)


def _lex_key(m: tuple) -> tuple:
    return m


def _grlex_key(m: tuple) -> tuple:
    return (sum(m),) + m


def _grevlex_key(m: tuple) -> tuple:
    # Ties broken by the *smallest* exponent on the last variable, hence the
    # reversed negated tuple.
    return (sum(m),) + tuple(map(neg, reversed(m)))


ORDER_KINDS = ("grevlex", "lex", "grlex")


class MonomialOrder:
    """A total, multiplicative well-order on monomials: grevlex, lex or grlex.

    `key(m)` is its sort key; key(u) > key(v) iff u > v in this order.
    """

    __slots__ = ("kind", "key")

    def __init__(self, kind: str):
        if kind not in ORDER_KINDS:
            raise InputError("unknown monomial order %r" % kind)
        self.kind = kind
        self.key = {"grevlex": _grevlex_key, "lex": _lex_key, "grlex": _grlex_key}[kind]

    def __eq__(self, other) -> bool:
        return isinstance(other, MonomialOrder) and self.kind == other.kind

    def __hash__(self) -> int:
        return hash(("MonomialOrder", self.kind))

    def __repr__(self) -> str:
        return "MonomialOrder(%r)" % self.kind
