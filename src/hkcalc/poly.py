"""Sparse multivariate polynomials over F_p, each belonging to one ring.

A polynomial holds the PolynomialRing it belongs to, F_p[variables] with a
monomial order, which supplies p, the variables and the order.
Relations belong to a PresentedRing, not to its polynomials, so polynomials
of presented rings that differ only in their relations mix.  Terms are
stored as a tuple of (monomial, coefficient) pairs, strictly descending in
the ring's order, so the leading term is terms[0].  Polynomials are
immutable; all operations return new values.

`Polynomial(ring, terms)` accepts any iterable of terms: it checks the
arity and that no exponent is negative, merges like monomials, reduces
mod p, drops zeros and sorts.  `Polynomial._canonical(ring, terms)` skips
all of that, for kernel code whose terms are canonical by construction: a
tuple, strictly descending in the ring's order, every coefficient in
1..p-1, every monomial of the ring's arity.  `Polynomial(ring, f.terms).terms == f.terms` holds for every
polynomial f, however it was built.
"""

from __future__ import annotations

from .errors import InputError, ResourceLimitError
from .orders import mono_mul, mono_pow

# The most term pairs one product may multiply out: about 0.1 s of work,
# and a result of at most as many terms.
PRODUCT_CAP = 10**5


def is_power_of(q: int, p: int) -> bool:
    """True iff q = p^e for some e >= 0."""
    if q < 1:
        return False
    while q % p == 0:
        q //= p
    return q == 1


class Polynomial:
    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        """Build from an iterable of (monomial, coefficient) pairs.

        Coefficients are reduced mod p, like monomials are merged, zero
        terms dropped, and the result sorted descending.  A monomial of the
        wrong arity or with a negative exponent is an InputError.
        """
        acc = {}
        p = ring.p
        nvars = ring.nvars
        for mono, coeff in terms:
            if len(mono) != nvars:
                raise InputError("monomial arity %d != variable count %d" % (len(mono), nvars))
            if mono and min(mono) < 0:
                raise InputError("negative exponent in monomial %r" % (mono,))
            c = (acc.get(mono, 0) + coeff) % p
            if c:
                acc[mono] = c
            elif mono in acc:
                del acc[mono]
        key = ring.order.key
        self.ring = ring
        self.terms = tuple(sorted(acc.items(), key=lambda t: key(t[0]), reverse=True))

    @classmethod
    def _canonical(cls, ring, terms: tuple):
        """Wrap terms already in canonical form (see the module docstring),
        unchecked."""
        f = object.__new__(cls)
        f.ring = ring
        f.terms = terms
        return f

    # -- predicates and accessors ---------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        zero = (0,) * self.ring.nvars
        for mono, c in self.terms:
            if mono == zero:
                return c
        return 0

    @property
    def lm(self):
        """Leading monomial."""
        if not self.terms:
            raise InputError("zero polynomial has no leading term")
        return self.terms[0][0]

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(m) for m, _ in self.terms), default=-1)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m, _ in self.terms}
        return len(degs) <= 1

    def _check(self, other):
        if not isinstance(other, Polynomial) or not self.ring.owns(other):
            raise InputError("operands live in different rings")

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other):
        self._check(other)
        return Polynomial(self.ring, self.terms + other.terms)

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        p = self.ring.p
        return Polynomial(self.ring, tuple((m, p - c) for m, c in self.terms))

    def __mul__(self, other):
        self._check(other)
        if len(self.terms) * len(other.terms) > PRODUCT_CAP:
            raise ResourceLimitError("product cap of %d term pairs exceeded" % PRODUCT_CAP)
        p = self.ring.p
        acc = {}
        for mu, cu in self.terms:
            for mv, cv in other.terms:
                m = mono_mul(mu, mv)
                acc[m] = (acc.get(m, 0) + cu * cv) % p
        return Polynomial(self.ring, acc.items())

    def __pow__(self, k: int):
        """f^k as the product of (f^k_i)^(p^i) over the base-p digits k_i of k.

        The p^i-th power is exponent scaling (see frobenius), so only the
        digit powers, each below p, are multiplied out.
        """
        if k < 0:
            raise InputError("negative polynomial power")
        p = self.ring.p
        result = self.ring.one()
        q = 1
        while k:
            k, digit = divmod(k, p)
            if digit:
                result = result * self._square_and_multiply(digit).frobenius(q)
            q *= p
        return result

    def _square_and_multiply(self, k: int):
        result = self.ring.one()
        base = self
        while True:
            if k & 1:
                result = result * base
            k >>= 1
            if not k:
                return result
            base = base * base

    def frobenius(self, q: int):
        """f^q for q a power of p, by exponent scaling.

        Valid because the q-th power map is additive in characteristic p and
        fixes F_p coefficients (c^p = c).
        """
        p = self.ring.p
        if not is_power_of(q, p):
            raise InputError("%d is not a power of the characteristic %d" % (q, p))
        if q == 1:
            return self
        # Scaling every exponent by q keeps the order of lex, grlex and
        # grevlex, so the terms stay canonical.
        return Polynomial._canonical(self.ring, tuple((mono_pow(m, q), c) for m, c in self.terms))

    # -- equality and display -------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Polynomial)
            and self.ring.owns(other)
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash(self.terms)

    def render(self) -> str:
        """Human-readable form in the ring's variable names; reparseable."""
        if not self.terms:
            return "0"
        names = self.ring.variables
        parts = []
        for mono, coeff in self.terms:
            factors = []
            for i, e in enumerate(mono):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append("%s^%d" % (names[i], e))
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("%d*%s" % (coeff, "*".join(factors)))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return "Poly(%s mod %d)" % (self.render(), self.ring.p)
