"""Ideals with value semantics: sums and Frobenius bracket powers.

Every constructor returns a fresh Ideal; the reduced Groebner basis (with
the ring's relations adjoined) is computed lazily and cached on the ring.
An Ideal tests no membership: reduced bases are canonical, so I contains J
exactly when (I + J).gb() == I.gb().
"""

from __future__ import annotations

from .errors import InputError
from .groebner import GroebnerBasis, groebner_basis
from .poly import require_power_of
from .ring import PresentedRing


class Ideal:
    __slots__ = ("ring", "generators", "_gb")

    def __init__(self, ring: PresentedRing, generators):
        generators = tuple(g for g in generators if not g.is_zero())
        for g in generators:
            if not ring.owns(g):
                raise InputError("generator lives in a different ring")
        self.ring = ring
        self.generators = generators
        self._gb = None

    def gb(self) -> GroebnerBasis:
        if self._gb is None:
            self._gb = groebner_basis(self.ring, self.generators)
        return self._gb

    # -- constructors ---------------------------------------------------------

    def bracket_power(self, q: int) -> "Ideal":
        """The Frobenius power I^[q], generated by q-th powers of the listed
        generators.  Ring relations are never raised to the q."""
        require_power_of(q, self.ring.p)
        if q == 1:
            return self
        return Ideal(self.ring, [g.frobenius(q) for g in self.generators])

    def __add__(self, other) -> "Ideal":
        if not isinstance(other, Ideal) or other.ring != self.ring:
            raise InputError("ideals live in different rings")
        return Ideal(self.ring, self.generators + other.generators)

    def __repr__(self) -> str:
        return "Ideal(%s)" % ", ".join(g.render() for g in self.generators)


def maximal_ideal(ring: PresentedRing) -> Ideal:
    """The ideal of all variables: the maximal ideal at the origin."""
    return Ideal(ring, [ring.var(i) for i in range(ring.nvars)])
