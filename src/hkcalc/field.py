"""Arithmetic in the prime field F_p for word-sized p."""

from __future__ import annotations

from .errors import InputError

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test, valid for all n < 3_215_031_751."""
    if n < 2:
        return False
    for sp in _SMALL_PRIMES:
        if n % sp == 0:
            return n == sp
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    # Miller-Rabin with bases 2,3,5,7 is exact below 3,215,031,751 > 2^31.
    for a in (2, 3, 5, 7):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p with canonical representatives in [0, p).

    Elements are plain Python ints; this object is the arithmetic context.
    """

    __slots__ = ("p",)

    def __init__(self, p: int):
        if not isinstance(p, int) or not (2 <= p < 2**31):
            raise InputError("characteristic must be an integer with 2 <= p < 2^31")
        if not is_prime(p):
            raise InputError("characteristic must be prime, got %d" % p)
        self.p = p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise InputError("division by zero in F_%d" % self.p)
        return pow(a, -1, self.p)

    def __eq__(self, other) -> bool:
        return isinstance(other, PrimeField) and self.p == other.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return "PrimeField(%d)" % self.p
