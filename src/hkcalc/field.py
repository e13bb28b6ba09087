"""The characteristic of F_p: a word-sized prime, checked here by trial
division.

Elements of F_p are plain ints in [0, p), and the PolynomialRing holds p
as an int; this module only decides which p are admitted.
"""

from __future__ import annotations

from .errors import InputError


def is_prime(n: int) -> bool:
    """Primality by trial division: by 2, then by each odd d with d*d <= n."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def characteristic(p) -> int:
    """p itself, once it is checked to be a prime with 2 <= p < 2^31."""
    if not isinstance(p, int) or not (2 <= p < 2**31):
        raise InputError("characteristic must be an integer with 2 <= p < 2^31")
    if not is_prime(p):
        raise InputError("characteristic must be prime, got %d" % p)
    return p
