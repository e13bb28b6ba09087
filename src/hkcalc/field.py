"""The characteristic of F_p: a word-sized prime, checked here.

Elements of F_p are plain ints in [0, p), and the PolynomialRing holds p
as an int; this module only decides which p are admitted.
"""

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


def characteristic(p) -> int:
    """p itself, once it is checked to be a prime with 2 <= p < 2^31."""
    if not isinstance(p, int) or not (2 <= p < 2**31):
        raise InputError("characteristic must be an integer with 2 <= p < 2^31")
    if not is_prime(p):
        raise InputError("characteristic must be prime, got %d" % p)
    return p
