import random

import pytest

from hkcalc import InputError, MonomialOrder, PolynomialRing
from hkcalc.field import characteristic, is_prime
from hkcalc.groebner import _Reducers
from helpers import polynomial_ring_of


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
    for n in range(-3, 42):
        assert is_prime(n) == (n in primes), n


def test_is_prime_large():
    assert is_prime(2**31 - 1)  # Mersenne prime
    assert not is_prime(2**31 - 3)
    assert not is_prime(1_000_000_001)
    assert is_prime(1_000_000_007)


def test_constructor_rejects_bad_characteristic():
    for bad in (0, 1, 4, 6, 9, 100, -5, 2**31, "5"):
        with pytest.raises(InputError):
            characteristic(bad)
        with pytest.raises(InputError):
            PolynomialRing(bad, ("x",), MonomialOrder("grevlex"))
    assert characteristic(2**31 - 1) == 2**31 - 1


def test_arithmetic_random():
    """A reducer is its polynomial divided by the leading coefficient's
    inverse mod p."""
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 101, 32749):
        ring = polynomial_ring_of(p, ("x",))
        for _ in range(200):
            a = rng.randrange(1, p)
            f = ring.poly([((1,), a), ((0,), rng.randrange(p))])
            (h,) = _Reducers(ring, [f]).polys
            h = h.polynomial()
            assert h.terms[0][1] == 1 and h * ring.constant(a) == f


def test_equality_and_repr():
    assert polynomial_ring_of(5, "x") == polynomial_ring_of(5, "x")
    assert polynomial_ring_of(5, "x") != polynomial_ring_of(7, "x")
    assert polynomial_ring_of(5, "x").p == 5
    assert repr(polynomial_ring_of(5, "xy")) == "F_5[x,y]"
