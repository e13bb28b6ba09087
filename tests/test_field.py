import random

import pytest

from hkcalc import InputError, PrimeField
from hkcalc.field import is_prime


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
    for bad in (0, 1, 4, 6, 9, 100, -5, 2**31):
        with pytest.raises(InputError):
            PrimeField(bad)
    with pytest.raises(InputError):
        PrimeField("5")


def test_arithmetic_random():
    rng = random.Random(7)
    for p in (2, 3, 5, 7, 101, 32749):
        field = PrimeField(p)
        for _ in range(200):
            a = rng.randrange(p)
            b = rng.randrange(p)
            if a:
                assert a * field.inv(a) % p == 1


def test_inverse_of_zero_rejected():
    field = PrimeField(5)
    with pytest.raises(InputError):
        field.inv(0)
    with pytest.raises(InputError):
        field.inv(10)  # 10 = 0 mod 5


def test_equality_and_repr():
    assert PrimeField(5) == PrimeField(5)
    assert PrimeField(5) != PrimeField(7)
    assert repr(PrimeField(5)) == "PrimeField(5)"
