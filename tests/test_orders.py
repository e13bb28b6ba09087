import random

import pytest

from hkcalc import InputError, MonomialOrder
from hkcalc.orders import mono_mul, mono_pow


def test_mono_helpers():
    u, v = (2, 0, 3), (1, 1, 0)
    assert mono_mul(u, v) == (3, 1, 3)
    assert mono_pow(u, 5) == (10, 0, 15)


def test_known_comparisons_grevlex():
    order = MonomialOrder("grevlex")
    # x > y > z; within degree 2: x^2 > xy > y^2 > xz > yz > z^2
    chain = [(2, 0, 0), (1, 1, 0), (0, 2, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    for a, b in zip(chain, chain[1:]):
        assert order.key(a) > order.key(b), (a, b)


def test_known_comparisons_lex_grlex():
    lex = MonomialOrder("lex")
    assert lex.key((1, 0)) > lex.key((0, 5))  # x > y^5 in lex
    grlex = MonomialOrder("grlex")
    assert grlex.key((0, 5)) > grlex.key((1, 0))  # degree first
    assert grlex.key((3, 2)) > grlex.key((2, 3))  # ties broken left-to-right


def test_unknown_kind_rejected():
    with pytest.raises(InputError):
        MonomialOrder("weird")


def _random_mono(rng, n, max_exp=6):
    return tuple(rng.randint(0, max_exp) for _ in range(n))


def test_random_order_axioms():
    """Totality, compatibility with multiplication, and 1 as least element."""
    rng = random.Random(2024)
    cases = 0
    for kind in ("grevlex", "lex", "grlex"):
        for n in (1, 2, 3, 4):
            order = MonomialOrder(kind)
            one = (0,) * n
            for _ in range(100):
                u = _random_mono(rng, n)
                v = _random_mono(rng, n)
                w = _random_mono(rng, n)
                ku, kv = order.key(u), order.key(v)
                # totality: exactly one of <, ==, > holds
                assert (ku > kv) + (ku < kv) + (ku == kv) == 1
                if ku == kv:
                    assert u == v
                # multiplicative: u > v implies uw > vw
                if ku > kv:
                    assert order.key(mono_mul(u, w)) > order.key(mono_mul(v, w))
                # well-order: 1 is the unique minimum
                if u != one:
                    assert order.key(u) > order.key(one)
                cases += 1
    assert cases >= 1000
