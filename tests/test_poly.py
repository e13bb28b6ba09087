import random

import pytest

from hkcalc import (
    Ideal,
    InputError,
    Polynomial,
    PresentedRing,
    groebner_basis,
    normal_form,
)
from hkcalc.poly import is_power_of
from helpers import poly_of, random_poly, ring_of, s_poly


def test_term_normalization():
    ring = ring_of(5, ("x", "y"))
    f = ring.poly((((1, 0), 3), ((1, 0), 2), ((0, 1), 7)))  # 3x + 2x + 7y = 2y
    assert f.terms == (((0, 1), 2),)
    assert ring.poly((((0, 0), 5),)).is_zero()


def test_leading_data_and_degree():
    ring = ring_of(5, ("x", "y", "z"))
    f = poly_of(ring, "x*y + z^3 + 2")
    assert f.lm == (0, 0, 3)  # grevlex: degree 3 beats degree 2
    assert f.terms[0][1] == 1
    assert f.degree() == 3
    assert not f.is_homogeneous()
    assert poly_of(ring, "x^2 + y*z").is_homogeneous()
    assert ring.poly(()).degree() == -1
    with pytest.raises(InputError):
        ring.poly(()).lm


def test_arithmetic_random_axioms():
    rng = random.Random(11)
    checked = 0
    for p in (2, 5):
        ring = ring_of(p, ("x", "y", "z"))
        for _ in range(120):
            f = random_poly(rng, ring)
            g = random_poly(rng, ring)
            h = random_poly(rng, ring)
            assert (f + g) - g == f
            assert f * g == g * f
            assert (f * g) * h == f * (g * h)
            assert f * (g + h) == f * g + f * h
            assert f + (-f) == ring.poly(())
            checked += 1
    assert checked >= 200


def test_pow_matches_repeated_multiplication():
    rng = random.Random(13)
    ring = ring_of(7, ("x", "y"))
    for _ in range(50):
        f = random_poly(rng, ring, max_terms=3, max_exp=2)
        by_mult = ring.one()
        for k in range(5):
            assert f**k == by_mult
            by_mult = by_mult * f
    with pytest.raises(InputError):
        ring.one() ** (-1)


def test_pow_by_frobenius_digits_matches_repeated_multiplication():
    """f^k by base-p digits equals k plain products, across p^e boundaries."""
    rng = random.Random(19)
    for p, k_max in ((2, 9), (3, 19), (5, 27), (7, 50)):
        ring = ring_of(p, ("x", "y"))
        for _ in range(3):
            f = random_poly(rng, ring, max_terms=3, max_exp=2)
            by_mult = ring.one()
            for k in range(k_max + 1):
                assert f**k == by_mult, (p, k)
                by_mult = by_mult * f
            for e in range(3):
                assert f ** (p**e) == f.frobenius(p**e)


def test_pow_multiplies_out_only_the_digit_powers(monkeypatch):
    """(x+y+z+w+1)^49 over F_7 is one Frobenius scaling of f: two products,
    where squaring to f^49 would expand up to C(52, 4) terms."""
    ring = ring_of(7, ("x", "y", "z", "w"))
    f = poly_of(ring, "x + y + z + w + 1")
    products = []
    multiply = Polynomial.__mul__

    def counting(a, b):
        products.append((a, b))
        return multiply(a, b)

    f49 = poly_of(ring, "x^49 + y^49 + z^49 + w^49 + 1")
    f50 = f49 * f
    monkeypatch.setattr(Polynomial, "__mul__", counting)
    assert f**49 == f49
    assert len(products) <= 2
    products.clear()
    assert f**50 == f50
    assert len(products) <= 4


def test_frobenius_matches_power_oracle():
    """f^q by exponent scaling agrees with repeated squaring, and is additive."""
    rng = random.Random(17)
    for p in (2, 3, 5):
        ring = ring_of(p, ("x", "y"))
        pairs = 0
        for _ in range(200):
            f = random_poly(rng, ring, max_terms=3, max_exp=3)
            g = random_poly(rng, ring, max_terms=3, max_exp=3)
            for q in (p, p * p):
                assert f.frobenius(q) == f**q
                assert (f + g).frobenius(q) == f.frobenius(q) + g.frobenius(q)
            pairs += 1
        assert pairs >= 200


def test_frobenius_rejects_non_powers():
    ring = ring_of(5, ("x",))
    f = ring.var(0)
    assert f.frobenius(1) == f
    for bad in (2, 10, 24):
        with pytest.raises(InputError):
            f.frobenius(bad)
    assert is_power_of(125, 5) and not is_power_of(50, 5) and not is_power_of(0, 5)


def test_var_rejects_out_of_range_index():
    ring = ring_of(5, ("x", "y"))
    assert ring.var(0, 0) == ring.one()
    assert ring.var(1, 3) == poly_of(ring, "y^3") == ring.var("y", 3)
    for bad in (2, 5, -1):
        with pytest.raises(InputError):
            ring.var(bad)
    with pytest.raises(InputError):
        ring.var("z")


def test_cross_ring_operations_rejected():
    a = ring_of(5, ("x", "y"))
    b = ring_of(7, ("x", "y"))
    with pytest.raises(InputError):
        a.var(0) + b.var(0)
    c = ring_of(5, ("x", "y"), kind="lex")
    with pytest.raises(InputError):
        a.var(0) * c.var(0)


def test_rings_differing_only_in_names_do_not_mix():
    xy = ring_of(5, ("x", "y"))
    ab = ring_of(5, ("a", "b"))
    with pytest.raises(InputError):
        xy.var(0) + ab.var(0)
    assert xy.var(0) != ab.var(0)
    with pytest.raises(InputError):
        groebner_basis(xy, [ab.var(0)])
    with pytest.raises(InputError):
        Ideal(xy, [ab.var(1)])
    with pytest.raises(InputError):
        PresentedRing(ab.ambient, [poly_of(xy, "x*y")])


def test_rings_differing_only_in_relations_mix():
    free = ring_of(5, ("x", "y", "z"))
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    assert free.var(0) + cone.var(1) == poly_of(cone, "x + y")
    assert cone.relations[0].ring is cone.ambient
    assert free.ambient == cone.ambient


def test_repr_uses_ring_names():
    ring = ring_of(7, ("u", "v"))
    assert repr(poly_of(ring, "3*u^2*v + 1")) == "Poly(3*u^2*v + 1 mod 7)"


def test_render_roundtrip():
    ring = ring_of(5, ("x", "y", "z"))
    for text in ("x^2*y + 4*z", "x + y + z + 1", "2", "z^10"):
        f = poly_of(ring, text)
        assert poly_of(ring, f.render()) == f
    assert ring.poly(()).render() == "0"


def test_constructor_rejects_bad_arity():
    ring = ring_of(5, ("x", "y"))
    with pytest.raises(InputError):
        Polynomial(ring, (((1, 2, 3), 1),))


def test_constructor_rejects_negative_exponents():
    ring = ring_of(5, ("x", "y"))
    with pytest.raises(InputError):
        ring.var(0, -1)
    with pytest.raises(InputError):
        ring.poly([((-2, 1), 3)])
    assert ring.var(0, 0) == ring.one()


def _assert_canonical(h):
    """h.terms is what the checking constructor makes of them."""
    assert isinstance(h.terms, tuple)
    assert Polynomial(h.ring, h.terms).terms == h.terms


def test_kernel_results_are_canonical():
    """normal_form, by a list or by a reduced basis, and frobenius build their
    results without the checking constructor; each must still be strictly
    descending in the ring's order, with coefficients in 1..p-1.  The
    S-polynomials reduced here are built by Polynomial arithmetic."""
    rng = random.Random(23)
    for kind in ("grevlex", "grlex", "lex"):
        for p in (2, 3, 7):
            ring = ring_of(p, ("x", "y", "z"), kind)
            for _ in range(40):
                basis = [random_poly(rng, ring, max_terms=3, max_exp=2) for _ in range(2)]
                basis = [g for g in basis if not g.is_zero()]
                f = random_poly(rng, ring, max_terms=6, max_exp=4)
                _assert_canonical(normal_form(f, basis))
                gb = groebner_basis(ring, basis)
                _assert_canonical(normal_form(f, gb.elements))
                if len(basis) == 2:
                    _assert_canonical(normal_form(s_poly(*basis), basis))
                for q in (1, p, p * p):
                    _assert_canonical(f.frobenius(q))
