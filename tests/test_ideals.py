import pytest

from hkcalc import Ideal, InputError, maximal_ideal, normal_form
from helpers import poly_of, ring_of


def _ideal(ring, texts):
    return Ideal(ring, [poly_of(ring, t) for t in texts])


def _member(f, I):
    return normal_form(f, I.gb().elements).is_zero()


def _contains(I, J):
    """I contains J: reduced bases are canonical, so I + J has I's basis."""
    return (I + J).gb() == I.gb()


def test_membership_and_containment():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x^2", "y"])
    assert _member(poly_of(ring, "x^2 + 3*y"), I)
    assert _member(poly_of(ring, "x^3*y + y^2"), I)
    assert not _member(ring.var(0), I)
    J = _ideal(ring, ["x^2*y", "y^2"])
    assert _contains(I, J)
    assert not _contains(J, I)


def test_sum():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x"])
    J = _ideal(ring, ["y"])
    assert (I + J).gb() == maximal_ideal(ring).gb()


def test_same_ideal_across_presentations():
    """Reduced Groebner bases are canonical: equal ideals have equal bases."""
    ring = ring_of(5, ("x", "y"))
    a = _ideal(ring, ["x + y", "y"])
    b = _ideal(ring, ["x", "y", "x + 2*y"])
    assert a.gb() == b.gb()
    assert a.gb() != _ideal(ring, ["x"]).gb()


def test_bracket_power_generators():
    ring = ring_of(5, ("x", "y", "z"))
    I = _ideal(ring, ["x + y", "x*z"])
    B = I.bracket_power(5)
    rendered = {g.render() for g in B.generators}
    assert rendered == {"x^5 + y^5", "x^5*z^5"}
    assert I.bracket_power(1) is I
    with pytest.raises(InputError):
        I.bracket_power(10)


def test_bracket_power_composition_mutual_membership():
    """(I^[q1])^[q2] and I^[q1*q2] contain each other's generators."""
    ring = ring_of(5, ("x", "y", "z"))
    I = _ideal(ring, ["x + y", "x*z"])
    left = I.bracket_power(5).bracket_power(25)
    right = I.bracket_power(125)
    assert _contains(left, right)
    assert _contains(right, left)
    assert left.gb() == right.gb()


def test_bracket_power_does_not_raise_relations():
    # The relation xy - z^2 must stay degree 2 inside the bracket power's GB.
    ring = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    B = maximal_ideal(ring).bracket_power(5)
    assert _member(poly_of(ring, "x*y - z^2"), B)
    assert not _member(poly_of(ring, "z^2"), B)


def test_zero_generators_dropped_and_ring_checked():
    ring = ring_of(5, ("x", "y"))
    I = Ideal(ring, [ring.poly(()), ring.var(0)])
    assert len(I.generators) == 1
    with pytest.raises(InputError):
        Ideal(ring, [ring_of(7, ("x", "y")).var(0)])
    with pytest.raises(InputError):
        I + Ideal(ring_of(7, ("x", "y")), [])

