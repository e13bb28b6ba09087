import pytest

from hkcalc import Ideal, InputError, maximal_ideal
from helpers import poly_of, ring_of


def _ideal(ring, texts):
    return Ideal(ring, [poly_of(ring, t) for t in texts])


def test_membership_and_containment():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x^2", "y"])
    assert I.gb().contains(poly_of(ring, "x^2 + 3*y"))
    assert I.gb().contains(poly_of(ring, "x^3*y + y^2"))
    assert not I.gb().contains(ring.var(0))
    J = _ideal(ring, ["x^2*y", "y^2"])
    assert I.contains_ideal(J)
    assert not J.contains_ideal(I)


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
    assert left.contains_ideal(right)
    assert right.contains_ideal(left)
    assert left.gb() == right.gb()


def test_bracket_power_does_not_raise_relations():
    # The relation xy - z^2 must stay degree 2 inside the bracket power's GB.
    ring = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    B = maximal_ideal(ring).bracket_power(5)
    assert B.gb().contains(poly_of(ring, "x*y - z^2"))
    assert not B.gb().contains(poly_of(ring, "z^2"))


def test_zero_generators_dropped_and_ring_checked():
    ring = ring_of(5, ("x", "y"))
    I = Ideal(ring, [ring.poly(()), ring.var(0)])
    assert len(I.generators) == 1
    with pytest.raises(InputError):
        Ideal(ring, [ring_of(7, ("x", "y")).var(0)])
    with pytest.raises(InputError):
        I + Ideal(ring_of(7, ("x", "y")), [])

