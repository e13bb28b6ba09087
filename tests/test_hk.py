from fractions import Fraction

import pytest

import hkcalc.hk
from hkcalc import (
    AssociativityRatioError,
    CertificationError,
    Ideal,
    InputError,
    ehk_estimate,
    hk_function,
    local_colength,
    localized_frobenius_colength,
    maximal_ideal,
)
from hkcalc.fixtures import fixture_by_id
from hkcalc.parser import parse_session
from helpers import poly_of, ring_of
from oracles import cone_frobenius_colength


def _ideal(ring, texts):
    return Ideal(ring, [poly_of(ring, t) for t in texts])


def test_hk_function_regular_ring():
    ring = ring_of(3, ("x", "y"))
    report = hk_function(maximal_ideal(ring), 3)
    assert report.d == 2
    assert [(r.e, r.q, r.colength) for r in report.rows] == [
        (1, 3, 9),
        (2, 9, 81),
        (3, 27, 729),
    ]
    assert all(r.ratio == 1 for r in report.rows)


def test_hk_function_quadric_cone():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    report = hk_function(maximal_ideal(cone), 2)
    assert report.d == 2
    # lambda(R/m^[q]) = (3q^2 - 1)/2 for odd q
    assert [r.colength for r in report.rows] == [37, 937]
    assert report.rows[0].ratio == Fraction(37, 25)


@pytest.mark.parametrize(
    "fixture_id, n", [("quadric-cone-p5", 2), ("quadric-cone-p7", 2), ("cubic-cone-p5", 3)]
)
def test_hk_rows_on_corpus_cones_match_lattice_count(fixture_id, n):
    """Every row the cone fixtures compute, up to e = 3, against the monoid
    ring's lattice count."""
    session = parse_session(fixture_by_id(fixture_id).session_text)
    ring = session.build_ring()
    report = hk_function(session.ideal("m", ring), 3)
    assert [r.colength for r in report.rows] == [
        cone_frobenius_colength(n, r.q) for r in report.rows
    ]


def test_hk_function_rejects_bad_input():
    ring = ring_of(5, ("x", "y"))
    with pytest.raises(InputError):
        hk_function(maximal_ideal(ring), 0)
    with pytest.raises(InputError):
        hk_function(_ideal(ring, ["x"]), 2)  # not m-primary


def test_hk_function_counts_only_its_rows(monkeypatch):
    """One local colength per row; the rows themselves test m-primary."""
    calls = []

    def counting(I):
        calls.append(I)
        return local_colength(I)

    monkeypatch.setattr(hkcalc.hk, "local_colength", counting)
    ring = ring_of(5, ("x", "y"))
    hk_function(_ideal(ring, ["x^2", "y^3"]), 3)
    assert len(calls) == 3
    with pytest.raises(InputError, match="not m-primary"):
        hk_function(_ideal(ring, ["x"]), 2)


def test_ehk_estimate_quadric():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    est = ehk_estimate(maximal_ideal(cone), 3)
    assert est.estimate == Fraction(4688, 3125)
    assert abs(est.estimate - Fraction(3, 2)) <= Fraction(1, 20)
    assert est.gap == abs(est.estimate - est.last_ratio)
    with pytest.raises(InputError):
        ehk_estimate(maximal_ideal(cone), 1)


def test_ehk_estimate_exact_on_regular():
    ring = ring_of(2, ("x", "y", "z"))
    est = ehk_estimate(maximal_ideal(ring), 2)
    assert est.estimate == Fraction(1)
    assert est.gap == 0


def test_ehk_estimate_zero_dimensional_ring():
    """d = 0 makes the fit's q^(d-1) a negative power; it stays exact."""
    ring = ring_of(5, ("x",), relations=("x^2",))
    est = ehk_estimate(maximal_ideal(ring), 2)
    assert est.report.d == 0
    assert (est.estimate, est.gap) == (2, 0)
    assert isinstance(est.estimate, Fraction)


def test_localized_frobenius_colength_regular():
    ring = ring_of(5, ("x", "y", "z"))
    P = _ideal(ring, ["y", "z"])
    x = ring.var(0)
    assert localized_frobenius_colength(P, 1, x) == 1
    assert localized_frobenius_colength(P, 5, x) == 25  # q^2: height-2 prime
    assert localized_frobenius_colength(P, 25, x) == 625


def test_localized_frobenius_colength_quadric():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    P = _ideal(cone, ["y", "z"])
    x = cone.var(0)
    # P^[q] localizes to (z^q): exactly q, not q^2
    assert [localized_frobenius_colength(P, q, x) for q in (1, 5, 25)] == [1, 5, 25]


def test_localized_frobenius_colength_requires_dim_one():
    """The hypotheses are tested at every q, q = 1 included."""
    ring = ring_of(5, ("x", "y", "z"))
    for q in (1, 5):
        with pytest.raises(InputError):
            localized_frobenius_colength(_ideal(ring, ["z"]), q, ring.var(0))


def test_associativity_error_is_certification_error():
    assert issubclass(AssociativityRatioError, CertificationError)
