import json
from fractions import Fraction

import pytest

import hkcalc.checks
from hkcalc import (
    CheckReport,
    Ideal,
    InputError,
    check_flatness,
    check_kunz,
    check_lemma21,
    check_rescaling,
    check_thm23,
    check_thm33,
    hilbert_samuel,
    quotient_length,
)
from hkcalc import cli
from hkcalc.checks import EHK_TOLERANCE
from hkcalc.fixtures import fixture_by_id
from hkcalc.hk import EHKEstimate
from helpers import poly_of, ring_of


def _ideal(ring, texts):
    return Ideal(ring, [poly_of(ring, t) for t in texts])


def test_pinned_tolerance():
    assert EHK_TOLERANCE == Fraction(1, 20)


def test_kunz_regular_equality():
    ring = ring_of(3, ("x", "y"))
    report = check_kunz(ring, [3, 9, 27])
    assert report.verdict == "PASS"
    assert report.quantities["equality_all_q"] is True
    assert report.quantities["lambda_q9"] == 81
    assert "regularity signal" in report.detail


def test_kunz_singular_strict():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    report = check_kunz(cone, [5, 25])
    assert report.verdict == "PASS"
    assert report.quantities["equality_all_q"] is False
    assert report.quantities["lambda_q5"] == 37
    assert report.quantities["q5_pow_d"] == 25
    assert "singularity signal" in report.detail


def test_kunz_rejects_non_power_q():
    with pytest.raises(InputError):
        check_kunz(ring_of(5, ("x",)), [10])


def test_flatness_polynomial_ring():
    ring = ring_of(5, ("x", "y"))
    report = check_flatness(ring, _ideal(ring, ["x^2 + y^2", "x*y"]), 5)
    assert report.verdict == "PASS"
    assert report.quantities["lambda_bracket"] == 25 * report.quantities["lambda_base"]


def test_flatness_inapplicable_cases():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    report = check_flatness(cone, _ideal(cone, ["x", "y", "z"]), 5)
    assert report.verdict == "INAPPLICABLE"
    assert "relations" in report.detail
    ring = ring_of(5, ("x", "y"))
    report = check_flatness(ring, _ideal(ring, ["x"]), 5)
    assert report.verdict == "INAPPLICABLE"
    assert "m-primary" in report.detail


def test_lemma21_quadric_values():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    I = _ideal(cone, ["x^2", "y", "z"])
    J = _ideal(cone, ["x", "y", "z"])
    report = check_lemma21(I, J, [5, 25])
    assert report.verdict == "PASS"
    assert report.quantities["lambda_J_mod_I"] == 1
    assert report.quantities["lhs_q5"] == 62
    assert report.quantities["rhs_q5"] == 74
    assert report.quantities["lhs_q25"] == 1562
    assert report.quantities["rhs_q25"] == 1874


def test_lemma21_with_unit_j():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x^2", "y^3"])
    J = Ideal(ring, [ring.one()])
    report = check_lemma21(I, J, [5])
    assert report.verdict == "PASS"
    assert report.quantities["lambda_J_mod_I"] == 6


def test_lemma21_containment_enforced():
    ring = ring_of(5, ("x", "y"))
    with pytest.raises(InputError):
        check_lemma21(_ideal(ring, ["x"]), _ideal(ring, ["y"]), [5])


def test_lemma21_of_monomial_input_builds_no_basis():
    """Containment is read from local colengths, so monomial I in J builds
    no basis, in quotient_length or in the check."""
    ring = ring_of(5, ("x", "y"))
    I, J = _ideal(ring, ["x^3", "x*y", "y^2"]), _ideal(ring, ["x^2", "y"])
    assert quotient_length(I, J) == 2
    with pytest.raises(InputError, match="contained"):
        quotient_length(J, I)
    report = check_lemma21(I, J, [5])
    assert (report.verdict, report.quantities["lambda_J_mod_I"]) == ("PASS", 2)
    assert ring._bases == {} and ring._homogenizing is None


def test_thm23_quadric():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    J = _ideal(cone, ["y", "z"])
    report = check_thm23(J, cone.var(0), [J], 3)
    assert report.verdict == "PASS"
    assert report.quantities["lambda_R_mod_I"] == 1
    assert report.quantities["ehk_estimate"] == Fraction(4688, 3125)


def test_thm23_inapplicable_on_bad_hypotheses():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    m = _ideal(cone, ["x", "y", "z"])
    report = check_thm23(m, cone.var(0), [], 3)
    assert report.verdict == "INAPPLICABLE"
    assert "dim" in report.detail
    J = _ideal(cone, ["y", "z"])
    report = check_thm23(J, cone.var(0), [m], 3)  # dim(R/m) = 0, not a valid prime
    assert report.verdict == "INAPPLICABLE"
    bad_prime = _ideal(cone, ["x"])  # does not contain J
    report = check_thm23(J, cone.var(0), [bad_prime], 3)
    assert report.verdict == "INAPPLICABLE"
    assert "contain" in report.detail


@pytest.mark.parametrize(
    "j_gens,param",
    [(["x", "y", "z"], "x"), (["y", "z"], "z"), (["y", "z"], "1 + x")],
    ids=["dim-not-one", "not-a-parameter", "unit-at-origin"],
)
def test_thm23_reports_hilbert_samuels_message(j_gens, param):
    """thm23 reports the kernel's own message for each unmet hypothesis."""
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    J, x = _ideal(cone, j_gens), poly_of(cone, param)
    with pytest.raises(InputError) as exc:
        hilbert_samuel(x, J)
    report = check_thm23(J, x, [], 3)
    assert report.verdict == "INAPPLICABLE"
    assert report.detail == "precondition unmet: " + str(exc.value)


def test_thm23_reports_a_declared_prime_that_is_a_unit_at_the_origin():
    """P = (y, z, x - 1) is a unit near the origin, so dimension(P) raises;
    thm23 reports that message as an unmet hypothesis."""
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    J = _ideal(cone, ["y", "z"])
    report = check_thm23(J, cone.var(0), [_ideal(cone, ["y", "z", "x - 1"])], 2)
    assert report.verdict == "INAPPLICABLE"
    assert report.detail == (
        "precondition unmet: empty at the origin: the ideal is a unit in the local ring"
    )


def test_thm33_regular_equality():
    ring = ring_of(5, ("x", "y", "z"))
    report = check_thm33(_ideal(ring, ["y", "z"]), ring.var(0), [5, 25])
    assert report.verdict == "PASS"
    assert report.quantities["lhs_q5"] == 125
    assert report.quantities["rhs_q5"] == 125
    assert report.quantities["lhs_q25"] == 15625


def test_thm33_quadric_strict():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    report = check_thm33(_ideal(cone, ["y", "z"]), cone.var(0), [5, 25])
    assert report.verdict == "PASS"
    q = report.quantities
    assert (q["lhs_q5"], q["rhs_q5"]) == (25, 37)
    assert (q["lhs_q25"], q["rhs_q25"]) == (625, 937)
    assert q["ratio_local_q5"] == Fraction(1)
    assert q["ratio_global_q5"] == Fraction(37, 25)


def test_thm33_inapplicable():
    ring = ring_of(5, ("x", "y", "z"))
    report = check_thm33(_ideal(ring, ["z"]), ring.var(0), [5])
    assert report.verdict == "INAPPLICABLE"
    assert report.detail == "precondition unmet: dim(R/J) != 1"


def test_thm33_non_parameter_inapplicable():
    """z is not a parameter on R/(y, z), so thm33 reports, not raises."""
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    report = check_thm33(_ideal(cone, ["y", "z"]), cone.var(2), [5])
    assert report.verdict == "INAPPLICABLE"
    assert report.detail == "precondition unmet: the given element is not a parameter on R/J"
    with pytest.raises(InputError):
        check_thm33(_ideal(cone, ["y", "z"]), cone.var(2), [6])


def test_rescaling():
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    report = check_rescaling(cone, 1)
    assert report.verdict == "PASS"
    assert report.quantities["lhs"] == report.quantities["rhs"] == 937
    with pytest.raises(InputError):
        check_rescaling(cone, 0)


def _returning(*values):
    """A stand-in that ignores its arguments and returns values in turn."""
    values = iter(values)
    return lambda *args: next(values)


def _run_check(name):
    regular = ring_of(5, ("x", "y", "z"))
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    plane = ring_of(5, ("x", "y"))
    if name == "kunz":
        return check_kunz(plane, [5])
    if name == "flatness":
        return check_flatness(plane, _ideal(plane, ["x", "y"]), 5)
    if name == "lemma21":
        return check_lemma21(_ideal(plane, ["x^2", "y"]), _ideal(plane, ["x", "y"]), [5])
    if name == "thm23":
        J = _ideal(cone, ["y", "z"])
        return check_thm23(J, cone.var(0), [J], 3)
    if name == "thm33":
        return check_thm33(_ideal(regular, ["y", "z"]), regular.var(0), [5])
    return check_rescaling(cone, 1)


ZERO = Fraction(0)


@pytest.mark.parametrize(
    "name, target, values, detail",
    [
        (
            "kunz",
            "local_colength",
            (0,),
            "violated: lambda(R/m^[q]) < q^d at some listed q (see quantities)",
        ),
        ("flatness", "local_colength", (1, 1), "violated equality: 1 != 25"),
        (
            "lemma21",
            "local_colength",
            (10, 0, 0),
            "violated: lhs > rhs at some q (see quantities)",
        ),
        (
            "thm23",
            "ehk_estimate",
            (EHKEstimate(ZERO, ZERO, ZERO, None),),
            "violated: estimate 0 < lambda 1 - 1/20",
        ),
        (
            "thm33",
            "localized_frobenius_colength",
            (125,),
            "violated: q*lambda_P > lambda(R/m^[q]) at some q",
        ),
        ("rescaling", "local_colength", (1, 2), "violated equality: 1 != 2"),
    ],
    ids=["kunz", "flatness", "lemma21", "thm23", "thm33", "rescaling"],
)
def test_each_check_reports_a_violation(monkeypatch, name, target, values, detail):
    """Each check turns a violated claim into FAIL with its own detail: what
    the check reads in hkcalc.checks is replaced by values that break it."""
    monkeypatch.setattr(hkcalc.checks, target, _returning(*values))
    report = _run_check(name)
    assert (report.check, report.verdict, report.detail) == (name, "FAIL", detail)


def test_report_encodes_through_the_cli():
    """A report holds exact values; the CLI's one encoder turns it into the
    JSON object it prints, keys in field order, rationals as string pairs."""
    ring = ring_of(5, ("x", "y", "z"))
    report = check_thm33(_ideal(ring, ["y", "z"]), ring.var(0), [5])
    assert report.quantities["ratio_local_q5"] == Fraction(1)
    payload = cli._jsonable(report)
    assert list(payload) == ["check", "inputs", "quantities", "verdict", "detail"]
    assert payload["quantities"]["ratio_local_q5"] == {"num": "1", "den": "1"}
    assert payload["quantities"]["lhs_q5"] == 125
    assert payload["verdict"] == "PASS"
    assert json.loads(json.dumps(payload)) == payload
    odd = CheckReport("odd", {"q": [5]}, {"r": Fraction(-3, 7), "eq": True}, "FAIL", "")
    assert cli._jsonable(odd)["quantities"] == {"r": {"num": "-3", "den": "7"}, "eq": True}


def test_fixture_results_hold_exact_values():
    result = fixture_by_id("quadric-cone-p5").run(seed=42)
    assert [type(c) for c in result["checks"]] == [CheckReport] * 3
    thm33 = next(c for c in result["checks"] if c.check == "thm33")
    assert thm33.quantities["ratio_global_q5"] == Fraction(37, 25)
    assert isinstance(thm33.quantities["ratio_global_q5"], Fraction)
    near = result["expectations"][0]
    assert near["expected"] == Fraction(3, 2)
    assert isinstance(near["actual"], Fraction)
