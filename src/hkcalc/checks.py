"""Executable verdicts for the numbered claims, on fixtures or user input.

Each check returns a CheckReport with every computed quantity, an exact
PASS/FAIL verdict (tolerances appear only where a limit estimate is
involved, and are printed), or INAPPLICABLE naming the unmet precondition.
Every report is built by one of two functions: _judged gives PASS or FAIL
with the matching detail, _unmet gives INAPPLICABLE with the reason.
A report holds exact values, ints and Fractions; the CLI encodes them as
JSON or CSV.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import InputError
from .hk import ehk_estimate, localized_frobenius_colength
from .ideals import Ideal, maximal_ideal
from .lengths import (
    dimension,
    is_finite,
    local_colength,
    quotient_length,
    require_parameter,
)
from .poly import Polynomial, require_power_of
from .ring import PresentedRing

PASS = "PASS"
FAIL = "FAIL"
INAPPLICABLE = "INAPPLICABLE"

# Absolute tolerance for checks that compare against a limit estimate.
EHK_TOLERANCE = Fraction(1, 20)


class CheckReport(NamedTuple):
    check: str
    inputs: dict
    quantities: dict
    verdict: str
    detail: str


def _judged(check, inputs, quantities, ok, passed, failed) -> CheckReport:
    """PASS with the detail passed when ok, else FAIL with the detail failed."""
    if ok:
        return CheckReport(check, inputs, quantities, PASS, passed)
    return CheckReport(check, inputs, quantities, FAIL, failed)


def _unmet(check, inputs, reason) -> CheckReport:
    """INAPPLICABLE, naming the unmet precondition."""
    return CheckReport(check, inputs, {}, INAPPLICABLE, "precondition unmet: %s" % reason)


def _q_powers(ring: PresentedRing, q_list):
    for q in q_list:
        require_power_of(q, ring.p)
    return list(q_list)


def check_kunz(ring: PresentedRing, q_list) -> CheckReport:
    """lambda(R/m^[q]) >= q^d for every listed q; equality signals regularity."""
    q_list = _q_powers(ring, q_list)
    d = dimension(Ideal(ring, ()))
    m = maximal_ideal(ring)
    quantities = {"d": d}
    ok = True
    all_equal = True
    for q in q_list:
        lam = local_colength(m.bracket_power(q))
        bound = q**d
        quantities["lambda_q%d" % q] = lam
        quantities["q%d_pow_d" % q] = bound
        if lam < bound:
            ok = False
        if lam != bound:
            all_equal = False
    quantities["equality_all_q"] = all_equal
    return _judged(
        "kunz",
        {"ring": repr(ring), "q": [int(q) for q in q_list]},
        quantities,
        ok,
        "lower bound holds at every q; equality throughout (regularity signal)"
        if all_equal
        else "lower bound holds at every q; strict at some q (singularity signal)",
        "violated: lambda(R/m^[q]) < q^d at some listed q (see quantities)",
    )


def check_flatness(ring: PresentedRing, I: Ideal, q: int) -> CheckReport:
    """Exact identity lambda(R/I^[q]) = q^d * lambda(R/I) on a polynomial ring."""
    _q_powers(ring, [q])
    inputs = {"ring": repr(ring), "ideal": repr(I), "q": int(q)}
    if ring.relations:
        return _unmet("flatness", inputs, "the ring has relations (not the regular model)")
    lam = local_colength(I)
    if not is_finite(lam):
        return _unmet("flatness", inputs, "the ideal is not m-primary")
    d = ring.nvars
    lhs = local_colength(I.bracket_power(q))
    rhs = q**d * lam
    quantities = {
        "lambda_base": lam,
        "lambda_bracket": lhs,
        "q_pow_d_times_lambda": rhs,
        "d": d,
    }
    return _judged(
        "flatness",
        inputs,
        quantities,
        lhs == rhs,
        "exact equality %d = %d" % (lhs, rhs),
        "violated equality: %d != %d" % (lhs, rhs),
    )


def check_lemma21(I: Ideal, J: Ideal, q_list) -> CheckReport:
    """lambda(R/I^[q]) <= lambda(J/I)*lambda(R/m^[q]) + lambda(R/J^[q])."""
    ring = I.ring
    q_list = _q_powers(ring, q_list)
    s = quotient_length(I, J)  # raises on containment failure
    m = maximal_ideal(ring)
    quantities = {"lambda_J_mod_I": s}
    ok = True
    for q in q_list:
        lhs = local_colength(I.bracket_power(q))
        lam_m = local_colength(m.bracket_power(q))
        lam_j = local_colength(J.bracket_power(q))
        rhs = s * lam_m + lam_j
        quantities["lhs_q%d" % q] = lhs
        quantities["rhs_q%d" % q] = rhs
        if not (lhs <= rhs):
            ok = False
    return _judged(
        "lemma21",
        {"ring": repr(ring), "ideal_i": repr(I), "ideal_j": repr(J), "q": [int(q) for q in q_list]},
        quantities,
        ok,
        "inequality holds at every listed q",
        "violated: lhs > rhs at some q (see quantities)",
    )


def check_thm23(J: Ideal, x: Polynomial, minimal_primes, e_max: int) -> CheckReport:
    """e_HK(J + (x)) >= lambda(R/(J, x)) up to EHK_TOLERANCE.

    INAPPLICABLE, with the kernel's message, unless x is a parameter on the
    one-dimensional R/J and each declared minimal prime P contains J and
    has dim(R/P) = 1 at the origin.
    """
    ring = J.ring
    inputs = {
        "ring": repr(ring),
        "ideal_j": repr(J),
        "param": x.render(),
        "primes": [repr(P) for P in minimal_primes],
        "e_max": e_max,
        "tolerance": str(EHK_TOLERANCE),
    }
    I = J + Ideal(ring, [x])
    try:
        require_parameter(x, J)
        for P in minimal_primes:
            if (P + J).gb() != P.gb():  # reduced bases are canonical
                raise InputError("a declared minimal prime does not contain J")
            if dimension(P) != 1:
                raise InputError("a declared minimal prime has dim(R/P) != 1")
    except InputError as exc:
        return _unmet("thm23", inputs, exc)
    # Regularity of R_P and primality itself are fixture declarations; the
    # non-zerodivisor hypothesis is only checked at the parameter level.
    est = ehk_estimate(I, e_max)
    lam = local_colength(I)
    quantities = {
        "ehk_estimate": est.estimate,
        "last_ratio": est.last_ratio,
        "estimate_gap": est.gap,
        "lambda_R_mod_I": lam,
    }
    return _judged(
        "thm23",
        inputs,
        quantities,
        est.estimate >= lam - EHK_TOLERANCE,
        "estimate %s >= lambda %d - %s" % (est.estimate, lam, EHK_TOLERANCE),
        "violated: estimate %s < lambda %d - %s" % (est.estimate, lam, EHK_TOLERANCE),
    )


def check_thm33(P: Ideal, x: Polynomial, q_list) -> CheckReport:
    """q * lambda_{R_P}((R/P^[q])_P) <= lambda(R/m^[q]) for each listed q.

    t = dim(R/P) is restricted to 1 (the base case of the induction).
    INAPPLICABLE, with the kernel's message, unless x is a parameter on the
    one-dimensional R/P.
    """
    ring = P.ring
    q_list = _q_powers(ring, q_list)
    inputs = {
        "ring": repr(ring),
        "prime": repr(P),
        "param": x.render(),
        "q": [int(q) for q in q_list],
    }
    try:
        require_parameter(x, P)
    except InputError as exc:
        return _unmet("thm33", inputs, exc)
    d = dimension(Ideal(ring, ()))
    m = maximal_ideal(ring)
    quantities = {"d": d, "t": 1}
    ok = True
    for q in q_list:
        lfc = localized_frobenius_colength(P, q, x)
        rhs = local_colength(m.bracket_power(q))
        lhs = q * lfc
        quantities["localized_colength_q%d" % q] = lfc
        quantities["lhs_q%d" % q] = lhs
        quantities["rhs_q%d" % q] = rhs
        # e_HK signal pair: localized ratio vs global ratio at this q.
        quantities["ratio_local_q%d" % q] = Fraction(lfc, q ** (d - 1))
        quantities["ratio_global_q%d" % q] = Fraction(rhs, q**d)
        if not (lhs <= rhs):
            ok = False
    return _judged(
        "thm33",
        inputs,
        quantities,
        ok,
        "semicontinuity bound holds at every listed q",
        "violated: q*lambda_P > lambda(R/m^[q]) at some q",
    )


def check_rescaling(ring: PresentedRing, e: int) -> CheckReport:
    """Bracket-power composition: lambda((m^[p])^[p^e]) = lambda(m^[p^(e+1)])."""
    if e < 1:
        raise InputError("rescaling check needs e >= 1")
    p = ring.p
    m = maximal_ideal(ring)
    lhs = local_colength(m.bracket_power(p).bracket_power(p**e))
    rhs = local_colength(m.bracket_power(p ** (e + 1)))
    quantities = {"lhs": lhs, "rhs": rhs, "p": p, "e": e}
    return _judged(
        "rescaling",
        {"ring": repr(ring), "e": e},
        quantities,
        lhs == rhs,
        "exact equality %s = %s" % (lhs, rhs),
        "violated equality: %s != %s" % (lhs, rhs),
    )
