"""Hilbert-Kunz functions, multiplicity estimation, and localized Frobenius
colengths via the associativity ratio.

All ratios and estimates are exact rationals; no floating point enters the
core.  Display rounding, if any, is the CLI's business.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import AssociativityRatioError, InputError
from .ideals import Ideal
from .lengths import dimension, hilbert_samuel, is_finite, local_colength
from .poly import Polynomial


class HKRow(NamedTuple):
    e: int
    q: int
    colength: int
    ratio: Fraction  # colength / q^d, exact


class HKReport(NamedTuple):
    d: int
    rows: tuple


def hk_function(I: Ideal, e_max: int) -> HKReport:
    """Rows (e, q, lambda(R/I^[q]), lambda/q^d) for e = 1..e_max.

    d is the dimension of the local ring at the origin, so the ratios
    converge to the Hilbert-Kunz multiplicity of I; ehk_estimate is the one
    estimate of it.  I^[q] and I have the same radical, so a row's colength
    is finite exactly when lambda(R/I) is, and the rows are the m-primary
    test.
    """
    if e_max < 1:
        raise InputError("e_max must be at least 1")
    ring = I.ring
    d = dimension(Ideal(ring, ()))
    p = ring.p
    rows = []
    for e in range(1, e_max + 1):
        q = p**e
        c = local_colength(I.bracket_power(q))
        if not is_finite(c):
            raise InputError("the ideal is not m-primary: infinite colength")
        rows.append(HKRow(e=e, q=q, colength=c, ratio=Fraction(c, q**d)))
    return HKReport(d=d, rows=tuple(rows))


class EHKEstimate(NamedTuple):
    estimate: Fraction
    last_ratio: Fraction
    gap: Fraction  # |estimate - last ratio|, a convergence diagnostic
    report: HKReport


def ehk_estimate(I: Ideal, e_max: int) -> EHKEstimate:
    """The Hilbert-Kunz multiplicity estimate.

    Fits lambda(q) = a*q^d + b*q^(d-1) through the last two rows and reports
    a, together with the raw last ratio and their gap.  Rows with a constant
    ratio r give a = r and gap 0.  No convergence claim is made beyond the
    computed data.
    """
    if e_max < 2:
        raise InputError("ehk_estimate needs e_max >= 2")
    report = hk_function(I, e_max)
    d = report.d
    r1, r2 = report.rows[-2], report.rows[-1]
    # Fraction powers stay exact when d = 0 makes d - 1 negative.
    q1, q2 = Fraction(r1.q), Fraction(r2.q)
    denom = q2**d * q1 ** (d - 1) - q1**d * q2 ** (d - 1)
    a = (r2.colength * q1 ** (d - 1) - r1.colength * q2 ** (d - 1)) / denom
    return EHKEstimate(estimate=a, last_ratio=r2.ratio, gap=abs(a - r2.ratio), report=report)


def localized_frobenius_colength(P: Ideal, q: int, x: Polynomial) -> int:
    """lambda over the localization at P of R/P^[q], for a declared prime P
    with dim(R/P) = 1.

    Computed as the exact quotient e(x; R/P^[q]) / e(x; R/P); the division is
    exact when P really is the unique minimal prime over P^[q], and a failure
    to divide is reported as such.
    """
    denominator = hilbert_samuel(x, P).value
    numerator = hilbert_samuel(x, P.bracket_power(q)).value
    if numerator % denominator != 0:
        raise AssociativityRatioError(
            "associativity ratio failure: e(x; R/P^[%d]) = %d is not divisible "
            "by e(x; R/P) = %d (is P really prime?)" % (q, numerator, denominator)
        )
    return numerator // denominator
