"""The built-in fixture corpus.

Each fixture bundles a session, the checks to run, and expected results
tagged with provenance (PAPER / TRIVIAL / DERIVED).  Randomized fixtures
derive everything from the given seed, so runs are reproducible.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Callable, NamedTuple

from .checks import (
    EHK_TOLERANCE,
    PASS,
    check_flatness,
    check_kunz,
    check_lemma21,
    check_rescaling,
    check_thm23,
    check_thm33,
)
from .errors import InputError
from .hk import ehk_estimate, hk_function
from .ideals import Ideal
from .parser import parse_polynomial, parse_session

SINGULAR_MARGIN = Fraction(1, 5)


class Fixture(NamedTuple):
    """A session and its runner.  run() parses session_text, builds its ring
    once and calls runner(session, ring, seed), which returns a list of
    CheckReports and a list of expectation dicts.  Both hold exact values,
    which the CLI encodes."""

    fixture_id: str
    description: str
    session_text: str
    runner: Callable

    def run(self, seed: int = 42) -> dict:
        session = parse_session(self.session_text)
        checks, expectations = self.runner(session, session.build_ring(), seed)
        passed = all(c.verdict == PASS for c in checks) and all(
            e["ok"] for e in expectations
        )
        return {
            "fixture": self.fixture_id,
            "description": self.description,
            "passed": passed,
            "checks": checks,
            "expectations": expectations,
        }


def _expect(name, provenance, expected, actual, ok=None):
    if ok is None:
        ok = expected == actual
    if isinstance(expected, list):
        # A list prints as its repr, a string, as the seed-42 corpus digest
        # pins it; the CLI would encode it element by element.
        expected, actual = repr(expected), repr(actual)
    return {
        "name": name,
        "provenance": provenance,
        "expected": expected,
        "actual": actual,
        "ok": bool(ok),
    }


# -- regular polynomial rings -------------------------------------------------

_VARS = ("x", "y", "z")


def _regular_session(p, d):
    names = _VARS[:d]
    return "char %d\nvars %s\nideal m = %s\n" % (p, " ".join(names), ", ".join(names))


def _run_regular(session, ring, seed):
    p = ring.p
    d = ring.nvars
    # q caps keep the d=3, p=5 case inside its runtime budget.
    e_top = 2 if (d == 3 and p == 5) else 3
    q_list = [p**e for e in range(1, e_top + 1)]
    checks = [check_kunz(ring, q_list), check_rescaling(ring, 1)]
    report = hk_function(session.ideal("m", ring), e_top)
    ratios = [row.ratio for row in report.rows]
    expectations = [
        _expect(
            "hk_ratios_all_one",
            "PAPER",
            [Fraction(1)] * e_top,
            ratios,
        )
    ]
    return checks, expectations


# -- hypersurface cones xy - z^n ---------------------------------------------


def _cone_session(p, n):
    return (
        "char %d\n"
        "vars x y z\n"
        "mod x*y - z^%d\n"
        "ideal m = x, y, z\n"
        "ideal J = y, z\n"
        "prime P = y, z\n"
        "param f = x\n" % (p, n)
    )


def _run_cone(n):
    def runner(session, ring, seed):
        m = session.ideal("m", ring)
        est = ehk_estimate(m, 3)
        target = Fraction(2 * n - 1, n)
        expectations = [
            _expect(
                "ehk_estimate_near_(2n-1)/n",
                "PAPER",
                target,
                est.estimate,
                ok=abs(est.estimate - target) <= EHK_TOLERANCE,
            ),
            _expect(
                "ehk_estimate_detects_singularity",
                "PAPER",
                "> 1 + 1/5",
                est.estimate,
                ok=est.estimate > 1 + SINGULAR_MARGIN,
            ),
        ]
        prime = session.prime("P", ring)
        x = session.param("f", ring)
        p = ring.p
        checks = [
            check_thm23(session.ideal("J", ring), x, [prime], 3),
            check_thm33(prime, x, [p, p * p]),
            check_rescaling(ring, 1),
        ]
        return checks, expectations

    return runner


# -- the thm33 check on a regular ambient ring --------------------------------

_THM33_REGULAR_SESSION = (
    "char 5\nvars x y z\nideal m = x, y, z\nprime P = y, z\nparam f = x\n"
)


def _run_thm33_regular(session, ring, seed):
    prime = session.prime("P", ring)
    x = session.param("f", ring)
    report = check_thm33(prime, x, [5, 25])
    expectations = [
        _expect("equality_both_sides_q3_at_q5", "TRIVIAL", 125, report.quantities["lhs_q5"]),
        _expect("equality_both_sides_q3_at_q25", "TRIVIAL", 15625, report.quantities["lhs_q25"]),
    ]
    return [report], expectations


# -- randomized families ------------------------------------------------------

_F5XY_SESSION = "char 5\nvars x y\nideal m = x, y\n"


def _random_monomial_mprimary(ring, rng):
    """A random m-primary monomial ideal in two variables."""
    a = rng.randint(1, 6)
    b = rng.randint(1, 6)
    gens = [ring.var(0, a), ring.var(1, b)]
    for _ in range(rng.randint(0, 2)):
        i = rng.randint(1, max(1, a - 1))
        j = rng.randint(1, max(1, b - 1))
        gens.append(ring.poly((((i, j), 1),)))
    return Ideal(ring, gens)


def _run_lemma21_random(session, ring, seed):
    rng = random.Random(seed)
    checks = []
    for _ in range(100):
        I = _random_monomial_mprimary(ring, rng)
        # An exact compare: random() is k/2^53, and no such value lies
        # between 1/10 and the double nearest it, so the draws are unchanged.
        if rng.random() < Fraction(1, 10):
            J = Ideal(ring, [ring.one()])  # J = R is allowed
        else:
            extra = []
            for _ in range(rng.randint(0, 2)):
                extra.append(ring.poly((((rng.randint(0, 3), rng.randint(0, 3)), 1),)))
            J = Ideal(ring, I.generators + tuple(extra))
        checks.append(check_lemma21(I, J, [5, 25]))
    return checks, []


_NONMONOMIAL_GENS = (
    ("x^2 + y^2", "x*y"),
    ("x^2 + x*y", "y^2"),
    ("x^3", "y^3 + x^2*y"),
    ("x^2 + 2*y^2", "x^2*y"),
    # (x+y)^2 and (x-y)^3: m-primary since x+y, x-y generate m for p = 5.
    ("x^2 + 2*x*y + y^2", "x^3 + 2*x^2*y + 3*x*y^2 + 4*y^3"),
)


def _run_flatness_random(session, ring, seed):
    rng = random.Random(seed)
    ideals = [_random_monomial_mprimary(ring, rng) for _ in range(20)]
    for gens in _NONMONOMIAL_GENS:
        ideals.append(Ideal(ring, [parse_polynomial(g, 0, 0, ring) for g in gens]))
    checks = []
    for I in ideals:
        for q in (5, 25):
            checks.append(check_flatness(ring, I, q))
    return checks, []


# -- the corpus ---------------------------------------------------------------


def corpus():
    fixtures = []
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            fixtures.append(
                Fixture(
                    fixture_id="regular-%dd-p%d" % (d, p),
                    description="polynomial ring F_%d in %d variables: Kunz equality" % (p, d),
                    session_text=_regular_session(p, d),
                    runner=_run_regular,
                )
            )
    # Odd p only: in characteristic 2 the quadric has a non-isolated singular
    # locus and would not model the intended example.
    for (n, p) in ((2, 5), (2, 7), (3, 5)):
        kind = "quadric" if n == 2 else "cubic"
        fixtures.append(
            Fixture(
                fixture_id="%s-cone-p%d" % (kind, p),
                description="k[x,y,z]/(xy - z^%d) over F_%d: HK multiplicity (2n-1)/n" % (n, p),
                session_text=_cone_session(p, n),
                runner=_run_cone(n),
            )
        )
    fixtures.append(
        Fixture(
            fixture_id="thm33-regular-p5",
            description="localized Frobenius colength bound on F_5[x,y,z], P = (y,z)",
            session_text=_THM33_REGULAR_SESSION,
            runner=_run_thm33_regular,
        )
    )
    fixtures.append(
        Fixture(
            fixture_id="lemma21-random-p5",
            description="100 seeded random pairs I in J of m-primary monomial ideals",
            session_text=_F5XY_SESSION,
            runner=_run_lemma21_random,
        )
    )
    fixtures.append(
        Fixture(
            fixture_id="flatness-random-p5",
            description="flatness identity on 20 random monomial + 5 non-monomial ideals",
            session_text=_F5XY_SESSION,
            runner=_run_flatness_random,
        )
    )
    return fixtures


def fixture_by_id(fixture_id: str) -> Fixture:
    for f in corpus():
        if f.fixture_id == fixture_id:
            return f
    raise InputError("unknown fixture %r" % fixture_id)
