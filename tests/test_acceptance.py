"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Frozen expected values were derived by hand and confirmed with the
independent oracles in oracles.py before being pinned here.  Tolerances are
exact rationals: 1/20 for the limit-estimate comparisons and a 1/5 margin
for singularity detection.
"""

import functools
import random
from fractions import Fraction

from hkcalc import (
    Ideal,
    check_flatness,
    check_lemma21,
    colength,
    ehk_estimate,
    hilbert_samuel,
    local_colength,
    maximal_ideal,
)
from hkcalc.fixtures import _random_monomial_mprimary
from helpers import poly_of, ring_of
from oracles import homogeneous_colength_dense, homogeneous_colength_sparse

EST_TOL = Fraction(1, 20)
SINGULAR_MARGIN = Fraction(1, 5)


def _report(name, ok):
    print("[ACCEPTANCE] %s: %s" % (name, "PASS" if ok else "FAIL"))
    assert ok, name


@functools.lru_cache(maxsize=None)
def _cone(p, n, kind="grevlex"):
    # Shared across tests so that each cone's bases are computed once.
    return ring_of(p, ("x", "y", "z"), kind=kind, relations=("x*y - z^%d" % n,))


def _m_cubed(kind):
    ring = ring_of(5, ("x", "y"), kind=kind)
    return Ideal(ring, [poly_of(ring, t) for t in ("x^3", "x^2*y", "x*y^2", "y^3")])


def _cone_oracle(p, n, q):
    # xy and z^n share a weighted degree under weights (n, n, 2): both 2n.
    weights = (n, n, 2)
    gens = [(q, 0, 0), (0, q, 0), (0, 0, q)]
    rel = [((1, 1, 0), 1), ((0, 0, n), (-1) % p)]
    return homogeneous_colength_sparse(p, 3, gens, [rel], weights=weights)


def test_acceptance_1_kunz_equality_on_regular_rings():
    ok = True
    for p in (2, 3, 5):
        for d in (1, 2, 3):
            ring = ring_of(p, ("x", "y", "z")[:d])
            e_top = 2 if (d == 3 and p == 5) else 3
            m = maximal_ideal(ring)
            for e in range(1, e_top + 1):
                q = p**e
                ok = ok and local_colength(m.bracket_power(q)) == q**d
    _report("1 kunz equality, regular rings, exact", ok)


def test_acceptance_2_flatness_identity():
    ring = ring_of(5, ("x", "y"))
    rng = random.Random(42)
    ideals = [_random_monomial_mprimary(ring, rng) for _ in range(20)]
    for gens in (
        ("x^2 + y^2", "x*y"),
        ("x^2 + x*y", "y^2"),
        ("x^3", "y^3 + x^2*y"),
        ("x^2 + 2*y^2", "x^2*y"),
        ("x^2 + 2*x*y + y^2", "x^3 + 2*x^2*y + 3*x*y^2 + 4*y^3"),
    ):
        ideals.append(Ideal(ring, [poly_of(ring, g) for g in gens]))
    ok = True
    for I in ideals:
        for q in (5, 25):
            report = check_flatness(ring, I, q)
            ok = ok and report.verdict == "PASS"
    _report("2 flatness identity, 25 ideals x q in {5,25}, exact", ok)


def test_acceptance_3_cone_multiplicity_estimates():
    ok = True
    for n, p in ((2, 5), (2, 7), (3, 5)):
        cone = _cone(p, n)
        m = maximal_ideal(cone)
        est = ehk_estimate(m, 3)
        target = Fraction(2 * n - 1, n)
        ok = ok and abs(est.estimate - target) <= EST_TOL
        ok = ok and est.estimate > 1 + SINGULAR_MARGIN
        # pre-validate the e <= 2 rows against the independent oracle
        for row in est.report.rows[:2]:
            ok = ok and row.colength == _cone_oracle(p, n, row.q)
    _report("3 cone e_HK near (2n-1)/n, oracle-validated rows, tol 1/20", ok)


def test_acceptance_4_colength_inequality_random_pairs():
    ring = ring_of(5, ("x", "y"))
    rng = random.Random(42)
    ok = True
    cases = 0
    for _ in range(100):
        I = _random_monomial_mprimary(ring, rng)
        if rng.random() < 0.1:
            J = Ideal(ring, [ring.one()])
        else:
            extra = [
                ring.poly((((rng.randint(0, 3), rng.randint(0, 3)), 1),))
                for _ in range(rng.randint(0, 2))
            ]
            J = Ideal(ring, I.generators + tuple(extra))
        ok = ok and check_lemma21(I, J, [5, 25]).verdict == "PASS"
        cases += 1
    _report("4 colength inequality, %d random pairs, exact" % cases, ok)


def test_acceptance_5_multiplicity_lower_bound():
    ok = True
    for n, p in ((2, 5), (2, 7), (3, 5)):
        cone = _cone(p, n)
        I = Ideal(cone, [cone.var(1), cone.var(2), cone.var(0)])  # (y, z) + (x)
        est = ehk_estimate(I, 3)
        lam = local_colength(I)
        ok = ok and est.estimate >= lam - EST_TOL
        ok = ok and est.estimate - lam >= SINGULAR_MARGIN  # strict for n >= 2
    _report("5 estimate >= colength - 1/20, strict margin 1/5 on cones", ok)


def test_acceptance_6_localized_bound():
    from hkcalc import localized_frobenius_colength

    ok = True
    # equality on the regular ring: both sides q^3
    ring = ring_of(5, ("x", "y", "z"))
    P = Ideal(ring, [ring.var(1), ring.var(2)])
    for q in (5, 25):
        lfc = localized_frobenius_colength(P, q, ring.var(0))
        rhs = local_colength(maximal_ideal(ring).bracket_power(q))
        ok = ok and q * lfc == rhs == q**3
    # strict on the quadric cone
    cone = _cone(5, 2)
    P = Ideal(cone, [cone.var(1), cone.var(2)])
    x = cone.var(0)
    for q, expect_lfc, expect_rhs in ((5, 5, 37), (25, 25, 937)):
        lfc = localized_frobenius_colength(P, q, x)
        rhs = local_colength(maximal_ideal(cone).bracket_power(q))
        ok = ok and lfc == expect_lfc and rhs == expect_rhs and q * lfc < rhs
        # cross-check the ratio method against raw stabilized differences
        J = P.bracket_power(q)
        denom = hilbert_samuel(x, P).value
        floor = max(g.degree() for g in J.gb().elements) + 2
        lams = [
            local_colength(J + Ideal(cone, [x**n])) for n in (floor, floor + 1, floor + 2)
        ]
        diffs = {lams[1] - lams[0], lams[2] - lams[1]}
        ok = ok and diffs == {lfc * denom}
    _report("6 localized bound q*lambda_P <= lambda(R/m^[q]), exact", ok)


def test_acceptance_7_rescaling_identity():
    rings = [
        ring_of(p, ("x", "y", "z")[:d]) for p in (2, 3, 5) for d in (1, 2, 3)
    ] + [_cone(5, 2), _cone(7, 2), _cone(5, 3), ring_of(5, ("x", "y"))]
    ok = True
    for ring in rings:
        p = ring.p
        m = maximal_ideal(ring)
        lhs = local_colength(m.bracket_power(p).bracket_power(p))
        rhs = local_colength(m.bracket_power(p * p))
        ok = ok and lhs == rhs
    _report("7 rescaling identity on all corpus rings, exact", ok)


def test_acceptance_8_property_suites():
    ok = True
    # (a) reduced-GB canonicality under permutation: covered with 100 shuffles
    # in test_groebner; repeat a 10-shuffle spot check here on the cone.
    # Each shuffle gets a fresh ring, so no basis comes from a cache.
    from hkcalc import groebner_basis

    def fresh_cone():
        return ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))

    cone = fresh_cone()
    gens = [poly_of(cone, t) for t in ("x^5", "y^5", "z^5", "x*z^3 - y^2*z")]
    reference = groebner_basis(cone, gens)
    rng = random.Random(8)
    for _ in range(10):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        ok = ok and groebner_basis(fresh_cone(), shuffled) == reference
    # (b) colength order-invariance across all three orders
    for build in (
        _m_cubed,
        lambda kind: maximal_ideal(_cone(5, 2, kind)).bracket_power(5),
        lambda kind: maximal_ideal(_cone(5, 3, kind)).bracket_power(5),
        lambda kind: maximal_ideal(ring_of(3, ("x", "y", "z"), kind=kind)).bracket_power(9),
    ):
        values = {local_colength(build(kind)) for kind in ("grevlex", "lex", "grlex")}
        ok = ok and len(values) == 1
    # (c) staircase vs linear-algebra oracle for colengths <= 500
    small = []
    for p, d, e in ((2, 1, 2), (2, 2, 2), (3, 2, 2), (5, 2, 1), (2, 3, 2), (3, 3, 1)):
        ring = ring_of(p, ("x", "y", "z")[:d])
        small.append((ring, maximal_ideal(ring).bracket_power(p**e)))
    small.append((_cone(5, 2), maximal_ideal(_cone(5, 2)).bracket_power(5)))
    ring5 = ring_of(5, ("x", "y"))
    for texts in (("x^2 + y^2", "x*y"), ("x^3", "y^3 + x^2*y"), ("x^4", "y^4", "x*y^3")):
        small.append((ring5, Ideal(ring5, [poly_of(ring5, t) for t in texts])))
    for ring, I in small:
        value = colength(I)
        assert value <= 500, "case outside the oracle-comparison scope"
        gens_terms = [g.terms for g in I.generators] + [r.terms for r in ring.relations]
        ok = ok and value == homogeneous_colength_dense(ring.p, ring.nvars, gens_terms)
    # (d) bracket-power composition as ideal equality
    cone = _cone(5, 2)
    I = Ideal(cone, [poly_of(cone, "x + y"), poly_of(cone, "z^2")])
    ok = ok and I.bracket_power(5).bracket_power(5).gb() == I.bracket_power(25).gb()
    _report("8 property suites: canonicality, order-invariance, oracle, composition", ok)
