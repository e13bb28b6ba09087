import itertools
import random

import pytest

import hkcalc.groebner
import hkcalc.lengths
from hkcalc import (
    INFINITE,
    Ideal,
    InputError,
    Polynomial,
    colength,
    count_standard_monomials,
    dimension,
    hilbert_samuel,
    is_finite,
    local_colength,
    maximal_ideal,
    quotient_length,
)
from hkcalc.groebner import s_polynomial
from helpers import poly_of, ring_of
from oracles import local_colength_truncated, staircase_enumeration_count


def _ideal(ring, texts):
    return Ideal(ring, [poly_of(ring, t) for t in texts])


def test_infinite_sentinel():
    assert not is_finite(INFINITE)
    assert INFINITE != 0 and INFINITE == INFINITE
    with pytest.raises(TypeError):
        INFINITE < 5
    with pytest.raises(TypeError):
        5 < INFINITE


def test_count_standard_monomials_basics():
    assert count_standard_monomials([(0, 0)], 2) == 0  # unit
    assert count_standard_monomials([], 0) == 1
    assert count_standard_monomials([], 2) is INFINITE
    assert count_standard_monomials([(1, 0)], 2) is INFINITE  # no pure y power
    assert count_standard_monomials([(3, 0), (0, 2)], 2) == 6  # closed box
    assert count_standard_monomials([(3, 0), (0, 2), (1, 1)], 2) == 4


def _rung_staircase(rng, bounds, count):
    """`count` monomials shaped like the leading terms of a Hilbert-Samuel
    rung: a pure power of each variable below its bound, then corners near
    the surface sum(e_i / bound_i) = 1, some of them redundant."""
    n = len(bounds)
    gens = [tuple(b if i == j else 0 for i in range(n)) for j, b in enumerate(bounds)]
    while len(gens) < count:
        weights = [rng.random() for _ in range(n)]
        scale = rng.uniform(0.85, 1.05) / sum(weights)
        gens.append(tuple(int(b * w * scale) for b, w in zip(bounds, weights)))
    rng.shuffle(gens)
    return gens


def test_count_standard_monomials_vs_enumeration_random():
    rng = random.Random(101)
    cases = []
    for _ in range(100):
        n = rng.randint(1, 5)
        bounds = tuple(rng.randint(1, 6) for _ in range(n))
        gens = [tuple(b if i == j else 0 for i in range(n)) for j, b in enumerate(bounds)]
        for _ in range(rng.randint(0, 4)):
            gens.append(tuple(rng.randint(0, b) for b in bounds))
        cases.append((gens, bounds))
    # Large planar and three-variable staircases, as ladder rungs make.
    for n, repeats in ((2, 30), (3, 10)):
        for _ in range(repeats):
            bounds = tuple(rng.randint(10, 100) for _ in range(n))
            cases.append((_rung_staircase(rng, bounds, rng.randint(40, 300)), bounds))
    for gens, bounds in cases:
        expected = staircase_enumeration_count(gens, bounds)
        assert count_standard_monomials(gens, len(bounds)) == expected, gens


def _agrees_with_enumeration(gens):
    bounds = tuple(max(m[i] for m in gens if m[i] == sum(m)) + 1 for i in range(len(gens[0])))
    expected = staircase_enumeration_count(gens, bounds)
    assert count_standard_monomials(gens, len(bounds)) == expected, gens


def test_count_standard_monomials_sweep_edge_cases():
    """Three-variable staircases are counted in one sweep along the last
    variable; (a, b, c) is a corner (a, b) arriving at level c."""
    pure = [(6, 0, 0), (0, 5, 0), (0, 0, 4)]
    cases = [
        # A corner with the same first coordinate as an existing one, at the
        # left edge and inside.
        pure + [(2, 3, 0), (0, 4, 1), (2, 1, 1)],
        # Corners dominated when they arrive, one equal to an earlier corner.
        pure + [(2, 3, 0), (3, 4, 1), (2, 3, 2), (6, 0, 3)],
        # Several corners on one level, one of them dominating another.
        pure + [(1, 4, 1), (3, 2, 1), (5, 1, 1), (4, 1, 1), (2, 2, 2), (0, 1, 3)],
        # A corner dominating every corner between the pure powers.
        pure + [(1, 4, 0), (2, 3, 0), (4, 1, 0), (1, 1, 2)],
        # Duplicate generators.
        pure + pure + [(2, 3, 1), (2, 3, 1), (1, 1, 2), (1, 1, 2)],
        # Generators at or above the least pure power of the last variable.
        pure + [(1, 1, 4), (0, 0, 7), (3, 0, 5), (2, 2, 2)],
        # One corner per level, each below the one before.
        pure + [(5, 4, 1), (4, 3, 2), (1, 1, 3)],
    ]
    for gens in cases:
        _agrees_with_enumeration(gens)
        rng = random.Random(len(gens))
        for _ in range(5):
            rng.shuffle(gens)
            _agrees_with_enumeration(gens)


def test_count_standard_monomials_slices_down_to_the_sweep(monkeypatch):
    """Four and five variables are sliced down to three-variable sweeps."""
    sweeps = []
    sweep = hkcalc.lengths._sweep

    def counted(gens):
        sweeps.append(gens)
        return sweep(gens)

    monkeypatch.setattr(hkcalc.lengths, "_sweep", counted)
    rng = random.Random(404)
    for n in (4, 5):
        for _ in range(15):
            bounds = tuple(rng.randint(2, 6) for _ in range(n))
            gens = [tuple(b if i == j else 0 for i in range(n)) for j, b in enumerate(bounds)]
            gens += [tuple(rng.randint(0, b) for b in bounds) for _ in range(rng.randint(3, 12))]
            gens += gens[:2]  # duplicates
            sweeps.clear()
            _agrees_with_enumeration(gens)
            assert sweeps and all(len(m) == 3 for g in sweeps for m in g)


def test_count_standard_monomials_vs_enumeration_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def staircases(draw):
        bounds = tuple(draw(st.lists(st.integers(1, 12), min_size=1, max_size=4)))
        corner = st.tuples(*(st.integers(0, b) for b in bounds))
        extra = draw(st.lists(corner, max_size=12))
        pure = [tuple(b if i == j else 0 for i in range(len(bounds))) for j, b in enumerate(bounds)]
        return draw(st.permutations(pure + extra)), bounds

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @hypothesis.given(staircases())
    def agrees(case):
        gens, bounds = case
        assert count_standard_monomials(gens, len(bounds)) == staircase_enumeration_count(gens, bounds)

    agrees()


def _oracle_dimension(I, window=range(1, 9)):
    """The degree of N -> dim R/(I + m^N) over a window of N, by the numpy
    truncation oracle: its d-th difference is positive and constant there,
    so its (d+1)-th is 0."""
    ring = I.ring
    gens_terms = [list(g.terms) for g in I.generators + ring.relations]
    values = [local_colength_truncated(ring.p, ring.nvars, gens_terms, N) for N in window]
    d = 0
    while len(set(values)) > 1:
        values = [b - a for a, b in zip(values, values[1:])]
        d += 1
    assert len(values) >= 2 and values[0] > 0, (I, d, values)
    return d


def test_dimension():
    """The dimension of the local ring at the origin, checked by the oracle."""
    ring = ring_of(5, ("x", "y", "z"))
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    cubic = ring_of(5, ("x", "y", "z"), relations=("x*y - z^3",))
    # Near the origin z - 1 is a unit, so this is F_5[z]_(z), regular of dimension 1.
    regular = ring_of(5, ("x", "y", "z"), relations=("x*z - x", "y*z - y"))
    cases = [
        (ring, [], 3),
        (ring, ["x"], 2),
        (ring, ["x", "y^2"], 1),
        (ring, ["x", "y", "z"], 0),
        (ring, ["x*z - x"], 2),  # locally the plane x = 0
        (cone, [], 2),
        (cone, ["y", "z"], 1),
        (cubic, [], 2),  # not standard-graded: the local route
        (cubic, ["y", "z"], 1),
        (regular, [], 1),
    ]
    for R, texts, expected in cases:
        I = _ideal(R, texts)
        assert dimension(I) == expected == _oracle_dimension(I), (R, texts)
    with pytest.raises(InputError):
        dimension(_ideal(ring, ["x", "x + 1"]))  # unit ideal
    with pytest.raises(InputError):
        dimension(_ideal(ring_of(5, ("x", "y")), ["x - 1"]))  # a unit at the origin


def test_colength_examples():
    ring = ring_of(5, ("x", "y"))
    assert colength(maximal_ideal(ring)) == 1
    assert colength(_ideal(ring, ["x^3", "y^2"])) == 6
    assert colength(_ideal(ring, ["x"])) is INFINITE
    assert colength(_ideal(ring, ["x^2 + y^2", "x*y"])) == 4


def test_local_colength_homogeneous_agrees_with_global():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x^2 + y^2", "x*y"])
    assert local_colength(I) == colength(I) == 4


def test_local_colength_drops_components_away_from_origin():
    ring = ring_of(5, ("x",))
    # x(x-1): origin is a reduced point; the point at 1 does not count.
    assert colength(_ideal(ring, ["x^2 - x"])) == 2
    assert local_colength(_ideal(ring, ["x^2 - x"])) == 1
    # x^2(x-1): double point at the origin.
    assert colength(_ideal(ring, ["x^3 - x^2"])) == 3
    assert local_colength(_ideal(ring, ["x^3 - x^2"])) == 2


def test_local_colength_isolated_origin_of_a_curve():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x*y - x", "y^2 - y"])  # the origin and the line y = 1
    assert colength(I) is INFINITE
    assert local_colength(I) == 1
    assert local_colength(_ideal(ring, ["x*y - x", "y^3 - y^2"])) == 2  # (x, y^2) locally


def test_local_colength_reuses_its_homogenizing_ring(monkeypatch):
    """A repeated non-homogeneous ideal finds its basis cached: no S-pairs."""
    made = []

    def counted(f, g):
        made.append((f, g))
        return s_polynomial(f, g)

    monkeypatch.setattr(hkcalc.groebner, "s_polynomial", counted)
    ring = ring_of(5, ("x", "y"))
    texts = ["x*y - x", "y^3 - y^2"]
    assert local_colength(_ideal(ring, texts)) == 2
    assert made
    made.clear()
    assert local_colength(_ideal(ring, texts)) == 2
    assert made == []


def test_each_call_decides_its_route_once(monkeypatch):
    """dimension and local_colength each read the route once, Lazard's
    included, and a relation that is not a form settles it before any
    generator is tested for homogeneity."""
    decided = []
    suffices = hkcalc.lengths._global_basis_suffices
    monkeypatch.setattr(
        hkcalc.lengths, "_global_basis_suffices", lambda I: decided.append(I) or suffices(I)
    )
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x*y - x", "y^3 - y^2"])
    assert local_colength(I) == 2
    assert dimension(I) == 0
    assert decided == [I, I]

    tested = []
    is_homogeneous = Polynomial.is_homogeneous
    monkeypatch.setattr(Polynomial, "is_homogeneous", lambda f: tested.append(f) or is_homogeneous(f))
    cubic = ring_of(5, ("x", "y", "z"), relations=("x*y - z^3",))
    assert not suffices(_ideal(cubic, ["y - z^2", "x^2 + y^2"]))
    assert tested == list(cubic.relations)


def test_local_colength_ten_variables():
    names = tuple("x%d" % i for i in range(10))
    ring = ring_of(7, names)
    I = _ideal(ring, ["%s^3 - %s^2" % (v, v) for v in names])
    assert local_colength(I) == 2**10


def test_local_colength_mprimary_certificate_path():
    # Inhomogeneous but supported only at the origin: local = global.  It
    # holds no pure power of x, so it still takes Lazard's route: pure powers
    # of every variable suffice to skip it, but are not necessary.
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x^2 - y^3", "y^4"])
    assert local_colength(I) == colength(I) == 8
    assert ring._homogenizing is not None


def _random_zero_dim_ideal(rng, ring, degrees):
    """x_i^(a_i) plus random terms of lower degree, and one random extra element.

    The leading terms make the ideal zero-dimensional.  No constant terms, so
    the origin lies on the variety, often beside other points; without
    linear terms (half the time) it is a fat point.
    """
    n = ring.nvars
    top = max(degrees) + 1
    lowest = rng.randint(1, 2)
    monos = [m for m in itertools.product(range(top + 1), repeat=n) if lowest <= sum(m) <= top]

    def coeff():
        return rng.randint(1, ring.p - 1)

    gens = []
    for i, a in enumerate(degrees):
        lower = [m for m in monos if sum(m) < a]
        terms = [(m, coeff()) for m in rng.sample(lower, min(3, len(lower)))]
        terms.append((tuple(a if j == i else 0 for j in range(n)), 1))
        gens.append(ring.poly(terms))
    gens.append(ring.poly([(m, coeff()) for m in rng.sample(monos, 2)]))
    return Ideal(ring, gens)


def _assert_truncation_agrees(I, gens_terms):
    """dim R/(I + m^N) is l for every N >= l and at least N for N <= l, so a
    wrong finite value disagrees with the oracle at N = value + 1."""
    local = local_colength(I)
    assert is_finite(local), I
    for N in (local + 1, local + 3):
        assert local == local_colength_truncated(7, I.ring.nvars, gens_terms, N), (I, N)
    return local


def _unit_at_origin(rng, ring):
    """A random c + sum(a_i x_i) + b x_i x_j with c, a_i, b nonzero."""
    n = ring.nvars
    i, j = rng.randrange(n), rng.randrange(n)
    square = tuple(int(i == k) + int(j == k) for k in range(n))
    linear = [tuple(int(v == k) for k in range(n)) for v in range(n)]
    monos = [(0,) * n, square] + linear
    return ring.poly([(m, rng.randint(1, ring.p - 1)) for m in monos])


def test_local_colength_vs_truncation_oracle():
    """local_colength on random non-homogeneous ideals equals dim R/(I + m^(c+1)).

    Every third ideal I is also multiplied by h with h(0) != 0: h is a unit
    at the origin, so I * (h) keeps the local length of I, while the
    hypersurface V(h) makes its global colength INFINITE."""
    rng = random.Random(202)
    units = random.Random(303)
    seen = set()
    for trial in range(30):
        if trial % 2:
            ring = ring_of(7, ("x", "y", "z"))
            degrees = [2, 2, 2]
        else:
            ring = ring_of(7, ("x", "y"))
            degrees = [rng.randint(2, 4) for _ in range(2)]
        I = _random_zero_dim_ideal(rng, ring, degrees)
        c = colength(I)
        local = local_colength(I)
        gens_terms = [list(g.terms) for g in I.generators]
        assert local == local_colength_truncated(7, ring.nvars, gens_terms, c + 1), I
        seen.add((local == c, local > 1))
        if trial % 3 == 0:
            h = _unit_at_origin(units, ring)
            Ih = Ideal(ring, [g * h for g in I.generators])
            assert colength(Ih) is INFINITE, Ih
            assert _assert_truncation_agrees(Ih, [list(g.terms) for g in Ih.generators]) == local
    # Some samples have points away from the origin, and some a fat origin.
    assert {True, False} <= {same for same, _ in seen}
    assert any(fat for _, fat in seen)


def test_local_colength_nonhomogeneous_relation():
    """A relation that is not homogeneous counts as one more generator."""
    cubic = ring_of(7, ("x", "y", "z"), relations=("x*y - z^3",))
    line = ring_of(7, ("x", "y"), relations=("x*y - x",))
    cases = [
        (cubic, ["x^2", "y^2", "z^2"], 6),
        (cubic, ["x - y^2 + 3*z^2", "y^2 + 2*x*z"], 6),
        (line, ["y^2 - y"], 1),  # the line y = 1 misses the origin
    ]
    for ring, texts, expected in cases:
        I = _ideal(ring, texts)
        gens_terms = [list(g.terms) for g in I.generators + ring.relations]
        assert _assert_truncation_agrees(I, gens_terms) == expected


def test_local_colength_with_relations_vs_truncation_oracle():
    """Non-graded ideals over F_5 on rings with relations, which the oracle
    takes as extra generators: the same quotient.  N is the global colength
    plus one where that is finite.  Otherwise N is the length by hand plus
    one: near the origin z - 1 is a unit, so x*z - x, y*z - y make x = y = 0
    and the local ring is F_5[z]_(z), where (z^3 + x) is (z^3)."""
    cubic = ring_of(5, ("x", "y", "z"), relations=("x*y - z^3",))
    lines = ring_of(5, ("x", "y", "z"), relations=("x*z - x", "y*z - y"))
    cases = [
        (cubic, ["x + y^2", "z^2 + x^3", "y^3"], 6),
        (cubic, ["x - y^2 - z", "y^3 + z^2"], 5),
        (cubic, ["x", "y", "z"], 1),
        (lines, ["z^3 + x"], 3),
        (lines, ["z^2 + y", "x + z^4"], 2),
    ]
    for ring, texts, expected in cases:
        I = _ideal(ring, texts)
        c = colength(I)
        N = (c if is_finite(c) else expected) + 1
        gens_terms = [list(g.terms) for g in I.generators + ring.relations]
        assert local_colength(I) == expected, I
        assert local_colength_truncated(5, ring.nvars, gens_terms, N) == expected, I
    assert colength(_ideal(lines, ["z^3 + x"])) is INFINITE


def test_dimension_zero_exactly_when_local_colength_finite():
    """On non-graded ideals the local ring has dimension 0 iff the local
    colength is finite; a unit at the origin has local colength 0 and no
    dimension.  The ideals are those of the local-colength oracle tests,
    with one generator alone for the positive-dimensional side."""
    cubic = ring_of(7, ("x", "y", "z"), relations=("x*y - z^3",))
    line = ring_of(7, ("x", "y"), relations=("x*y - x",))
    plane = ring_of(7, ("x", "y"))
    ideals = [
        _ideal(ring_of(7, ("x",)), ["x^2 - x"]),
        _ideal(ring_of(7, ("x",)), ["x^3 - x^2"]),
        _ideal(plane, ["x*y - x", "y^2 - y"]),
        _ideal(plane, ["x*y - x", "y^3 - y^2"]),
        _ideal(plane, ["x*y - x"]),
        _ideal(plane, ["x^2 - y^3", "y^4"]),
        _ideal(cubic, ["x^2", "y^2", "z^2"]),
        _ideal(cubic, ["x - y^2 + 3*z^2", "y^2 + 2*x*z"]),
        _ideal(cubic, ["x - y^2 + 3*z^2"]),
        _ideal(line, ["y^2 - y"]),
        _ideal(line, []),
    ]
    rng = random.Random(202)
    units = random.Random(303)
    for trial in range(12):
        ring = ring_of(7, ("x", "y", "z")) if trial % 2 else plane
        degrees = [2, 2, 2] if trial % 2 else [rng.randint(2, 4) for _ in range(2)]
        I = _random_zero_dim_ideal(rng, ring, degrees)
        h = _unit_at_origin(units, ring)
        Ih = Ideal(ring, [g * h for g in I.generators])
        ideals += [I, Ih, Ideal(ring, I.generators[:1]), Ideal(ring, [h])]
    seen = set()
    for I in ideals:
        if all(g.is_homogeneous() for g in I.generators + I.ring.relations):
            continue
        local = local_colength(I)
        if local == 0:
            with pytest.raises(InputError):
                dimension(I)
            seen.add("unit")
        else:
            assert (dimension(I) == 0) == is_finite(local), I
            seen.add(is_finite(local))
    assert seen == {"unit", True, False}


def test_quotient_length():
    ring = ring_of(5, ("x", "y"))
    I = _ideal(ring, ["x^2", "x*y", "y^2"])
    J = maximal_ideal(ring)
    assert quotient_length(I, J) == 2  # m/m^2 has rank 2
    assert quotient_length(I, I) == 0
    assert quotient_length(I, Ideal(ring, [ring.one()])) == 3  # lambda(R/I)
    with pytest.raises(InputError):
        quotient_length(J, I)  # containment fails
    with pytest.raises(InputError):
        quotient_length(_ideal(ring, ["x"]), J)  # not m-primary
    # m-primary at the origin, although the line y = 1 lies on its variety.
    assert quotient_length(_ideal(ring, ["x*y - x", "y^3 - y^2"]), J) == 1
    # Contained at the origin only: x^2 is not in (x^2 - x, y), but x - 1 is
    # a unit there, so that ideal is (x, y) at the origin.
    I, J = _ideal(ring, ["x^2", "y"]), _ideal(ring, ["x^2 - x", "y"])
    assert quotient_length(I, J) == 1
    with pytest.raises(InputError, match="contained"):
        quotient_length(J, I)
    # Neither m-primary nor contained: the m-primary test comes first.
    with pytest.raises(InputError, match="m-primary"):
        quotient_length(_ideal(ring, ["x"]), _ideal(ring, ["y"]))


def test_hilbert_samuel_basic():
    ring = ring_of(5, ("x", "y"))
    res = hilbert_samuel(ring.var(0), _ideal(ring, ["y"]))
    assert (res.value, res.certified) == (1, True)
    assert hilbert_samuel(ring.var(0), _ideal(ring, ["y^2"])).value == 2
    # cusp y^2 = x^3: e(x) = 2
    assert hilbert_samuel(ring.var(0), _ideal(ring, ["y^2 - x^3"])).value == 2


def test_hilbert_samuel_difference_vs_annihilator_formula():
    """Non-domain case J = (x^2, xy): lambda(M/yM) - lambda(0 : y) = 2 - 1 = 1."""
    ring = ring_of(5, ("x", "y"))
    J = _ideal(ring, ["x^2", "x*y"])
    assert hilbert_samuel(ring.var(1), J).value == 1


def test_hilbert_samuel_hypotheses_checked():
    ring = ring_of(5, ("x", "y"))
    with pytest.raises(InputError):
        hilbert_samuel(ring.var(0), maximal_ideal(ring))  # dim 0
    with pytest.raises(InputError):
        hilbert_samuel(ring.var(1), _ideal(ring, ["y"]))  # not a parameter
    # R/(xy) has dimension 1, and so has R/(xy, x) = F_5[y]: x is no
    # parameter, although (xy) : x^oo = (y) and (y) + (x) has length 1.
    with pytest.raises(InputError, match="the given element is not a parameter on R/J"):
        hilbert_samuel(ring.var(0), _ideal(ring, ["x*y"]))
    with pytest.raises(InputError):
        hilbert_samuel(ring_of(7, ("x", "y")).var(0), _ideal(ring, ["y"]))


def test_hilbert_samuel_survives_long_transient():
    """Bracket powers of (y,z) on the quadric cone have a transient plateau
    of wrong differences roughly q/2 long; certification must not stop there."""
    cone = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    P = _ideal(cone, ["y", "z"])
    x = cone.var(0)
    assert hilbert_samuel(x, P).value == 1
    assert hilbert_samuel(x, P.bracket_power(5)).value == 5
    assert hilbert_samuel(x, P.bracket_power(25)).value == 25


def test_hilbert_samuel_ladder_counts(monkeypatch):
    """The ladder's own counts on the quadric and cubic cones, pinned here so
    that the algorithm, not the benchmark, owns them: one local colength per
    rung N = 1 .. stabilized_at + 1.  The cubic rungs hold pure powers of x,
    y and z, so they are counted in the session ring."""
    calls = []

    def counted(I):
        calls.append(I)
        return local_colength(I)

    monkeypatch.setattr(hkcalc.lengths, "local_colength", counted)
    expected = {
        "x*y - z^2": [(1, 3, 4), (5, 7, 8), (25, 37, 38)],
        "x*y - z^3": [(1, 3, 4), (5, 5, 6), (25, 25, 26)],
    }
    for relation, counts in expected.items():
        cone = ring_of(5, ("x", "y", "z"), relations=(relation,))
        P = _ideal(cone, ["y", "z"])
        seen = []
        for q in (1, 5, 25):
            calls.clear()
            res = hilbert_samuel(cone.var(0), P.bracket_power(q))
            seen.append((res.value, res.stabilized_at, len(calls)))
        assert seen == counts, relation


def _pure_power_ideal(rng, ring):
    """A pure power of each variable plus one element of mixed degree, so
    the ideal is not graded yet its quotient lives at the origin alone."""
    n = ring.nvars
    top = 4 if n == 2 else 2
    gens = [ring.var(i, rng.randint(1, top)) for i in range(n)]
    monos = [m for m in itertools.product(range(top + 1), repeat=n) if 1 <= sum(m) <= top]
    while True:
        terms = [(m, rng.randint(1, ring.p - 1)) for m in rng.sample(monos, 3)]
        if len({sum(m) for m, _ in terms}) > 1:
            break
    gens.append(ring.poly(terms))
    rng.shuffle(gens)
    return Ideal(ring, gens)


def test_pure_powers_read_local_values_from_the_global_basis():
    """Input holding a pure power of every variable is local already: its
    local colength is the global one and the truncation oracle's value, its
    dimension is 0, and with a unit at the origin adjoined it is 0 and has
    no dimension.  None of it builds the homogenizing ring."""
    rng = random.Random(2020)
    units = random.Random(4040)
    seen = set()
    for trial in range(48):
        p = (2, 3, 5, 7)[trial % 4]
        kind = ("grevlex", "grlex", "lex")[trial % 3]
        if trial % 8 < 3:
            ring = ring_of(p, ("x", "y", "z"), kind, relations=("x*y - z^3",))
        elif trial % 8 < 5:
            ring = ring_of(p, ("x", "y", "z"), kind)
        else:
            ring = ring_of(p, ("x", "y"), kind)
        I = _pure_power_ideal(rng, ring)
        assert not all(g.is_homogeneous() for g in I.generators + ring.relations), I
        for J in (I, I + Ideal(ring, [_unit_at_origin(units, ring)])):
            value = local_colength(J)
            gens_terms = [list(g.terms) for g in J.generators + ring.relations]
            assert value == colength(J), J
            assert value == local_colength_truncated(p, ring.nvars, gens_terms, value + 1), J
            if value:
                assert dimension(J) == 0, J
            else:
                with pytest.raises(InputError):
                    dimension(J)
            seen.add(min(value, 2))
        assert ring._homogenizing is None, I
    assert seen == {0, 1, 2}


# (variables, relations, generators, dimension); colength and local colength
# are INFINITE exactly when the dimension is positive, and 0 for a unit.
_MONOMIAL_CASES = [
    ("xy", ("x*y",), ["x^3", "y^2"], 0),
    ("xy", (), ["x^2", "x^2", "x^3*y", "2*x*y", "y^4", "3*y^5"], 0),
    ("xy", (), ["x^2", "3", "y"], None),
    ("xy", (), ["x^2*y", "x*y^3"], 1),
    ("xyz", ("x*y",), ["x^2", "y^3", "z^2", "x*z"], 0),
    ("xyz", (), ["x^2", "y^2*z", "y^3", "z^3", "x*y*z", "x^2*z", "y^3"], 0),
    ("xyz", ("x*y",), ["x", "1"], None),
    ("xyz", ("x*y",), ["z"], 1),
    ("wxyz", ("x*y",), ["w^2", "x^2", "y", "z^3", "w*z"], 0),
    ("wxyz", (), ["w^2", "w^3", "x^2", "w*x", "y^2", "4*x*y^2", "z^2", "z^2"], 0),
    ("wxyz", (), ["w", "x^2", "2", "y*z"], None),
    ("wxyz", ("w*x",), ["y^2", "z"], 1),
]


@pytest.mark.parametrize("names, relations, texts, dim", _MONOMIAL_CASES)
def test_lengths_of_monomial_input_build_no_basis(names, relations, texts, dim):
    """Monomial input is its own leading ideal: its colength, local colength
    and dimension read its generators and relations, dominated and repeated
    ones included, and build no basis.  The colength is the brute-force
    count of the box below the least pure powers, and the basis built
    afterwards gives the same count."""
    ring = ring_of(5, names, relations=relations)
    I = _ideal(ring, texts)
    value = colength(I)
    assert local_colength(I) == value
    if dim is None:
        with pytest.raises(InputError, match="empty at the origin"):
            dimension(I)
    else:
        assert dimension(I) == dim
    assert ring._bases == {} and ring._homogenizing is None
    monos = [g.lm for g in I.generators + ring.relations]
    if dim:
        assert value is INFINITE
    else:
        bounds = [min(m[i] for m in monos if m[i] == sum(m)) for i in range(ring.nvars)]
        assert value == staircase_enumeration_count(monos, bounds)
        assert (value == 0) == (dim is None)
    assert count_standard_monomials(I.gb().leading_monomials, ring.nvars) == value
