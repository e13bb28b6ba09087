import contextlib
import hashlib
import heapq
import random
import types
from operator import add, le

import pytest

import hkcalc.groebner
from hkcalc import (
    Ideal,
    InputError,
    PresentedRing,
    ResourceLimitError,
    groebner_basis,
    normal_form,
)
from hkcalc.groebner import SPAIR_CAP, _Packing, _Reducers, s_polynomial
from hkcalc.orders import ORDER_KINDS
from helpers import poly_of, polynomial_ring_of, random_poly, ring_of, s_poly


def _gb(ring, texts):
    return groebner_basis(ring, [poly_of(ring, t) for t in texts])


@contextlib.contextmanager
def _spair_cap(cap):
    token = SPAIR_CAP.set(cap)
    try:
        yield
    finally:
        SPAIR_CAP.reset(token)


def test_lex_triangularization():
    ring = ring_of(7, ("x", "y", "z"), kind="lex")
    basis = _gb(ring, ["x - y^2", "y - z"])
    rendered = [g.render() for g in basis.elements]
    assert rendered == ["y + 6*z", "x + 6*z^2"]


def test_monomial_ideal_basis():
    """A monomial ideal's reduced basis, built by the one basis path, is its
    minimal generators made monic, in every order kind; with a monomial
    relation, and with repeated and dominated generators, it matches sympy."""
    sympy = pytest.importorskip("sympy")
    for kind in ORDER_KINDS:
        ring = ring_of(5, ("x", "y"), kind=kind)
        basis = _gb(ring, ["x^3", "x*y", "x^2*y^4", "y^2"])
        assert basis.leading_monomials == ((0, 2), (1, 1), (3, 0))
        assert [len(g.terms) for g in basis.elements] == [1, 1, 1]
        for names, relations, texts in [
            ("xyz", ("x*y",), ["x^3", "y^2*z", "z^4", "x*z^2"]),
            ("xyz", (), ["x^2", "x^2", "3*x^3*y", "y^3", "2*x*y^2*z", "y^3*z", "z^2"]),
            ("wxyz", ("w*x",), ["w^2", "2*x^2", "x^2*y", "y^3", "z", "y*z^2", "y^3"]),
        ]:
            ring = ring_of(5, names, kind=kind, relations=relations)
            gens = [poly_of(ring, t) for t in texts]
            assert all(len(g.terms) == 1 for g in groebner_basis(ring, gens).elements)
            _assert_basis_matches_sympy(sympy, ring, gens)


def test_normal_form_properties():
    rng = random.Random(23)
    ring = ring_of(5, ("x", "y", "z"))
    basis = _gb(ring, ["x^2 + y*z", "y^3 - z^3", "z^4"])
    for _ in range(50):
        f = random_poly(rng, ring)
        g = random_poly(rng, ring)
        nf = normal_form(f, basis.elements)
        # idempotent, linear, and membership-detecting
        assert normal_form(nf, basis.elements) == nf
        assert normal_form(f + g, basis.elements) == normal_form(
            nf + normal_form(g, basis.elements), basis.elements
        )
        for mono in [m for m, _ in nf.terms]:
            assert not any(
                all(a <= b for a, b in zip(lt, mono)) for lt in basis.leading_monomials
            )
        member = sum(
            (random_poly(rng, ring, max_terms=2) * b for b in basis.elements),
            ring.poly(()),
        )
        assert normal_form(member, basis.elements).is_zero()


def test_buchberger_postcheck_spolys_reduce_to_zero():
    for texts, ring in [
        (["x^2 + y*z", "y^3 - z^3", "x*z + 2*y^2"], ring_of(5, ("x", "y", "z"))),
        (["x^2 - y", "y^2 - x"], ring_of(7, ("x", "y"), kind="lex")),
    ]:
        basis = _gb(ring, texts)
        for i in range(len(basis.elements)):
            for j in range(i + 1, len(basis.elements)):
                s = s_poly(basis.elements[i], basis.elements[j])
                assert normal_form(s, basis.elements).is_zero()


def test_reduced_basis_is_canonical_under_shuffles():
    ring = ring_of(5, ("x", "y", "z"))
    gens = [
        poly_of(ring, t)
        for t in ("x^2 + y*z", "y^3 - z^3", "x*z + 2*y^2", "z^4", "x*y^2 - z^2")
    ]
    reference = groebner_basis(ring, gens)
    rng = random.Random(31)
    for _ in range(100):
        shuffled = list(gens)
        rng.shuffle(shuffled)
        # A fresh ring has no cached bases, so every shuffle runs Buchberger.
        assert groebner_basis(ring_of(5, ("x", "y", "z")), shuffled) == reference


def test_bases_cached_per_ring():
    texts = ["x^2 + y*z", "y^3 - z^3", "x*z + 2*y^2", "z^4"]
    ring = ring_of(5, ("x", "y", "z"))
    basis = _gb(ring, texts)
    assert _gb(ring, texts[::-1]) is basis
    with _spair_cap(2):
        assert _gb(ring, texts) is basis  # cached: no S-pairs made
    other = ring_of(5, ("x", "y", "z"))
    again = _gb(other, texts)
    assert again is not basis and again == basis


def test_bases_cached_by_the_set_of_generators():
    """A repeated generator does not change the cache key, so P + P finds
    P's basis."""
    ring = ring_of(5, ("x", "y", "z"))
    y, z = poly_of(ring, "y"), poly_of(ring, "z")
    basis = Ideal(ring, [z, y]).gb()
    with _spair_cap(1):
        assert Ideal(ring, [y, z, y]).gb() is basis
        assert (Ideal(ring, [y, z]) + Ideal(ring, [z, y])).gb() is basis


def test_cached_bases_share_equal_elements():
    ring = ring_of(5, ("x", "y", "z"))
    one = _gb(ring, ["x^2 + y*z", "z^3"])
    two = _gb(ring, ["x^2 + y*z", "z^3", "y^4"])
    assert two.elements[:2] == one.elements
    assert all(g is h for g, h in zip(one.elements, two.elements))


def test_relations_are_adjoined():
    ring = ring_of(5, ("x", "y", "z"), relations=("x*y - z^2",))
    basis = _gb(ring, ["x^5", "y^5", "z^5"])
    assert normal_form(poly_of(ring, "x*y - z^2"), basis.elements).is_zero()
    assert normal_form(poly_of(ring, "x^4*y^4"), basis.elements).is_zero()  # (xy)^4 = z^8 = z^5*z^3


def test_spair_cap_raises():
    ring = ring_of(5, ("x", "y", "z"))
    with _spair_cap(2), pytest.raises(ResourceLimitError):
        _gb(ring, ["x^2 + y*z", "y^3 - z^3", "x*z + 2*y^2", "z^4"])
    assert SPAIR_CAP.get() > 2  # reset on the way out


@pytest.mark.parametrize("q, cap", [(7, 45), (49, 1326)])
def test_spair_cap_boundary(q, cap):
    """m^[q] on F_7[x,y,z]/(xy - z^2) counts exactly `cap` S-pairs: the cap
    admits it, one less does not."""

    def bracket_power():
        # A fresh ring each time, so no basis is cached.
        ring = ring_of(7, ("x", "y", "z"), relations=("x*y - z^2",))
        return groebner_basis(ring, [ring.var(i, q) for i in range(3)])

    with _spair_cap(cap):
        bracket_power()
    with _spair_cap(cap - 1), pytest.raises(ResourceLimitError):
        bracket_power()


def test_cross_ring_generator_rejected():
    ring = ring_of(5, ("x", "y"))
    other = ring_of(7, ("x", "y"))
    with pytest.raises(InputError):
        groebner_basis(ring, [other.var(0)])


def test_normal_form_against_monomial_basis():
    ring = ring_of(5, ("x", "y"))
    basis = _gb(ring, ["x^2", "y^3"])
    f = poly_of(ring, "x^3 + x*y^4 + x*y + 2")
    assert normal_form(f, basis.elements) == poly_of(ring, "x*y + 2")


def test_normal_form_reduces_by_first_divisor_in_order():
    ring = ring_of(7, ("x", "y"))
    linear, quadric = poly_of(ring, "3*x - 3"), poly_of(ring, "x*y - 2")
    f = poly_of(ring, "x*y")
    assert normal_form(f, [linear, quadric]) == poly_of(ring, "y")
    assert normal_form(f, [quadric, linear]) == ring.constant(2)


def _assert_basis_matches_sympy(sympy, ring, gens):
    """Our reduced basis of (gens) + (relations) equals sympy.groebner's over
    GF(p); reduced bases are canonical."""
    p, names = ring.p, ring.variables
    symbols = sympy.symbols(names)
    polys = list(gens) + list(ring.relations)
    exprs = [sympy.Poly.from_dict(dict(g.terms), *symbols).as_expr() for g in polys]
    kind = ring.order.kind
    theirs = sympy.groebner(exprs, *symbols, modulus=p, order=kind).polys
    theirs = [h.exquo_ground(h.LC(order=kind)) for h in theirs]
    expected = sorted(ring.poly((m, int(c)) for m, c in h.terms()).terms for h in theirs)
    ours = sorted(g.terms for g in groebner_basis(ring, gens).elements)
    assert ours == expected, (ring, [g.render() for g in gens])


def _nonzero_polys(rng, ring, count, max_terms, max_exp):
    polys = []
    while len(polys) < count:
        g = random_poly(rng, ring, max_terms, max_exp)
        if not g.is_zero():
            polys.append(g)
    return polys


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_reduced_basis_matches_sympy(p):
    """Differential check: seeded random ideals in 2-3 variables, every order,
    against sympy.groebner over GF(p) (reduced bases are canonical)."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(p)
    for kind in ORDER_KINDS:
        for _ in range(8):
            names = ("x", "y", "z")[: rng.randint(2, 3)]
            ring = ring_of(p, names, kind=kind)
            gens = []
            while not gens:
                drawn = [random_poly(rng, ring, 3, 3) for _ in range(rng.randint(2, 3))]
                gens = [g for g in drawn if not g.is_zero()]
            _assert_basis_matches_sympy(sympy, ring, gens)


# The first three each lose a basis element if B_k drops a queued pair
# (i, k) whose lcm equals lcm(lm_k, lm_h).  In the last, adding x*z + y meets
# the lcm x*y*z from two pairs, with x*y and with y*z, and queues one.
_BK_CASES = [
    (
        3,
        "grevlex",
        "xyz",
        ["x^2*y^3 + 2*x*y^3", "x^3*y^3*z^3 + 2*x^3*z", "2*x^3*y*z", "x^3*y^3*z + 2*y*z^2 + x^2"],
        ["2*x*y^2*z + 2*x*y*z^2"],
    ),
    (
        7,
        "grlex",
        "xyz",
        [
            "2*x*y^3*z + x^3*z",
            "4*x^2*y^2*z^3 + 5*y*z + 5*z^2",
            "5*y*z^2",
            "4*x*y^2*z^2 + y^2*z^3",
            "2*x^3*y^3 + 6*x^2*y + 5*y*z",
        ],
        [],
    ),
    (
        3,
        "grlex",
        "wxyz",
        [
            "2*w^2*x^3*y*z^3 + w*x^2*y^2*z^3 + w^2*x*y^3*z",
            "2*w^2*y^2*z^3 + 2*x^3*z^3",
            "w^2*x^3*z^3",
            "w^2*x^2*y^3*z + 2*w*x^2*y^3 + 2*y*z^3",
        ],
        [],
    ),
    (5, "grevlex", "xyz", ["x*y + z", "y*z + x", "x*z + y"], []),
]


@pytest.mark.parametrize("p, kind, names, texts, relations", _BK_CASES)
def test_reduced_basis_matches_sympy_pair_update_cases(p, kind, names, texts, relations):
    sympy = pytest.importorskip("sympy")
    ring = ring_of(p, names, kind=kind, relations=relations)
    _assert_basis_matches_sympy(sympy, ring, [poly_of(ring, t) for t in texts])


@pytest.mark.parametrize("p", (2, 3, 5, 7))
def test_reduced_basis_matches_sympy_sparse_with_relations(p):
    """Differential check with more pairs per basis: 4-5 sparse generators
    in 3-4 variables, every order, every other ideal over a ring relation
    without constant term."""
    sympy = pytest.importorskip("sympy")
    rng = random.Random(100 + p)
    for kind in ORDER_KINDS:
        for t in range(6):
            names = ("w", "x", "y", "z")[: rng.randint(3, 4)]
            ring = ring_of(p, names, kind=kind)
            if t % 2:
                relation = ring.poly((m, c) for m, c in random_poly(rng, ring, 2, 2).terms if any(m))
                if not relation.is_zero():
                    ring = PresentedRing(ring.ambient, [relation])
            _assert_basis_matches_sympy(sympy, ring, _nonzero_polys(rng, ring, rng.randint(4, 5), 2, 3))


@pytest.mark.parametrize("q, spolys, size", [(7, 16, 10), (49, 100, 52)])
def test_bracket_power_spair_decisions_pinned(monkeypatch, q, spolys, size):
    """m^[q] on F_7[x,y,z]/(xy - z^2): the Gebauer-Moller update leaves
    exactly this many S-polynomials to reduce, in this order (the sha256
    prefix of their leading monomials).  The normal forms, reducer scans
    and reducers built are pinned too: tail-only interreduction scans no
    reducer for a leading term and rebuilds no monomial."""
    calls, order = {
        7: ({"normal_form": 29, "find": 13, "reducer": 11}, "94d941ae00bc09e5"),
        49: ({"normal_form": 155, "find": 55, "reducer": 53}, "439533f6db474d7f"),
    }[q]
    made = []

    def counted(basis, f, g):
        made.append((basis.packing.unpack(f.lm), basis.packing.unpack(g.lm)))
        return s_polynomial(basis, f, g)

    counts = dict.fromkeys(calls, 0)

    def counting(name, function):
        def wrapper(*args):
            counts[name] += 1
            return function(*args)

        return wrapper

    monkeypatch.setattr(hkcalc.groebner, "s_polynomial", counted)
    monkeypatch.setattr(hkcalc.groebner, "normal_form", counting("normal_form", normal_form))
    for name in ("find", "reducer"):
        monkeypatch.setattr(_Reducers, name, counting(name, getattr(_Reducers, name)))
    ring = ring_of(7, ("x", "y", "z"), relations=("x*y - z^2",))
    basis = groebner_basis(ring, [ring.var(i, q) for i in range(3)])
    assert (len(made), len(basis.elements)) == (spolys, size)
    assert counts == calls
    assert hashlib.sha256(repr(made).encode()).hexdigest()[:16] == order

    sympy = pytest.importorskip("sympy")
    x, y, z = sympy.symbols("x y z")
    theirs = sympy.groebner(
        [x**q, y**q, z**q, x * y - z**2], x, y, z, modulus=7, order="grevlex"
    ).polys
    theirs = [h.exquo_ground(h.LC(order="grevlex")) for h in theirs]
    expected = sorted(ring.poly((m, int(c)) for m, c in h.terms()).terms for h in theirs)
    assert sorted(g.terms for g in basis.elements) == expected


def test_pairs_pop_in_lcm_order(monkeypatch):
    """The pair queue is a heap at every pop, also after B_k drops pairs
    from it, so the normal strategy takes the least lcm.  Of two new pairs
    with one lcm, the one with the earlier element is queued."""
    popped = []

    def heappop(heap):
        assert all(heap[(k - 1) // 2] <= heap[k] for k in range(1, len(heap)))
        popped.append(heap[0][1:3])
        return heapq.heappop(heap)

    queue = types.SimpleNamespace(heappop=heappop, heappush=heapq.heappush, heapify=heapq.heapify)
    monkeypatch.setattr(hkcalc.groebner, "heapq", queue)
    # Here B_k drops pairs from inside the heap, which breaks its order
    # unless it is heapified again.
    ring = ring_of(7, ("w", "x", "y"), kind="lex")
    texts = [
        "2*w^3*x^2*y^4 + 4*x^4*y^4",
        "2*w*x^2*y^2 + 4*w*x^2 + 6*w*y^2",
        "5*w^3*x^4*y + w*x^4*y^2",
        "6*w^3*x^4*y + 3*w*x^3 + 6*w*x*y^4",
        "5*w^2*x^4*y^2",
        "2*w^4*x^4*y^2 + 5*w^2*x^2*y^4",
    ]
    _gb(ring, texts)
    assert len(popped) == 25
    p, kind, names, texts, relations = _BK_CASES[-1]  # x*y + z, y*z + x, x*z + y
    popped.clear()
    _gb(ring_of(p, names, kind=kind, relations=relations), texts)
    assert (0, 2) in popped and (1, 2) not in popped


def test_first_dividing_lead_matches_brute_force():
    """The reducer found for m is the first in basis order whose leading
    monomial divides m, with repeated leading monomials."""
    rng = random.Random(5)
    for kind in ORDER_KINDS:
        for nvars in range(1, 6):
            ring = polynomial_ring_of(5, "abcde"[:nvars], kind)
            for _ in range(40):
                pool = [tuple(rng.randint(0, 3) for _ in range(nvars)) for _ in range(rng.randint(1, 8))]
                lms = [rng.choice(pool) for _ in range(rng.randint(1, 12))]  # with repeats
                rng.shuffle(lms)
                polys = [ring.poly([(u, rng.randint(1, 4))]) for u in lms]
                # A packing that fits every m drawn below.
                packing = _Packing(ring, polys + [ring.poly([((4,) * nvars, 1)])])
                index = _Reducers(ring, packing)
                for f in polys:
                    index.add(index.pack(f.terms))
                for _ in range(20):
                    m = tuple(rng.randint(0, 4) for _ in range(nvars))
                    first = next((i for i, u in enumerate(lms) if all(map(le, u, m))), None)
                    (packed,) = index.pack([(m, 1)])
                    found = index.find(packed)
                    assert found is (None if first is None else index.polys[first]), (lms, m)


def test_packing_matches_exponent_tuples():
    """For every order kind in 1-5 variables: integer order is the monomial
    order, + multiplies, the guard test divides, lcm is right, and unpack
    inverts pack, at the width that fits the monomials, at twice it, and at
    a width that fits exponents of 2^40."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    @st.composite
    def cases(draw):
        kind = draw(st.sampled_from(ORDER_KINDS))
        nvars = draw(st.integers(1, 5))
        top = draw(st.sampled_from((1, 3, 40, 1000)))
        monos = draw(st.lists(st.tuples(*[st.integers(0, top)] * nvars), min_size=2, max_size=6))
        wide = draw(st.lists(st.tuples(*[st.integers(0, 2**40)] * nvars), max_size=2))
        return kind, nvars, monos, wide + [(2**40,) * nvars]

    def check(ring, packing, monos):
        key, pack = ring.order.key, packing.pack
        for u in monos:
            assert packing.unpack(pack(u)) == u
            for v in monos:
                a, b = pack(u), pack(v)
                assert (a < b) == (key(u) < key(v)), (u, v)
                assert a + b == pack(tuple(map(add, u, v)))
                assert (not (b - a) & packing.guard) == all(map(le, u, v)), (u, v)
                assert packing.weigh(packing.fieldmax(a, b) & packing.exps) == pack(tuple(map(max, u, v)))

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(cases())
    def agrees(case):
        kind, nvars, monos, wide = case
        ring = polynomial_ring_of(7, "abcde"[:nvars], kind)
        polys = [ring.poly([(m, 1)]) for m in monos]
        packing = _Packing(ring, polys)
        check(ring, packing, monos)
        doubled = _Packing(ring, polys, 2 * packing.bits)
        assert doubled.bits == 2 * packing.bits
        check(ring, doubled, monos)
        wider = _Packing(ring, polys + [ring.poly([(m, 1)]) for m in wide])
        assert wider.bits > doubled.bits
        check(ring, wider, monos + wide)

    agrees()


def test_packed_width_grows_past_any_fixed_field():
    """Under lex, x -> x^(2^40) commutes with the reduced basis: the
    substituted ideal's basis is the original with x-exponents scaled."""
    texts = ["x^2*y - z^2", "x*z^2 - y^2", "y^3 - x*z"]
    ring = ring_of(5, ("x", "y", "z"), kind="lex")
    basis = _gb(ring, texts)
    # z^14 needs wider fields than the first leading term, x^2*y.
    assert max(m[2] for g in basis.elements for m, _ in g.terms) == 14
    scale = 2**40
    other = ring_of(5, ("x", "y", "z"), kind="lex")
    substituted = groebner_basis(
        other, [other.poly(((m[0] * scale,) + m[1:], c) for m, c in poly_of(other, t).terms) for t in texts]
    )
    assert [g.terms for g in substituted.elements] == [
        tuple(((m[0] * scale,) + m[1:], c) for m, c in g.terms) for g in basis.elements
    ]


def test_lex_reduction_widens_the_fields(monkeypatch):
    """Lex terms have no degree bound: tail-reducing x - y^20 by y - z^20
    reaches z^400 within one normal_form call, past the 7 bits that fit
    four times the generators.  That call raises, and the whole computation
    is redone at 14 bits, where it fits; nothing is re-packed."""
    widths, spolys = [], []

    def counted_nf(f, basis):
        widths.append(basis.packing.bits)
        return normal_form(f, basis)

    def counted_spoly(basis, f, g):
        spolys.append(basis.packing.bits)
        return s_polynomial(basis, f, g)

    monkeypatch.setattr(hkcalc.groebner, "normal_form", counted_nf)
    monkeypatch.setattr(hkcalc.groebner, "s_polynomial", counted_spoly)
    ring = ring_of(7, ("x", "y", "z"), kind="lex")
    basis = _gb(ring, ["x - y^20", "y - z^20"])
    assert [g.render() for g in basis.elements] == ["y + 6*z^20", "x + 6*z^400"]
    assert (widths, spolys) == ([7] * 3 + [14] * 3, [])
    # w - x is reduced again in the second attempt, with the rest.
    widths.clear()
    ring = ring_of(7, ("w", "x", "y", "z"), kind="lex")
    basis = _gb(ring, ["w - x", "x - y^20", "y - z^20"])
    assert [g.render() for g in basis.elements] == ["y + 6*z^20", "x + 6*z^400", "w + 6*z^400"]
    assert (widths, spolys) == ([7] * 4 + [14] * 5, [])


@pytest.mark.parametrize("kind", ORDER_KINDS)
def test_normal_form_of_high_powers_matches_sympy(kind):
    """Terms far above the basis's degrees are packed at a wider width and
    reduced to sympy's remainder modulo the same (reduced) basis."""
    sympy = pytest.importorskip("sympy")
    ring = ring_of(7, ("x", "y", "z"), kind=kind, relations=("x*y - z^2",))
    basis = _gb(ring, ["x^3 - y*z", "y^2 + z"])
    f = poly_of(ring, "x^300*y^2 + 3*z^700 + x*y*z")
    x, y, z = sympy.symbols("x y z")
    theirs = sympy.groebner([x**3 - y * z, y**2 + z, x * y - z**2], x, y, z, modulus=7, order=kind)
    _, remainder = sympy.reduced(
        x**300 * y**2 + 3 * z**700 + x * y * z, list(theirs.exprs), x, y, z, modulus=7, order=kind
    )
    expected = ring.poly((m, int(c)) for m, c in sympy.Poly(remainder, x, y, z, modulus=7).terms())
    assert normal_form(f, basis.elements) == expected


def test_s_polynomial_matches_polynomial_arithmetic(monkeypatch):
    """Every S-polynomial Buchberger makes, unpacked, is S(f, g) =
    lc(g) * (L / lm f) * f - lc(f) * (L / lm g) * g of its unpacked
    reducers, L the lcm of the leading monomials, as Polynomial products."""
    checked = 0

    def checking(basis, f, g):
        nonlocal checked
        s = s_polynomial(basis, f, g)
        assert all(s.values())
        unpacked = basis.ring.poly((basis.packing.unpack(m), c) for m, c in s.items())
        assert unpacked == s_poly(basis.polynomial(f.terms), basis.polynomial(g.terms))
        checked += 1
        return s

    monkeypatch.setattr(hkcalc.groebner, "s_polynomial", checking)
    rng = random.Random(17)
    for kind in ORDER_KINDS:
        for _ in range(20):
            ring = ring_of(7, ("x", "y", "z"), kind=kind)  # fresh, so nothing is cached
            groebner_basis(ring, _nonzero_polys(rng, ring, 3, 3, 2))
    assert checked > 100


def test_normal_form_ignores_leading_coefficients():
    """Reducing by g or by g made monic takes the same steps, and a reduced
    basis gives one normal form whatever its order and scaling."""
    rng = random.Random(11)
    ring = ring_of(7, ("x", "y", "z"))
    basis = _gb(ring, ["x^2 + y*z", "y^3 - z^3", "x*z + 2*y^2", "z^4"])
    for _ in range(30):
        raw = [g for g in (random_poly(rng, ring, 4, 3) for _ in range(3)) if not g.is_zero()]
        f = random_poly(rng, ring, 6, 5)
        monic = [g * ring.constant(pow(g.terms[0][1], -1, 7)) for g in raw]
        assert normal_form(f, raw) == normal_form(f, monic)
        scaled = [g * ring.constant(rng.randint(2, 6)) for g in basis.elements]
        rng.shuffle(scaled)
        assert normal_form(f, scaled) == normal_form(f, basis.elements)


def test_normal_form_rejects_other_ring():
    basis = _gb(ring_of(5, ("x", "y")), ["x^2 + y", "y^3"])
    f = ring_of(7, ("x", "y")).var(0)
    with pytest.raises(InputError):
        normal_form(f, basis.elements)
    with pytest.raises(InputError):
        normal_form(ring_of(5, ("x", "y", "z")).var(0), basis.elements)
    # The zero ideal's basis is empty, and reduces no polynomial.
    ring = ring_of(5, ("x", "y"))
    zero = Ideal(ring, []).gb()
    assert zero.elements == ()
    f = poly_of(ring, "x^2*y + 3*y + 1")
    assert normal_form(f, zero.elements) == f
    assert normal_form(f, []) == f
