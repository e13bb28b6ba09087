import pytest

from hkcalc import InputError, PolynomialRing, parse_polynomial, parse_session
from helpers import ring_of

QUADRIC = """\
# quadric cone
char 5
vars x y z
order grevlex
mod x*y - z^2
ideal m = x, y, z
ideal J = y, z
prime P = y, z height 2
param f = x
"""


def test_parse_session_quadric():
    session = parse_session(QUADRIC)
    assert session.p == 5
    assert session.variables == ("x", "y", "z")
    assert session.order_kind == "grevlex"
    ring = session.build_ring()
    assert len(ring.relations) == 1
    m = session.ideal("m", ring)
    assert len(m.generators) == 3
    P, height = session.prime("P", ring)
    assert height == 2
    assert len(P.generators) == 2
    f = session.param("f", ring)
    assert f == ring.var(0)
    # a prime can also be fetched as a plain ideal
    assert session.ideal("P", ring).same_ideal(P)


def test_session_roundtrip_through_to_text():
    session = parse_session(QUADRIC)
    again = parse_session(session.to_text())
    ring = session.build_ring()
    assert again.to_text() == session.to_text()
    assert again.variables == session.variables
    assert again.ideal("m", ring).same_ideal(session.ideal("m", ring))


def test_order_override():
    session = parse_session(QUADRIC)
    ring = session.build_ring(order_kind="lex")
    assert ring.order.kind == "lex"


def test_build_ring_rehomes_relations_in_its_order():
    session = parse_session("char 5\nvars x y\nmod x - y^2\n")
    for kind, lm in (("grevlex", (0, 2)), ("lex", (1, 0))):
        ring = session.build_ring(order_kind=kind)
        (rel,) = ring.relations
        assert rel.ring is ring.ambient and rel.lm == lm


def test_session_polynomials_share_one_relation_free_ring():
    session = parse_session(QUADRIC)
    polys = list(session.relations) + list(session.params.values())
    polys += [g for gens in session.ideals.values() for g in gens]
    polys += [g for gens, _ in session.primes.values() for g in gens]
    assert len({id(g.ring) for g in polys}) == 1
    assert isinstance(polys[0].ring, PolynomialRing)
    assert polys[0].ring == session.build_ring().ambient


def test_unknown_names_rejected():
    session = parse_session(QUADRIC)
    ring = session.build_ring()
    with pytest.raises(InputError):
        session.ideal("nope", ring)
    with pytest.raises(InputError):
        session.prime("m", ring)  # declared as ideal, not prime
    with pytest.raises(InputError):
        session.param("m", ring)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("char 4\nvars x\n", "must be prime"),
        ("char 5\nchar 5\nvars x\n", "duplicate 'char'"),
        ("vars x\nmod x^2\n", "'char' must be declared first"),
        ("char 5\nvars x x\n", "unique"),
        ("char 5\nvars x\nideal I = x\norder lex\n", "must precede"),
        ("char 5\nvars x\norder fancy\n", "order must be one of"),
        ("char 5\nvars x\nmod x - 1\n", "constant term"),
        ("char 5\nvars x\nmod 5*x\n", "relation is zero"),
        ("char 5\nvars x\nfrobnicate x\n", "unknown directive"),
        ("char 5\nvars x\nideal I = x\nideal I = x\n", "already in use"),
        ("char 5\nvars x\nideal x = x\n", "already in use"),
        ("char 5\nvars x\nideal I = x,,x\n", "empty generator"),
        ("char 5\nvars x\nprime P = x\n", "height"),
        ("char 5\nvars x y\nideal I = x + w\n", "unknown variable 'w'"),
        ("char 5\n", "missing 'vars'"),
        ("vars x\n", "missing 'char'"),
        ("char 5\nvars x y z a b c d e f g h\n", "at most"),
    ],
)
def test_session_errors(text, fragment):
    with pytest.raises(InputError) as err:
        parse_session(text)
    assert fragment in str(err.value), str(err.value)


def test_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        parse_session("char 5\nvars x y\nideal I = x + w\n")
    assert str(err.value).startswith("line 3")


def _poly(text, ring):
    return parse_polynomial(text, 1, 0, ring)


def test_polynomial_grammar():
    ring = ring_of(5, ("x", "y"))
    assert _poly("-x + 2*y", ring) == -ring.var(0) + ring.var(1).scale(2)
    assert _poly("(x + y)^2", ring) == _poly("x^2 + 2*x*y + y^2", ring)
    assert _poly("x - - y", ring) == _poly("x + y", ring)
    assert _poly("7", ring) == ring.constant(2)
    assert _poly("x^0", ring) == ring.one()
    assert _poly("2*(x + 1)*(y + 3)", ring) == _poly("2*x*y + x + 2*y + 1", ring)


@pytest.mark.parametrize(
    "text,column,fragment",
    [
        ("x + $", 5, "unexpected character '$'"),
        ("x ^ y", 5, "exponent must be a nonnegative integer"),
        ("(x + y", 7, "expected ')'"),
        ("x +", 4, "unexpected end of polynomial"),
        ("", 1, "empty polynomial"),
        ("x * * y", 5, "unexpected token"),
    ],
)
def test_polynomial_errors_have_positions(text, column, fragment):
    ring = ring_of(5, ("x", "y"))
    with pytest.raises(InputError) as err:
        _poly(text, ring)
    message = str(err.value)
    assert fragment in message, message
    assert "line 1, column %d" % column in message, message


def test_comments_and_blank_lines_ignored():
    session = parse_session("# header\n\nchar 5  # five\nvars x\nideal I = x # gen\n")
    assert session.p == 5
    assert len(session.ideals["I"]) == 1
