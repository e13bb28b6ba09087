import pytest

from hkcalc import Ideal, InputError, PolynomialRing, parse_polynomial, parse_session
from hkcalc.fixtures import corpus
from helpers import readme_block, ring_of, session_text

QUADRIC = """\
# quadric cone
char 5
vars x y z
order grevlex
mod x*y - z^2
ideal m = x, y, z
ideal J = y, z
prime P = y, z
param f = x
"""


def test_parse_session_quadric():
    session = parse_session(QUADRIC)
    assert session.ring.p == 5
    assert session.ring.variables == ("x", "y", "z")
    assert session.ring.order.kind == "grevlex"
    ring = session.build_ring()
    assert len(ring.relations) == 1
    m = session.ideal("m", ring)
    assert len(m.generators) == 3
    P = session.prime("P", ring)
    assert isinstance(P, Ideal)
    assert len(P.generators) == 2
    f = session.param("f", ring)
    assert f == ring.var(0)
    # a prime can also be fetched as a plain ideal
    as_ideal = session.ideal("P", ring)
    assert as_ideal.generators == P.generators and as_ideal.gb() == P.gb()


def _terms(session):
    """The terms of each polynomial of session, by table and name."""
    params = {name: (g,) for name, g in session.params.items()}
    return [
        {name: [g.terms for g in polys] for name, polys in table.items()}
        for table in ({"mod": session.relations}, session.ideals, session.primes, params)
    ]


def test_session_roundtrip_through_session_text():
    """Every corpus session, the README example and a session in each
    non-default order reparse from session_text() into an equal ring."""
    texts = {f.fixture_id: f.session_text for f in corpus()}
    texts["readme"] = readme_block("reads a session file")
    for kind in ("lex", "grlex"):
        texts[kind] = "char 5\nvars x y\norder %s\nmod x - y^2\nideal I = y^3, x\n" % kind
    for name, text in texts.items():
        session = parse_session(text)
        canonical = session_text(session)
        again = parse_session(canonical)
        assert session_text(again) == canonical, name
        assert again.ring == session.ring, name
        assert _terms(again) == _terms(session), name
        assert [r.lm for r in again.relations] == [r.lm for r in session.relations], name
    assert "order lex\n" in session_text(parse_session(texts["lex"]))


def test_build_ring_rehomes_relations_in_its_order():
    """build_ring presents the session ring, in the order of its order
    line, modulo the relations as parsed."""
    for kind, lm in (("grevlex", (0, 2)), ("lex", (1, 0))):
        session = parse_session("char 5\nvars x y\norder %s\nmod x - y^2\n" % kind)
        ring = session.build_ring()
        (rel,) = ring.relations
        assert ring.ambient is session.ring and rel is session.relations[0]
        assert ring.order.kind == kind and rel.lm == lm


def test_session_polynomials_share_one_relation_free_ring():
    session = parse_session(QUADRIC)
    polys = list(session.relations) + list(session.params.values())
    polys += [g for gens in session.ideals.values() for g in gens]
    polys += [g for gens in session.primes.values() for g in gens]
    assert len({id(g.ring) for g in polys}) == 1
    assert isinstance(polys[0].ring, PolynomialRing)
    assert polys[0].ring is session.ring is session.build_ring().ambient


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
        ("char 5\nvars x\norder lex\norder grlex\n", "line 4: duplicate 'order'"),
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
        ("char 5\nvars x\nprime P = x height 1\n", "unexpected token 'height'"),
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


def _nested(depth):
    return "char 5\nvars x y\nideal m = %sx%s, y\n" % ("(" * depth, ")" * depth)


def test_deep_nesting_is_an_input_error():
    """Nesting past the interpreter's recursion limit is reported at a token
    of its line, not as a RecursionError; the column depends on the caller's
    stack, so it is not pinned."""
    assert [g.render() for g in parse_session(_nested(50)).ideals["m"]] == ["x", "y"]
    with pytest.raises(InputError) as err:
        parse_session(_nested(1000))
    message = str(err.value)
    assert message.startswith("line 3, column ") and message.endswith(": polynomial nested too deeply"), message


@pytest.mark.parametrize("blank", [" ", "   ", "\t"])
@pytest.mark.parametrize("line", ["mod_x*y - w", "ideal_I =_x, w", "prime_P =_y,_w", "param_f =_w"])
def test_error_columns_count_the_raw_line(line, blank):
    """The column of an error is that of its token in the line as written,
    whatever the blanks after the directive and around the polynomials."""
    line = line.replace("_", blank)
    with pytest.raises(InputError) as err:
        parse_session("char 5\nvars x y\n%s\n" % line)
    assert str(err.value) == "line 3, column %d: unknown variable 'w'" % (line.index("w") + 1)


def test_errors_carry_line_numbers():
    with pytest.raises(InputError) as err:
        parse_session("char 5\nvars x y\nideal I = x + w\n")
    assert str(err.value).startswith("line 3")


def _poly(text, ring):
    return parse_polynomial(text, 1, 0, ring)


def test_polynomial_grammar():
    ring = ring_of(5, ("x", "y"))
    assert _poly("-x + 2*y", ring) == -ring.var(0) + ring.var(1) * ring.constant(2)
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
    assert session.ring.p == 5
    assert len(session.ideals["I"]) == 1


# The names that edits insert: variables, session names and keywords.
NAMES = ("x", "y", "z", "m", "P", "f", "height", "lex", "char", "ideal")


def _edit(text, edits):
    """text with each (token, back) applied at back characters from its end:
    a token is inserted there, or with token None the character there is
    dropped unless it is a digit or a space, so that no edit joins two
    integers into a larger one."""
    for token, back in edits:
        at = len(text) - back % (len(text) + 1)
        if token is not None:
            text = text[:at] + token + text[at:]
        elif text[at : at + 1] not in "0123456789 ":
            text = text[:at] + text[at + 1 :]
    return text


def test_parse_session_returns_or_raises_input_error_property():
    """Session texts built from the directives, names, operators and
    integers parse or raise InputError, and nothing else.

    A text is a header and well-formed lines, then up to three edits that
    insert a token or drop a character, most often near the end, so most
    texts reach their polynomials and fail, if at all, at an edit.  No
    integer exceeds 20 and a power's base is a variable or a sum of two, so
    no polynomial grows large."""
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies

    var = st.sampled_from(("x", "y", "z"))
    integer = st.integers(0, 20).map(str)
    factor = st.one_of(
        var,
        integer,
        st.builds("{}^{}".format, var, integer),
        st.builds("({} + {})^{}".format, var, var, integer),
    )
    product = st.builds(" * ".join, st.lists(factor, min_size=1, max_size=3))
    poly = st.builds(" - ".join, st.lists(product, min_size=1, max_size=3))
    gens = st.builds(", ".join, st.lists(poly, min_size=1, max_size=3))
    label = st.sampled_from(("I", "J", "K", "P", "Q", "f", "g", "m"))
    line = st.one_of(
        st.builds("mod {}".format, poly),
        st.builds("{} {} = {}".format, st.sampled_from(("ideal", "prime")), label, gens),
        st.builds("param {} = {}".format, label, poly),
    )
    header = st.sampled_from(
        ("char 5\nvars x y z", "char 2\nvars x y z\norder lex", "char 3\nvars x y")
    )
    token = st.one_of(
        st.builds(" {} ".format, st.one_of(st.sampled_from(NAMES), integer)),
        st.sampled_from(tuple("+-*^(),=\n")),
        st.none(),
    )
    edits = st.lists(st.tuples(token, st.integers(0, 400)), max_size=3)
    sessions = st.builds(
        lambda head, lines, edits: _edit("\n".join([head] + lines), edits),
        header,
        st.lists(line, max_size=5),
        edits,
    )

    @hypothesis.settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @hypothesis.given(sessions)
    def parses_or_rejects(text):
        try:
            parse_session(text)
        except InputError:
            pass

    parses_or_rejects()
