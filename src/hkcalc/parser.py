"""The ring/ideal DSL and its polynomial grammar.

Session files look like::

    # quadric cone
    char 5
    vars x y z
    order grevlex
    mod x*y - z^2
    ideal m = x, y, z
    prime P = y, z
    param f = x

Polynomials use integer coefficients, ``+ - * ^`` and parentheses, are
whitespace-insensitive, and are reduced mod p on the spot.  Errors carry
line and column positions.  A ``prime`` line reads like an ``ideal`` line;
the checks that take a prime test the hypotheses they need.  A session
builds one PolynomialRing, from its ``char``, ``vars`` and ``order`` lines,
and every polynomial it parses belongs to that ring; ``build_ring``
presents it modulo the ``mod`` relations as a PresentedRing.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import InputError
from .field import characteristic
from .ideals import Ideal
from .orders import ORDER_KINDS, MonomialOrder
from .poly import Polynomial
from .ring import PolynomialRing, PresentedRing

MAX_VARS = 10

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([-+*^()]))")


class _PolyParser:
    """Recursive-descent parser for the polynomial grammar."""

    def __init__(self, text: str, line: int, col0: int, ring):
        self.text = text
        self.line = line
        self.col0 = col0
        self.ring = ring
        self.tokens = []
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None or m.end() == pos:
                rest = text[pos:].lstrip()
                if not rest:
                    break
                self._fail(pos + (len(text[pos:]) - len(rest)), "unexpected character %r" % rest[0])
            kind = "int" if m.group(1) else ("name" if m.group(2) else "op")
            value = m.group(1) or m.group(2) or m.group(3)
            self.tokens.append((kind, value, m.end() - len(value)))
            pos = m.end()
        self.i = 0

    def _fail(self, col, msg):
        raise InputError("line %d, column %d: %s" % (self.line, self.col0 + col + 1, msg))

    def _peek(self):
        return self.tokens[self.i] if self.i < len(self.tokens) else (None, None, len(self.text))

    def _next(self):
        tok = self._peek()
        self.i += 1
        return tok

    def parse(self) -> Polynomial:
        if not self.tokens:
            self._fail(0, "empty polynomial")
        try:
            poly = self._expr()
        except RecursionError:
            self._fail(self._peek()[2], "polynomial nested too deeply")
        kind, value, col = self._peek()
        if kind is not None:
            self._fail(col, "unexpected token %r" % value)
        return poly

    def _expr(self) -> Polynomial:
        poly = self._term()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                rhs = self._term()
                poly = poly + rhs if value == "+" else poly - rhs
            else:
                return poly

    def _term(self) -> Polynomial:
        sign = 1
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value in "+-":
                self._next()
                if value == "-":
                    sign = -sign
            else:
                break
        poly = self._factor()
        while True:
            kind, value, _ = self._peek()
            if kind == "op" and value == "*":
                self._next()
                poly = poly * self._factor()
            else:
                break
        return poly if sign == 1 else -poly

    def _factor(self) -> Polynomial:
        poly = self._atom()
        kind, value, _ = self._peek()
        if kind == "op" and value == "^":
            self._next()
            kind, value, col = self._next()
            if kind != "int":
                self._fail(col, "exponent must be a nonnegative integer")
            poly = poly ** int(value)
        return poly

    def _atom(self) -> Polynomial:
        kind, value, col = self._next()
        if kind == "int":
            return self.ring.constant(int(value))
        if kind == "name":
            if value not in self.ring.variables:
                self._fail(col, "unknown variable %r" % value)
            return self.ring.var(value)
        if kind == "op" and value == "(":
            poly = self._expr()
            kind, value, col = self._next()
            if value != ")":
                self._fail(col, "expected ')'")
            return poly
        if kind is None:
            self._fail(col, "unexpected end of polynomial")
        self._fail(col, "unexpected token %r" % value)


def parse_polynomial(text, line, col0, ring) -> Polynomial:
    """Parse text into a polynomial of ring, a PolynomialRing or a
    PresentedRing; line and col0 place it in its file for error messages."""
    return _PolyParser(text, line, col0, ring).parse()


class SessionInput(NamedTuple):
    """A parsed session: its one PolynomialRing, which holds p, the
    variables and the order, and its relations and named ideals, primes
    and params, every polynomial of them in that ring."""

    ring: PolynomialRing
    relations: tuple  # of Polynomial
    ideals: dict  # name -> tuple of Polynomial
    primes: dict  # name -> tuple of Polynomial
    params: dict  # name -> Polynomial

    def build_ring(self) -> PresentedRing:
        """A fresh PresentedRing, the session ring modulo the relations,
        with no Groebner basis cached on it yet."""
        return PresentedRing(self.ring, self.relations)

    def ideal(self, name, ring: PresentedRing) -> Ideal:
        """The ideal or prime called name, in ring, a PresentedRing over
        the session ring."""
        if name in self.primes:
            return self.prime(name, ring)
        if name not in self.ideals:
            raise InputError("unknown ideal %r" % name)
        return Ideal(ring, self.ideals[name])

    def prime(self, name, ring: PresentedRing) -> Ideal:
        if name not in self.primes:
            raise InputError("unknown prime %r" % name)
        return Ideal(ring, self.primes[name])

    def param(self, name, ring: PresentedRing) -> Polynomial:
        if name not in self.params:
            raise InputError("unknown parameter %r" % name)
        if not ring.owns(self.params[name]):
            raise InputError("parameter lives in a different ring")
        return self.params[name]


def _strip_comment(line: str) -> str:
    idx = line.find("#")
    return line if idx < 0 else line[:idx]


def parse_session(text: str) -> SessionInput:
    p = None
    variables = None
    order_kind = None  # grevlex when the session has no order line
    ring = None  # the PolynomialRing, built at the first polynomial or the end
    relations = []
    ideals = {}
    primes = {}
    params = {}
    seen_names = set()

    def ring_ready(lineno):
        if p is None:
            raise InputError("line %d: 'char' must be declared first" % lineno)
        if variables is None:
            raise InputError("line %d: 'vars' must be declared before polynomials" % lineno)

    def session_ring():
        nonlocal ring
        if ring is None:
            ring = PolynomialRing(p, variables, MonomialOrder(order_kind or "grevlex"))
        return ring

    def parse_poly(chunk, lineno, col0):
        return parse_polynomial(chunk, lineno, col0, session_ring())

    def parse_gen_list(rhs, lineno, col0):
        gens = []
        for part in rhs.split(","):
            if not part.strip():
                raise InputError("line %d: empty generator in list" % lineno)
            gens.append(parse_poly(part, lineno, col0))
            col0 += len(part) + 1
        return tuple(gens)

    # Each polynomial is parsed as it stands in its line, from its offset
    # there, so that its errors name the line's own columns.
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        keyword = line.split()[0]
        col0 = line.index(keyword) + len(keyword)
        rest = line[col0:]
        if keyword == "char":
            if p is not None:
                raise InputError("line %d: duplicate 'char'" % lineno)
            try:
                p = int(rest)
            except ValueError:
                raise InputError("line %d: characteristic must be an integer" % lineno) from None
            try:
                characteristic(p)
            except InputError as exc:
                raise InputError("line %d: %s" % (lineno, exc)) from None
        elif keyword == "vars":
            if variables is not None:
                raise InputError("line %d: duplicate 'vars'" % lineno)
            names = rest.split()
            if not names:
                raise InputError("line %d: 'vars' needs at least one name" % lineno)
            for name in names:
                if not _NAME_RE.fullmatch(name):
                    raise InputError("line %d: invalid variable name %r" % (lineno, name))
            if len(set(names)) != len(names):
                raise InputError("line %d: variable names must be unique" % lineno)
            if len(names) > MAX_VARS:
                raise InputError("line %d: at most %d variables" % (lineno, MAX_VARS))
            variables = tuple(names)
        elif keyword == "order":
            if order_kind is not None:
                raise InputError("line %d: duplicate 'order'" % lineno)
            order_kind = rest.strip()
            if order_kind not in ORDER_KINDS:
                raise InputError(
                    "line %d: order must be one of %s" % (lineno, ", ".join(ORDER_KINDS))
                )
            if ring is not None:
                raise InputError("line %d: 'order' must precede polynomials" % lineno)
        elif keyword == "mod":
            ring_ready(lineno)
            rel = parse_poly(rest, lineno, col0)
            if rel.is_zero():
                raise InputError("line %d: relation is zero" % lineno)
            if rel.constant_term() != 0:
                raise InputError("line %d: relation has nonzero constant term" % lineno)
            relations.append(rel)
        elif keyword in ("ideal", "prime", "param"):
            ring_ready(lineno)
            name, eq, rhs = rest.partition("=")
            name = name.strip()
            if not eq or not _NAME_RE.fullmatch(name):
                raise InputError("line %d: expected '%s <name> = ...'" % (lineno, keyword))
            if name in seen_names or name in variables:
                raise InputError("line %d: name %r already in use" % (lineno, name))
            seen_names.add(name)
            rhs_col = col0 + rest.index("=") + 1
            if keyword == "param":
                params[name] = parse_poly(rhs, lineno, rhs_col)
            else:
                table = ideals if keyword == "ideal" else primes
                table[name] = parse_gen_list(rhs, lineno, rhs_col)
        else:
            raise InputError("line %d: unknown directive %r" % (lineno, keyword))

    if p is None:
        raise InputError("missing 'char' directive")
    if variables is None:
        raise InputError("missing 'vars' directive")
    return SessionInput(
        ring=session_ring(),
        relations=tuple(relations),
        ideals=ideals,
        primes=primes,
        params=params,
    )
