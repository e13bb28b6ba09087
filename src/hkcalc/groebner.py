"""Buchberger's algorithm, normal forms, and reduced Groebner bases.

Each computation packs its monomials into ints by one _Packing, whose
integer order is the monomial order, and unpacks its results once.
Selection follows the normal strategy (minimal S-pair lcm).  Redundant
pairs are dropped as each element is added, in one pass over the active
elements (Gebauer-Moller update, J. Symb. Comp. 6, 1988).  Each term is
reduced by the first element, in basis order, whose leading term divides
it.  The elements left active are the minimal basis, whose tails alone are
then reduced.  This is the one way a reduced basis is computed, for
monomial ideals too.  All tie-breaking is by fixed generator ordering, so
results are bit-reproducible.

normal_form(f, polys) is the one reduction, inside Buchberger and out.  A
GroebnerBasis holds no reducer of its own: reduced bases are canonical, so
an ideal contains another exactly when their sum has the same basis.
"""

from __future__ import annotations

import contextvars
import heapq

from .errors import InputError, ResourceLimitError
from .poly import Polynomial
from .ring import PolynomialRing, PresentedRing

DEFAULT_SPAIR_CAP = 10**6

# The S-pair cap of groebner_basis; the CLI sets it for one run.
SPAIR_CAP = contextvars.ContextVar("SPAIR_CAP", default=DEFAULT_SPAIR_CAP)


class _Packing:
    """Monomials packed into ints (Roune-Stillman, ISSAC 2012; Monagan-Pearce,
    J. Symb. Comp. 46, 2011).

    Low to high: a field per variable (the first on top, for grevlex at the
    bottom), then the order's weights: the degree for grlex, and for grevlex
    the prefix sums s_0, ..., s_{n-1} of the exponents, one multiply by
    1 + B + ... + B^(n-1).  So integer order is the monomial order, + is
    multiplication, and while the fields fit, u divides v iff
    (v - u) & guard == 0, and a sum overflows iff it sets a guard bit.
    """

    __slots__ = ("nvars", "reverse", "weights", "low", "bits", "width", "guard", "ones", "exps")

    def __init__(self, ring: PolynomialRing, polys=()):
        kind, n = ring.order.kind, ring.nvars
        self.nvars, self.reverse = n, kind == "grevlex"
        # The weight fields, and the field of v * ones where they start.
        self.weights, self.low = {"lex": (0, 0), "grlex": (1, n - 1), "grevlex": (n, 0)}[kind]
        self.widen(self.fitting(m for g in polys for m, _ in g.terms))

    def fitting(self, monos) -> int:
        """Value bits for four times any field of these exponent tuples, so a
        basis can outgrow its generators before it widens."""
        size = sum if self.weights else max
        return max(1, (4 * max(map(size, monos), default=0)).bit_length())

    def widen(self, bits: int) -> None:
        """Grow the fields to `bits` value bits; `repack` moves older values."""
        width = self.width = bits + 1
        self.bits = bits
        self.guard = sum(1 << (width * i + bits) for i in range(self.nvars + self.weights))
        self.ones = sum(1 << width * i for i in range(self.nvars))
        self.exps = (1 << width * self.nvars) - 1

    def repack(self, v: int, bits: int) -> int:
        """v, packed with fields of `bits` value bits, packed at this width."""
        w, mask = bits + 1, (1 << bits) - 1
        return sum((v >> w * i & mask) << self.width * i for i in range(self.nvars + self.weights))

    def weigh(self, v: int) -> int:
        """The packed monomial with exponent part v."""
        w = self.width
        return v | (v * self.ones >> w * self.low & (1 << w * self.weights) - 1) << w * self.nvars

    def pack(self, m) -> int:
        v = 0
        for e in reversed(m) if self.reverse else m:
            v = v << self.width | e
        return self.weigh(v)

    def unpack(self, v: int) -> tuple:
        w, mask = self.width, (1 << self.bits) - 1
        m = [v >> w * i & mask for i in range(self.nvars)]
        return tuple(m if self.reverse else reversed(m))

    def fieldmax(self, u: int, v: int) -> int:
        """A field's guard survives (u | guard) - v iff u >= v there."""
        guard = self.guard
        ge = ((u | guard) - v) & guard
        return v ^ ((u ^ v) & (ge - (ge >> self.bits)))


class _TermDict:
    """An unsorted polynomial: `terms` maps each monomial, an int of
    `packing`, to its nonzero coefficient mod p.  A reducer is monic,
    largest term first, with `lm` and `top`, its fieldwise max."""

    __slots__ = ("ring", "terms", "packing", "lm", "top")

    def __init__(self, ring: PolynomialRing, terms: dict, packing: _Packing):
        self.ring, self.terms, self.packing = ring, terms, packing

    def polynomial(self) -> Polynomial:
        """Unpacked; the terms must be largest first."""
        unpack = self.packing.unpack
        return Polynomial._canonical(self.ring, tuple((unpack(m), c) for m, c in self.terms.items()))


class _Reducers:
    """Reducers of one _Packing, in basis order: packed monic _TermDicts."""

    __slots__ = ("ring", "packing", "polys")

    def __init__(self, ring: PolynomialRing, polys=(), packing=None):
        self.ring, self.packing, self.polys = ring, packing or _Packing(ring, polys), []
        for g in polys:
            if not g.is_zero():
                self.add(g)

    def pack(self, terms) -> dict:
        """Terms of the ring, packed; the fields widen to fit them."""
        terms = dict(terms)
        bits = self.packing.fitting(terms)
        if bits > self.packing.bits:
            self.widen(bits)
        return {self.packing.pack(m): c for m, c in terms.items()}

    def add(self, g) -> _TermDict:
        """Append g, a nonzero Polynomial of the ring or packed _TermDict, made monic."""
        self.polys.append(self.reducer(g))
        return self.polys[-1]

    def reducer(self, g) -> _TermDict:
        """g, as add takes it, made a reducer but not appended: the one place
        the kernel makes a polynomial monic."""
        if isinstance(g, _TermDict):
            terms = g.terms
        elif self.ring.owns(g):
            terms = self.pack(g.terms)
        else:
            raise InputError("operands live in different rings")
        p = self.ring.p
        inv = pow(next(iter(terms.values())), -1, p)
        if inv != 1:
            terms = {m: c * inv % p for m, c in terms.items()}
        h = _TermDict(self.ring, terms, self.packing)
        h.lm = top = next(iter(terms))
        guard, bits = self.packing.guard, self.packing.bits
        for m in terms:  # top = fieldmax(top, m), inlined
            ge = ((top | guard) - m) & guard
            top = m ^ ((top ^ m) & (ge - (ge >> bits)))
        h.top = top
        return h

    def find(self, m: int):
        """The first reducer whose leading monomial divides m, or None."""
        guard = self.packing.guard
        for g in self.polys:
            if not (m - g.lm) & guard:
                return g
        return None

    def widen(self, bits: int) -> None:
        old, repack = self.packing.bits, self.packing.repack
        self.packing.widen(bits)
        for g in self.polys:
            g.terms = {repack(m, old): c for m, c in g.terms.items()}
            g.lm, g.top = repack(g.lm, old), repack(g.top, old)


def normal_form(f, basis):
    """Fully reduce f modulo `basis`, a polynomial list or a _Reducers.

    f is a Polynomial, or a _TermDict of the basis's own packing, such as
    an S-polynomial made by s_polynomial; the remainder is of the same
    kind.  Every reducible term is rewritten by the first basis element (in
    the given fixed order) whose leading term divides it, largest terms
    first, so no term of the remainder is divisible by a leading term of
    the basis."""
    ring = f.ring
    if not isinstance(basis, _Reducers):
        basis = _Reducers(ring, basis)
    elif not basis.ring.owns(f):
        raise InputError("operands live in different rings")
    packing = basis.packing
    packed = isinstance(f, _TermDict)
    if packed and not f.terms:
        return f
    work = dict(f.terms) if packed else basis.pack(f.terms)
    guard, find, p = packing.guard, basis.find, ring.p
    out = {}
    while work:
        m = max(work)
        g = find(m)
        if g is None:
            out[m] = work.pop(m)
            continue
        shift = m - g.lm
        if (shift + g.top) & guard:
            # A product would overflow, as lex terms may: widen and redo the step.
            bits = packing.bits
            basis.widen(bits + 1)
            guard = packing.guard
            work, out = ({packing.repack(u, bits): c for u, c in d.items()} for d in (work, out))
            continue
        # Subtract c * x^shift * g, g monic; its leading term cancels m.
        c = work[m]
        for mg, cg in g.terms.items():
            mm = mg + shift
            v = (work.get(mm, 0) - c * cg) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    # Terms were popped largest first, and reduction only adds smaller ones.
    out = _TermDict(ring, out, packing)
    return out if packed else out.polynomial()


def s_polynomial(f, g):
    """S(f, g) for the critical lcm of two reducers of one _Reducers.

    Both are monic, so S(f, g) is x^(lcm - lm f) f - x^(lcm - lm g) g, as
    the unsorted packed term dict normal_form starts from; _buchberger
    keeps its monomials in range."""
    ring, packing = f.ring, f.packing
    if len(f.terms) == len(g.terms) == 1:
        return _TermDict(ring, {}, packing)  # two monic monomials cancel
    p = ring.p
    lcm = packing.weigh(packing.fieldmax(f.lm, g.lm) & packing.exps)
    sf, sg = lcm - f.lm, lcm - g.lm
    terms = {m + sf: c for m, c in f.terms.items()}
    for m, c in g.terms.items():
        m += sg
        v = (terms.get(m, 0) - c) % p
        if v:
            terms[m] = v
        else:
            del terms[m]  # the leading terms cancel
    return _TermDict(ring, terms, packing)


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading term.

    `ring` is the PolynomialRing its elements belong to, not the presented
    ring that caches it, so a cached basis does not refer back to its cache.
    """

    __slots__ = ("ring", "elements")

    def __init__(self, ring: PolynomialRing, elements):
        self.ring = ring
        self.elements = tuple(elements)

    @property
    def leading_monomials(self):
        return tuple(g.lm for g in self.elements)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and tuple(g.terms for g in self.elements) == tuple(g.terms for g in other.elements)
        )

    def __repr__(self) -> str:
        return "GroebnerBasis(%d elements)" % len(self.elements)


def _interreduce(basis):
    """Tail-reduce and unpack a minimal basis, _Reducers sorted ascending.

    Only a smaller leading term divides a term below lm(g), so reducing each
    tail in place, in ascending order, against the whole list takes the same
    steps as against the elements already reduced.  A monomial has no tail
    and stands; a widening re-packs the list, g included.  Tail reduction
    keeps the leading terms, so the result stays sorted."""
    polys, packing = basis.polys, basis.packing
    for k, g in enumerate(polys if len(polys) > 1 else ()):  # alone, g has nothing to reduce by
        tail = normal_form(_TermDict(g.ring, {m: c for m, c in g.terms.items() if m != g.lm}, packing), basis)
        if len(g.terms) > 1:
            polys[k] = basis.reducer(_TermDict(g.ring, {g.lm: 1, **tail.terms}, packing))
    return [g.polynomial() for g in polys]


def groebner_basis(ring: PresentedRing, gens) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring relations), cached on the ring.

    Every basis, a monomial ideal's included, is built one way: _buchberger,
    then _interreduce.  Raises ResourceLimitError once more than SPAIR_CAP
    S-pairs have been generated.  A cached basis generates no S-pairs, so
    the cap does not apply to it.
    """
    ambient = ring.ambient
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if not ambient.owns(g):
            raise InputError("generator lives in a different ring")
    cache_key = tuple(sorted(g.terms for g in gens))
    hit = ring._bases.get(cache_key)
    if hit is not None:
        return hit
    elements = _interreduce(_buchberger(ambient, gens + list(ring.relations)))
    # The bases cached on a ring share many elements (the rungs of a ladder
    # do), so they share one copy of each.
    shared = ring._elements
    result = GroebnerBasis(ambient, [shared.setdefault(g.terms, g) for g in elements])
    ring._bases[cache_key] = result
    return result


def _buchberger(ring, gens):
    """The minimal Groebner basis of (gens) as _Reducers, sorted ascending by
    leading term, but not tail-reduced.

    Every element is fully reduced by the earlier ones before it is added,
    so no earlier leading term divides a later one, and the active elements,
    whose leading terms no later one divides, are the minimal basis.  Their
    leading terms form an antichain, and none divides lm(h) for an added h.

    Redundant pairs are dropped as each h is added, by the Gebauer-Moller
    update (Becker-Weispfenning, Groebner Bases, 5.5), so the pop loop only
    reduces.  A queued pair (i, k) is dropped when lm(h) divides its lcm and
    neither lcm(lm_i, lm_h) nor lcm(lm_k, lm_h) equals it (B_k).  One pass
    over the active elements forms the lcms of the new pairs, keeps the
    first i of each (F), and finds the multiples of lm(h), which form no
    further pairs.  Only lcms minimal under divisibility (M) are queued,
    and no coprime one (product criterion): by the antichain, a coprime
    pair (a, lm(h)) is the only pair of its lcm, as max(b, lm(h)) =
    a + lm(h) makes a divide b.
    """
    spair_cap = SPAIR_CAP.get()
    basis = _Reducers(ring, packing=_Packing(ring, gens))
    packing, G = basis.packing, basis.polys
    plms = []  # exponent parts of the leading monomials
    bits = packing.bits  # the width plms and heap are packed at
    active = []
    heap = []  # (packed lcm, i, k, its exponent part)
    pairs_made = 0

    def add(h):
        nonlocal pairs_made, bits
        j = len(G)
        pairs_made += j
        if pairs_made > spair_cap:
            raise ResourceLimitError("S-pair cap of %d exceeded" % spair_cap)
        h = basis.add(h)
        # Twice each monomial of h fits, so no lcm or S-polynomial overflows.
        while (h.top + h.top) & packing.guard:
            basis.widen(packing.bits + 1)
        if packing.bits != bits:  # widened here or by a reduction
            repack = packing.repack
            plms[:] = [repack(u, bits) for u in plms]
            # Repacking keeps the order, so the heap stays a heap.
            heap[:] = [(repack(e[0], bits), e[1], e[2], repack(e[3], bits)) for e in heap]
            bits = packing.bits
        # The update works on exponent parts, whose guard keeps the ints short.
        p, guard, fieldmax = h.lm & packing.exps, packing.guard & packing.exps, packing.fieldmax
        # B_k, on the queued pairs (i, k) = (e[1], e[2]) with lcm e[3].
        kept = [
            e
            for e in heap
            if (e[3] - p) & guard or fieldmax(plms[e[1]], p) == e[3] or fieldmax(plms[e[2]], p) == e[3]
        ]
        if len(kept) < len(heap):
            heap[:] = kept
            heapq.heapify(heap)
        # New pairs (i, j): the smallest i of each lcm.  Multiples of lm(h)
        # (lcm = their own lm) form no further pairs, but still reduce.
        groups, multiples = {}, []
        for i in active:
            # l = fieldmax(a, p), inlined: this loop runs for every active element.
            a = plms[i]
            ge = ((a | guard) - p) & guard
            l = p ^ ((a ^ p) & (ge - (ge >> bits)))
            if l not in groups:
                groups[l] = i
            if l == a:
                multiples.append(i)
        # M, in ascending packed order: a strict divisor of an lcm packs to
        # a smaller int.  F and the product criterion: one pair per lcm,
        # none if it is coprime (lcm = product).
        minimal = []
        for l in sorted(groups):
            for m in minimal:
                if not (l - m) & guard:
                    break
            else:
                minimal.append(l)
                i = groups[l]
                if l != plms[i] + p:
                    heapq.heappush(heap, (packing.weigh(l), i, j, l))
        if multiples:  # rare: lm(h) divides an active leading term
            active[:] = [i for i in active if i not in multiples]
        active.append(j)
        plms.append(p)

    for g in gens:
        g = _TermDict(ring, basis.pack(g.terms), packing)
        h = normal_form(g, basis) if G else g
        if h.terms:
            add(h)

    while heap:
        _, i, j, _ = heapq.heappop(heap)
        h = normal_form(s_polynomial(G[i], G[j]), basis)
        if h.terms:
            add(h)

    basis.polys = sorted((G[i] for i in active), key=lambda g: g.lm)
    return basis
