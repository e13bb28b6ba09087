"""Buchberger's algorithm, normal forms, and reduced Groebner bases.

Selection follows the normal strategy (minimal S-pair lcm in the ambient
order).  Redundant pairs are dropped as each element is added, by the
Gebauer-Moller update (J. Symb. Comp. 6, 1988), not at selection; the
update runs on leading monomials packed into ints, so a divisibility test
is one subtract-and-mask.  S-polynomials are built straight into the term
dict that normal_form reduces.  The elements left active at the end are
the minimal basis, which is then tail-reduced.  All tie-breaking is by
fixed generator ordering, so results are bit-reproducible.
"""

from __future__ import annotations

import contextvars
import heapq
from bisect import bisect_left, bisect_right
from operator import add, sub

from .errors import InputError, ResourceLimitError
from .poly import Polynomial
from .ring import PolynomialRing, PresentedRing

DEFAULT_SPAIR_CAP = 10**6

# The S-pair cap of groebner_basis; the CLI sets it for one run.
SPAIR_CAP = contextvars.ContextVar("SPAIR_CAP", default=DEFAULT_SPAIR_CAP)


class _LeadIndex:
    """The leading terms of a polynomial list, indexed for divisibility.

    For each variable, `exps` holds the distinct leading exponents in
    ascending order, and `masks[t]` the bitmask of the list positions whose
    exponent is one of exps[:t].  The positions whose leading term divides m
    are then one bisect and one AND per variable.  Each position also keeps
    its reducer: (lm, 1/lc, terms).
    """

    __slots__ = ("ring", "exps", "masks", "reducers")

    def __init__(self, ring: PolynomialRing, polys=()):
        self.ring = ring
        self.exps = [[] for _ in range(ring.nvars)]
        self.masks = [[0] for _ in range(ring.nvars)]
        self.reducers = []
        for g in polys:
            if not g.is_zero():
                self.add(g)

    def add(self, g: Polynomial) -> None:
        """Append g (nonzero) as the next position."""
        if not self.ring.owns(g):
            raise InputError("operands live in different rings")
        bit = 1 << len(self.reducers)
        lm = g.lm
        for e, exps, masks in zip(lm, self.exps, self.masks):
            t = bisect_left(exps, e)
            if t == len(exps) or exps[t] != e:
                exps.insert(t, e)
                masks.insert(t + 1, masks[t])
            for u in range(t + 1, len(masks)):
                masks[u] |= bit
        lc = g.lc
        self.reducers.append((lm, 1 if lc == 1 else self.ring.field.inv(lc), g.terms))

    def dividing(self, m) -> int:
        """Bitmask of the positions whose leading term divides m."""
        mask = -1
        for e, exps, masks in zip(m, self.exps, self.masks):
            mask &= masks[bisect_right(exps, e)]
        return mask


class _PackedMonomials:
    """Monomials packed into one int (Roune-Stillman, ISSAC 2012).

    Each variable has a field of `bits` value bits and one guard bit above
    them, lowest variable lowest.  While every exponent fits its field, u
    divides v iff (v - u) & guard == 0, u and v are coprime iff
    lcm(u, v) == u + v, and a strict divisor of v packs to a smaller int.
    `widen` grows the fields to fit the exponents it is shown, so they
    never overflow; values packed before a widening must be packed again.
    """

    __slots__ = ("bits", "guard")

    def __init__(self):
        self.bits = -1  # no width yet
        self.guard = 0

    def widen(self, m) -> bool:
        """Make every exponent of m fit; True iff the packing changed."""
        bits = max(m).bit_length()
        if bits <= self.bits:
            return False
        self.bits = bits
        self.guard = sum(1 << ((bits + 1) * i + bits) for i in range(len(m)))
        return True

    def pack(self, m) -> int:
        width = self.bits + 1
        v = 0
        for e in reversed(m):
            v = (v << width) | e
        return v

    def lcm(self, u: int, v: int) -> int:
        """Fieldwise max: a field's guard survives (u | guard) - v iff u >= v there."""
        guard = self.guard
        ge = ((u | guard) - v) & guard
        return v ^ ((u ^ v) & (ge - (ge >> self.bits)))


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo `basis`, a polynomial list or a _LeadIndex.

    f is a Polynomial or an S-polynomial made by s_polynomial.
    Every reducible term is rewritten by the first basis element (in the
    given fixed order) whose leading term divides it, largest terms first.
    The remainder has no term divisible by any leading term of the basis.
    """
    ring = f.ring
    if isinstance(basis, _LeadIndex):
        if not basis.ring.owns(f):
            raise InputError("operands live in different rings")
    else:
        basis = _LeadIndex(ring, basis)
    dividing = basis.dividing
    reducers = basis.reducers
    p = ring.field.p
    key = ring.order.key
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=key)
        mask = dividing(m)
        if not mask:
            out[m] = work.pop(m)
            continue
        # The lowest set bit is the first divisor in the basis order.
        lm, lcinv, terms = reducers[(mask & -mask).bit_length() - 1]
        # Subtract (c / lc(g)) * x^(m - lm) * g; the leading term of the
        # product cancels m exactly.
        shift = tuple(map(sub, m, lm))
        coef = work[m] * lcinv % p
        for mg, cg in terms:
            mm = tuple(map(add, mg, shift))
            v = (work.get(mm, 0) - coef * cg) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    # Terms were popped largest first, and reduction only adds smaller ones.
    return Polynomial._canonical(ring, tuple(out.items()))


class _TermDict:
    """An unsorted polynomial: `terms` maps each monomial to its nonzero
    coefficient mod p.  normal_form reduces it like a Polynomial."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolynomialRing, terms: dict):
        self.ring = ring
        self.terms = terms


def s_polynomial(f: Polynomial, g: Polynomial) -> _TermDict:
    """S(f, g) for the pair's critical lcm; operands need not be monic.

    The leading terms cancel, so only the two tails are multiplied out, into
    the unsorted term dict normal_form starts from: S-polynomials are made
    to be reduced, so none is sorted into a Polynomial.  Pass its
    `terms.items()` to Polynomial for a sorted one."""
    f._check(g)
    p = f.ring.field.p
    flm, glm = f.lm, g.lm
    lcm = tuple(map(max, flm, glm))
    sf, sg = tuple(map(sub, lcm, flm)), tuple(map(sub, lcm, glm))
    cf, cg = g.lc, p - f.lc
    terms = {tuple(map(add, m, sf)): c * cf % p for m, c in f.terms[1:]}
    for m, c in g.terms[1:]:
        m = tuple(map(add, m, sg))
        v = (terms.get(m, 0) + c * cg) % p
        if v:
            terms[m] = v
        else:
            terms.pop(m, None)
    return _TermDict(f.ring, terms)


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading term.

    `ring` is the PolynomialRing its elements belong to, not the presented
    ring that caches it, so a cached basis does not refer back to its cache.
    """

    __slots__ = ("ring", "elements", "_index")

    def __init__(self, ring: PolynomialRing, elements):
        self.ring = ring
        self.elements = tuple(elements)
        self._index = None  # built on the first normal_form: bases only counted hold none

    @property
    def leading_monomials(self):
        return tuple(g.lm for g in self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.elements:
            return f
        if self._index is None:
            self._index = _LeadIndex(self.ring, self.elements)
        return normal_form(f, self._index)

    def contains(self, f: Polynomial) -> bool:
        return self.normal_form(f).is_zero()

    def is_unit_ideal(self) -> bool:
        return len(self.elements) == 1 and self.elements[0].is_constant() and not self.elements[0].is_zero()

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GroebnerBasis)
            and self.ring == other.ring
            and tuple(g.terms for g in self.elements) == tuple(g.terms for g in other.elements)
        )

    def __hash__(self) -> int:
        return hash(tuple(g.terms for g in self.elements))

    def __repr__(self) -> str:
        return "GroebnerBasis(%d elements)" % len(self.elements)


def _minimal(ring, basis):
    """Elements whose leading term no smaller element's divides, ascending.
    Only monomial ideals need this; _buchberger's output is minimal."""
    key = ring.order.key
    index = _LeadIndex(ring)
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.lm)):
        if not index.dividing(g.lm):
            index.add(g)
            minimal.append(g)
    return minimal


def _interreduce(ring, basis):
    """Tail-reduce a minimal basis, sorted ascending by leading term.

    Only a smaller leading term divides a term of g below lm(g), so reducing
    in ascending order against the elements already reduced takes the same
    steps as reducing against all the others.  Tail reduction keeps every
    leading term, so the result stays sorted."""
    if len(basis) == 1:
        return [basis[0].monic()]
    reduced = []
    index = _LeadIndex(ring)
    for g in basis:
        reduced.append(normal_form(g, index).monic())
        index.add(reduced[-1])
    return reduced


def groebner_basis(ring: PresentedRing, gens) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring relations), cached on the ring.

    Raises ResourceLimitError once more than SPAIR_CAP S-pairs have been
    generated.  A cached basis generates no S-pairs, so the cap does not
    apply to it.
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
    gens = gens + list(ring.relations)
    if all(g.is_monomial() for g in gens):
        # The minimal generators of a monomial ideal, made monic, are its
        # reduced basis: no tail can be reduced.
        elements = [g.monic() for g in _minimal(ambient, gens)]
    else:
        elements = _interreduce(ambient, _buchberger(ambient, gens))
    # The bases cached on a ring share many elements (the rungs of a ladder
    # do), so they share one copy of each.
    shared = ring._elements
    result = GroebnerBasis(ambient, [shared.setdefault(g.terms, g) for g in elements])
    ring._bases[cache_key] = result
    return result


def _buchberger(ring, gens):
    """The minimal Groebner basis of (gens), monic and sorted ascending by
    leading term, but not tail-reduced.

    Redundant pairs are dropped as each element h is added, by the
    Gebauer-Moller update (Becker-Weispfenning, Groebner Bases, 5.5), so
    the pop loop only reduces.  A queued pair (i, k) is dropped when lm(h)
    divides its lcm and neither lcm(lm_i, lm_h) nor lcm(lm_k, lm_h) equals
    it (B_k).  Of the new pairs with h, one per lcm is queued (F), and only
    for lcms that are minimal under divisibility (M) and shared with no
    pair of coprime leading terms (product criterion).  Elements whose
    leading term is a multiple of lm(h) form no further pairs.

    Every element is fully reduced by the earlier ones before it is added,
    so no earlier leading term divides a later one, and the elements whose
    leading terms no later one divides are the minimal basis.
    """
    spair_cap = SPAIR_CAP.get()
    key = ring.order.key
    G = []
    lms = []
    packed = _PackedMonomials()
    plms = []  # packed leading monomials
    active = []
    index = _LeadIndex(ring)
    heap = []  # (order key of the lcm, i, k, packed lcm)
    pairs_made = 0

    def add(h):
        nonlocal heap, pairs_made
        h = h.monic()
        j = len(G)
        pairs_made += j
        if pairs_made > spair_cap:
            raise ResourceLimitError("S-pair cap of %d exceeded" % spair_cap)
        lm = h.lm
        if packed.widen(lm):
            plms[:] = map(packed.pack, lms)
            heap = [(e[0], e[1], e[2], packed.lcm(plms[e[1]], plms[e[2]])) for e in heap]
        p = packed.pack(lm)
        guard, bits = packed.guard, packed.bits
        lcm = packed.lcm
        # B_k, on the queued pairs (i, k) = (e[1], e[2]) with lcm e[3].
        heap = [
            e
            for e in heap
            if (e[3] - p) & guard or lcm(plms[e[1]], p) == e[3] or lcm(plms[e[2]], p) == e[3]
        ]
        # New pairs (i, j), grouped by lcm: the smallest i, and whether any
        # pair of the group has coprime leading terms (lcm = product).
        groups = {}
        for i in active:
            # l = lcm(a, p), inlined: this loop runs for every active element.
            a = plms[i]
            ge = ((a | guard) - p) & guard
            l = p ^ ((a ^ p) & (ge - (ge >> bits)))
            group = groups.get(l)
            if group is None:
                groups[l] = [i, l == a + p]
            elif l == a + p:
                group[1] = True
        # M, in ascending packed order: a strict divisor of an lcm packs to
        # a smaller int.  F: one pair per lcm, none if any of its pairs is
        # coprime.
        minimal = []
        for l in sorted(groups):
            for m in minimal:
                if not (l - m) & guard:
                    break
            else:
                minimal.append(l)
                i, coprime = groups[l]
                if not coprime:
                    heap.append((key(tuple(map(max, lms[i], lm))), i, j, l))
        heapq.heapify(heap)
        # Multiples of lm form no further pairs, but still reduce.
        active[:] = [i for i in active if (plms[i] - p) & guard]
        active.append(j)
        G.append(h)
        lms.append(lm)
        plms.append(p)
        index.add(h)

    for g in gens:
        h = normal_form(g, index) if G else g
        if not h.is_zero():
            add(h)

    while heap:
        _, i, j, _ = heapq.heappop(heap)
        h = normal_form(s_polynomial(G[i], G[j]), index)
        if not h.is_zero():
            add(h)

    return sorted((G[i] for i in active), key=lambda g: key(g.lm))
