"""Buchberger's algorithm, normal forms, and reduced Groebner bases.

Selection follows the normal strategy (minimal S-pair lcm in the ambient
order).  Redundant pairs are dropped as each element is added, by the
Gebauer-Moller update (J. Symb. Comp. 6, 1988), not at selection.  All
tie-breaking is by fixed generator ordering, so results are
bit-reproducible.
"""

from __future__ import annotations

import contextvars
import heapq
from bisect import bisect_left, bisect_right
from operator import le

from .errors import InputError, ResourceLimitError
from .orders import mono_div, mono_lcm, mono_mul
from .poly import Polynomial
from .ring import PresentedRing

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

    def __init__(self, ring: PresentedRing, polys=()):
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


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo `basis`, a polynomial list or a _LeadIndex.

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
        shift = mono_div(m, lm)
        coef = work[m] * lcinv % p
        for mg, cg in terms:
            mm = mono_mul(mg, shift)
            v = (work.get(mm, 0) - coef * cg) % p
            if v:
                work[mm] = v
            elif mm in work:
                del work[mm]
    return Polynomial(ring, out.items())


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) for the pair's critical lcm; operands need not be monic.
    The leading terms cancel, so only the two tails are multiplied out."""
    f._check(g)
    lcm = mono_lcm(f.lm, g.lm)
    sf, sg = mono_div(lcm, f.lm), mono_div(lcm, g.lm)
    cf, cg = g.lc, f.ring.field.p - f.lc
    terms = [(mono_mul(m, sf), c * cf) for m, c in f.terms[1:]]
    terms += [(mono_mul(m, sg), c * cg) for m, c in g.terms[1:]]
    return Polynomial(f.ring, terms)


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading term."""

    __slots__ = ("ring", "elements", "_index")

    def __init__(self, ring: PresentedRing, elements):
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
    """Elements whose leading term no smaller element's divides, ascending."""
    key = ring.order.key
    index = _LeadIndex(ring)
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.lm)):
        if not index.dividing(g.lm):
            index.add(g)
            minimal.append(g)
    return minimal


def _interreduce(ring, basis):
    """Minimalize by leading term, then tail-reduce each element.

    Only a smaller leading term divides a term of g below lm(g), so reducing
    in ascending order against the elements already reduced takes the same
    steps as reducing against all the others.  Tail reduction keeps every
    leading term, so the result stays sorted."""
    reduced = _minimal(ring, basis)
    if len(reduced) == 1:
        return [reduced[0].monic()]
    index = _LeadIndex(ring)
    for i, g in enumerate(reduced):
        reduced[i] = normal_form(g, index).monic()
        index.add(reduced[i])
    return reduced


def groebner_basis(ring: PresentedRing, gens) -> GroebnerBasis:
    """Reduced Groebner basis of (gens) + (ring relations), cached on the ring.

    Raises ResourceLimitError once more than SPAIR_CAP S-pairs have been
    generated.  A cached basis generates no S-pairs, so the cap does not
    apply to it.
    """
    gens = [g for g in gens if not g.is_zero()]
    for g in gens:
        if not ring.owns(g):
            raise InputError("generator lives in a different ring")
    cache_key = tuple(sorted(g.terms for g in gens))
    hit = ring._bases.get(cache_key)
    if hit is not None:
        return hit
    gens = gens + list(ring.relations)
    if all(g.is_monomial() for g in gens):
        # The minimal generators of a monomial ideal, made monic, are its
        # reduced basis: no tail can be reduced.
        elements = [g.monic() for g in _minimal(ring, gens)]
    else:
        elements = _interreduce(ring, _buchberger(ring, gens))
    # The bases cached on a ring share many elements (the rungs of a ladder
    # do), so they share one copy of each.
    shared = ring._elements
    result = GroebnerBasis(ring, [shared.setdefault(g.terms, g) for g in elements])
    ring._bases[cache_key] = result
    return result


def _buchberger(ring, gens):
    """A Groebner basis of (gens), neither minimal nor reduced.

    Redundant pairs are dropped as each element h is added, by the
    Gebauer-Moller update (Becker-Weispfenning, Groebner Bases, 5.5), so
    the pop loop only reduces.  A queued pair (i, k) is dropped when lm(h)
    divides its lcm and neither lcm(lm_i, lm_h) nor lcm(lm_k, lm_h) equals
    it (B_k).  Of the new pairs with h, one per lcm is queued (F), and only
    for lcms that are minimal under divisibility (M) and shared with no
    pair of coprime leading terms (product criterion).  Elements whose
    leading term is a multiple of lm(h) form no further pairs.
    """
    spair_cap = SPAIR_CAP.get()
    key = ring.order.key
    G = []
    lms = []
    degs = []
    active = []
    index = _LeadIndex(ring)
    heap = []
    pairs_made = 0

    def add(h):
        nonlocal heap, pairs_made
        h = h.monic()
        j = len(G)
        pairs_made += j
        if pairs_made > spair_cap:
            raise ResourceLimitError("S-pair cap of %d exceeded" % spair_cap)
        lm = h.lm
        deg = sum(lm)
        # B_k, on the queued pairs (i, k) = (e[1], e[2]) with lcm e[3].
        heap = [
            e
            for e in heap
            if not all(map(le, lm, e[3]))
            or tuple(map(max, lms[e[1]], lm)) == e[3]
            or tuple(map(max, lms[e[2]], lm)) == e[3]
        ]
        # New pairs (i, j), grouped by lcm: the smallest i, and whether any
        # pair of the group has coprime leading terms.
        groups = {}
        for i in active:
            lcm = tuple(map(max, lms[i], lm))
            group = groups.setdefault(lcm, [i, False])
            if sum(lcm) == degs[i] + deg:
                group[1] = True
        # M, in ascending degree: a strict divisor of an lcm has a smaller
        # degree.  F: one pair per lcm, none if any of its pairs is coprime.
        minimal = []
        for lcm in sorted(groups, key=sum):
            if not any(all(map(le, m, lcm)) for m in minimal):
                minimal.append(lcm)
                i, coprime = groups[lcm]
                if not coprime:
                    heap.append((key(lcm), i, j, lcm))
        heapq.heapify(heap)
        # Multiples of lm form no further pairs, but still reduce.
        active[:] = [i for i in active if not all(map(le, lm, lms[i]))]
        active.append(j)
        G.append(h)
        lms.append(lm)
        degs.append(deg)
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

    return G
