"""Buchberger's algorithm, normal forms, and reduced Groebner bases.

Selection follows the normal strategy (minimal S-pair lcm in the ambient
order), with the product and chain criteria.  All tie-breaking is by fixed
generator ordering, so results are bit-reproducible.
"""

from __future__ import annotations

import contextvars
import heapq

from .errors import InputError, ResourceLimitError
from .orders import mono_div, mono_divides, mono_lcm, mono_mul
from .poly import Polynomial
from .ring import PresentedRing

DEFAULT_SPAIR_CAP = 10**6

# The S-pair cap of groebner_basis; the CLI sets it for one run.
SPAIR_CAP = contextvars.ContextVar("SPAIR_CAP", default=DEFAULT_SPAIR_CAP)


def normal_form(f: Polynomial, basis) -> Polynomial:
    """Fully reduce f modulo the polynomial list `basis`.

    Every reducible term is rewritten by the first basis element (in the
    given fixed order) whose leading term divides it, largest terms first.
    The remainder has no term divisible by any leading term of the basis.
    """
    ring = f.ring
    divisors = []
    for g in basis:
        if not g.is_zero():
            if g.ring is not ring:
                f._check(g)
            divisors.append((g.lm, ring.field.inv(g.lc), g.terms))
    p = ring.field.p
    key = ring.order.key
    work = dict(f.terms)
    out = {}
    while work:
        m = max(work, key=key)
        c = work[m]
        for lm, lcinv, terms in divisors:
            if mono_divides(lm, m):
                # Subtract (c / lc(g)) * x^(m - lm) * g; the leading term of
                # the product cancels m exactly.
                shift = mono_div(m, lm)
                coef = c * lcinv % p
                for mg, cg in terms:
                    mm = mono_mul(mg, shift)
                    v = (work.get(mm, 0) - coef * cg) % p
                    if v:
                        work[mm] = v
                    elif mm in work:
                        del work[mm]
                break
        else:
            out[m] = work.pop(m)
    return Polynomial(ring, out.items())


def s_polynomial(f: Polynomial, g: Polynomial) -> Polynomial:
    """S(f, g) for the pair's critical lcm; operands need not be monic."""
    lcm = mono_lcm(f.lm, g.lm)
    p = f.ring.field.p
    a = f.mul_term(mono_div(lcm, f.lm), g.lc % p)
    b = g.mul_term(mono_div(lcm, g.lm), f.lc % p)
    return a - b


class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading term."""

    __slots__ = ("ring", "elements")

    def __init__(self, ring: PresentedRing, elements):
        self.ring = ring
        self.elements = tuple(elements)

    @property
    def leading_monomials(self):
        return tuple(g.lm for g in self.elements)

    def normal_form(self, f: Polynomial) -> Polynomial:
        if not self.elements:
            return f
        return normal_form(f, self.elements)

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


def _minimal(key, basis):
    """Elements whose leading term no smaller element's divides, ascending."""
    minimal = []
    for g in sorted(basis, key=lambda g: key(g.lm)):
        if not any(mono_divides(h.lm, g.lm) for h in minimal):
            minimal.append(g)
    return minimal


def _interreduce(ring, basis):
    """Minimalize by leading term, then tail-reduce each element.

    Tail reduction keeps every leading term, so the result stays sorted."""
    reduced = _minimal(ring.order.key, basis)
    for i, g in enumerate(reduced):
        others = reduced[:i] + reduced[i + 1 :]
        reduced[i] = normal_form(g, others).monic() if others else g.monic()
    return GroebnerBasis(ring, reduced)


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
    key = ring.order.key
    if all(g.is_monomial() for g in gens):
        # The minimal generators of a monomial ideal, made monic, are its
        # reduced basis: no tail can be reduced.
        result = GroebnerBasis(ring, [g.monic() for g in _minimal(key, gens)])
    else:
        result = _interreduce(ring, _buchberger(key, gens))
    ring._bases[cache_key] = result
    return result


def _buchberger(key, gens):
    """A Groebner basis of (gens), neither minimal nor reduced."""
    spair_cap = SPAIR_CAP.get()
    G = []
    lms = []
    heap = []
    pending = set()
    pairs_made = 0

    def push_pairs(j):
        nonlocal pairs_made
        for i in range(j):
            lcm = mono_lcm(lms[i], lms[j])
            heapq.heappush(heap, (key(lcm), i, j, lcm))
            pending.add((i, j))
            pairs_made += 1
            if pairs_made > spair_cap:
                raise ResourceLimitError("S-pair cap of %d exceeded" % spair_cap)

    def add(h):
        h = h.monic()
        G.append(h)
        lms.append(h.lm)
        push_pairs(len(G) - 1)

    for g in gens:
        h = normal_form(g, G) if G else g
        if not h.is_zero():
            add(h)

    while heap:
        _, i, j, lcm = heapq.heappop(heap)
        pending.discard((i, j))
        # Product criterion: coprime leading terms reduce to zero.
        if lcm == mono_mul(lms[i], lms[j]):
            continue
        # Chain criterion: a third element dividing the lcm whose pairs with
        # i and j were both already handled makes this pair redundant.
        skip = False
        for k in range(len(G)):
            if k == i or k == j or not mono_divides(lms[k], lcm):
                continue
            a = (i, k) if i < k else (k, i)
            b = (j, k) if j < k else (k, j)
            if a not in pending and b not in pending:
                skip = True
                break
        if skip:
            continue
        s = s_polynomial(G[i], G[j])
        h = normal_form(s, G)
        if not h.is_zero():
            add(h)

    return G
