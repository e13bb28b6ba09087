"""Lengths and multiplicities: Krull dimension, colengths, and the
Hilbert-Samuel multiplicity of a parameter on a one-dimensional quotient.

The global (affine) colength counts standard monomials of the leading-term
ideal, which monomial input is itself, so that needs no basis: in closed
form for one variable, in one sweep that lowers a planar staircase corner by
corner for two and three, and by slicing down to that sweep for more.
The local quantities, at the origin, read one local leading ideal, found by
Lazard's homogenization (Greuel-Pfister, A Singular Introduction to
Commutative Algebra, 1.7): the local colength counts its standard
monomials, and the local ring has its dimension.  Graded ideals skip the
homogenization, as their global leading ideal gives the same values.  So
does input holding a pure power of every variable: its quotient lives at
the origin alone, so it is local already, and its global leading ideal has
as many standard monomials as the local one and gives dimension 0
(Cox-Little-O'Shea, Using Algebraic Geometry, 4.2).  dimension and
local_colength each decide once per call which of the two routes to take.
quotient_length tests I in J at the origin from local colengths too, and
tests no membership.
"""

from __future__ import annotations

import itertools
from bisect import bisect_right
from typing import NamedTuple

from .errors import CertificationError, InputError
from .ideals import Ideal
from .orders import MonomialOrder
from .poly import Polynomial
from .ring import PolynomialRing, PresentedRing

# Least certification floor and least ladder length for hilbert_samuel.
HS_FLOOR = 3
HS_CAP = 64


class _Infinite:
    """The length of a non-Artinian quotient: a tag compared by identity
    (`is INFINITE`) and tested with is_finite, never ordered against
    numbers."""

    def __repr__(self):
        return "INFINITE"


INFINITE = _Infinite()


def is_finite(value) -> bool:
    return value is not INFINITE


# -- staircase counting -------------------------------------------------------


def _sweep(levels, bound):
    """Standard monomials of a staircase in two or three variables, in one
    sweep along the last one.

    levels are the sorted corners (c, a, b) below bound, the last
    variable's least pure power.  The slab at each level c is the planar
    staircase of the corners at or below it, kept as its corners and area:
    first coordinates ascending, second strictly descending.  It starts as
    the box of the first two variables' least pure powers, and each corner
    lowers it as it arrives.  Each slab adds (next level - level) * area to
    the volume.  A two-variable staircase is one level with bound 1.
    """
    # Sorted, the corners start with (0, 0, h), the least pure power of the
    # second variable, and the first with b = 0 is (0, w, 0), the least of
    # the first: level 0 comes before any other.
    h = levels[0][2]
    w = next(a for c, a, b in levels if not b)
    xs, ys, area = [0, w], [h, 0], w * h
    volume = 0
    level = 0
    for c, a, b in levels:
        if c != level:
            volume += (c - level) * area
            level = c
        # The last corner at or left of column a is the lowest one there.
        t = bisect_right(xs, a) - 1
        y = ys[t]
        if y <= b:
            continue  # dominated
        # Lower the step function to height b from column a up to the first
        # corner at or below b; the corners passed over are dominated.
        x = a
        u = t + 1
        while True:
            area -= (xs[u] - x) * (y - b)
            if ys[u] <= b:
                break
            x, y = xs[u], ys[u]
            u += 1
        if xs[t] < a:
            t += 1  # else corner t, in column a above b, is dominated too
        xs[t:u] = (a,)
        ys[t:u] = (b,)
    return volume + (bound - level) * area


def count_standard_monomials(lead_monomials, nvars: int):
    """Number of monomials outside the given monomial ideal, or INFINITE.

    The staircase is finite iff every variable has a pure power among the
    generators.  One variable is counted in closed form.  Two and three are
    counted by one sweep (_sweep): from the box of the first two variables'
    least pure powers, each corner lowers a planar staircase, and three
    variables stack its slabs along the last.  More variables are sliced
    along the variable with the fewest distinct exponents; each slab
    between consecutive exponents is a staircase in one variable fewer,
    counted recursively down to the sweep.
    Dominated and repeated generators are accepted and change nothing.
    """
    monos = {tuple(m) for m in lead_monomials}
    if (0,) * nvars in monos:
        return 0
    if not all(any(m[i] == sum(m) for m in monos) for i in range(nvars)):
        return INFINITE
    return _count(tuple(sorted(monos)), nvars) if nvars else 1


def _count(gens, k):
    """Standard monomials of the staircase gens in k variables.

    gens is sorted and holds a pure power of each of the k variables and no
    unit.  Two variables are one level of the sweep, three are swept along
    the last up to its least pure power, and more are sliced.  A
    module-level function, not a closure: a closure that calls itself is a
    reference cycle through its own cell.
    """
    if k == 1:
        return gens[0][0]
    if k == 2:
        return _sweep([(0, a, b) for a, b in gens], 1)
    if k == 3:
        bound = min(c for a, b, c in gens if a == b == 0)
        return _sweep(sorted((c, a, b) for a, b, c in gens if c < bound), bound)
    j = min(range(k), key=lambda i: len({m[i] for m in gens}))
    bound = min(m[j] for m in gens if m[j] == sum(m))
    levels = sorted({m[j] for m in gens if m[j] < bound} | {0}) + [bound]
    value = 0
    for lo, hi in zip(levels, levels[1:]):
        slab = {m[:j] + m[j + 1 :] for m in gens if m[j] <= lo}
        value += (hi - lo) * _count(tuple(sorted(slab)), k - 1)
    return value


# -- the leading ideals and dimension -----------------------------------------


def _leading_monomials(I: Ideal):
    """Monomials generating the global leading ideal of relations + I: the
    generators and relations themselves when each is a monomial, with no
    basis built, else the leading monomials of I's reduced basis."""
    gens = I.ring.relations + I.generators
    if all(len(g.terms) == 1 for g in gens):
        return [g.terms[0][0] for g in gens]
    return I.gb().leading_monomials


def _global_basis_suffices(I: Ideal) -> bool:
    """True when the global leading ideal of I gives the local values at the origin.

    Either the ring's relations and I are generated by forms, or together
    they hold a pure power of every variable (a constant counts for all).
    Then every maximal ideal over I is the origin's, so ring/(relations + I)
    is zero or Artinian local there, and its local and global colengths
    agree.  Both conditions are read in one pass over the generators,
    relations first, so a ring with a relation that is not a form tests no
    generator of I for homogeneity.
    """
    ring = I.ring
    graded = True
    unpowered = set(range(ring.nvars))
    for g in ring.relations + I.generators:
        if len(g.terms) == 1:
            m = g.terms[0][0]
            d = sum(m)
            if max(m) == d:
                unpowered.difference_update(i for i, e in enumerate(m) if e == d)
        elif graded:
            graded = g.is_homogeneous()
    return graded or not unpowered


def _lazard_leading_monomials(I: Ideal):
    """Generators of the local leading ideal of ring/(relations + I), by
    Lazard's method, for input where the global basis does not suffice.

    Homogenize the generators and relations with a new first variable t.
    On forms of one degree, grlex with t first prefers the higher power of
    t, so it homogenizes the local degree order (lower degree is larger,
    ties by lex).  The leading monomials of the reduced basis, t dropped,
    generate the local leading ideal.
    """
    ring = I.ring
    # One homogenizing ring per ring, so the bases cached on it are reused.
    hring = ring._homogenizing
    if hring is None:
        # "@t" is not a session variable name, so it never clashes with one.
        hring = PresentedRing(PolynomialRing(ring.p, ("@t",) + ring.variables, MonomialOrder("grlex")))
        ring._homogenizing = hring
    gens = []
    for f in I.generators + ring.relations:
        d = f.degree()
        gens.append(hring.poly(((d - sum(m),) + m, c) for m, c in f.terms))
    return [m[1:] for m in Ideal(hring, gens).gb().leading_monomials]


def dimension(I: Ideal) -> int:
    """Krull dimension of the local ring of ring/(relations + I) at the origin.

    That of the tangent cone, whose leading ideal is the local leading
    ideal: the largest size of a variable subset S such that no leading
    monomial is supported entirely inside S; exhaustive over subsets.
    Where the global basis suffices, the global leading ideal, which
    monomial input is itself, stands in for the local one.  For input with
    pure powers it gives dimension 0 as the local one does.
    """
    n = I.ring.nvars
    if _global_basis_suffices(I):
        leading = _leading_monomials(I)
    else:
        leading = _lazard_leading_monomials(I)
    supports = [frozenset(i for i in range(n) if m[i]) for m in leading]
    if frozenset() in supports:
        raise InputError("empty at the origin: the ideal is a unit in the local ring")
    for size in range(n, -1, -1):
        for subset in itertools.combinations(range(n), size):
            s = frozenset(subset)
            if not any(sup <= s for sup in supports):
                return size
    raise AssertionError("unreachable: the empty subset always qualifies")


# -- colengths ----------------------------------------------------------------


def colength(I: Ideal):
    """lambda of ring/(relations + I) in the affine (global) sense: the
    standard monomials of its leading ideal, which monomial input is itself."""
    return count_standard_monomials(_leading_monomials(I), I.ring.nvars)


def local_colength(I: Ideal):
    """lambda over the localization at the origin.

    The number of standard monomials of the local leading ideal: INFINITE
    iff the origin is not isolated, 0 iff I is a unit there.  Where the
    global basis suffices, this is the global colength: for input with pure
    powers the global leading ideal has as many standard monomials as the
    local one.
    """
    if _global_basis_suffices(I):
        return colength(I)
    return count_standard_monomials(_lazard_leading_monomials(I), I.ring.nvars)


def quotient_length(I: Ideal, J: Ideal):
    """lambda(J/I) = lambda(R/I) - lambda(R/J) over the localization at the
    origin, for an m-primary I contained in J there.

    I is tested to be m-primary first.  Containment is then read from
    colengths: J is contained in I + J, so with lambda(R/I) finite,
    lambda(R/(I + J)) equals lambda(R/J) exactly when I is contained in J
    at the origin.  No membership is tested, so monomial input builds no
    basis.
    """
    li = local_colength(I)
    if li is INFINITE:
        raise InputError("quotient_length requires the small ideal to be m-primary")
    lj = local_colength(J)
    if local_colength(I + J) != lj:
        raise InputError("quotient_length requires I to be contained in J")
    return li - lj


# -- Hilbert-Samuel multiplicity ----------------------------------------------


def require_parameter(x: Polynomial, J: Ideal) -> None:
    """Raise InputError unless R/J has dimension 1 at the origin and x is a
    parameter on it, that is, R/(J, x) has dimension 0 there.

    The one test of the hypotheses of e(x; R/J) and of Theorem 2.3; a unit
    at the origin raises from dimension().
    """
    if dimension(J) != 1:
        raise InputError("dim(R/J) != 1")
    if dimension(J + Ideal(J.ring, [x])) != 0:
        raise InputError("the given element is not a parameter on R/J")


class MultiplicityResult(NamedTuple):
    value: int
    stabilized_at: int
    certified: bool


def hilbert_samuel(x: Polynomial, J: Ideal) -> MultiplicityResult:
    """e(x; R/J) for a parameter x on a one-dimensional quotient.

    Computed as the stabilized first difference of N -> lambda(R/(J, x^N)).
    The differences lambda(x^N M / x^(N+1) M) are non-increasing (x maps each
    layer onto the next), so transient plateaus above the true value are the
    only failure mode; certification therefore requires three consecutive
    equal differences past an adaptive floor, the maximum total degree of the
    defining Groebner basis.  The floor is a heuristic, not a proof: a
    plateau can outlast it, and the value returned is then too high although
    flagged certified (see the README's Limits).
    """
    ring = J.ring
    if not ring.owns(x):
        raise InputError("parameter lives in a different ring")
    require_parameter(x, J)
    basis_degree = max((g.degree() for g in J.gb().elements), default=1)
    floor = max(HS_FLOOR, basis_degree)
    cap = max(HS_CAP, floor + 8)
    lengths = []
    diffs = []
    for n in range(1, cap + 2):
        value = local_colength(J + Ideal(ring, [x**n]))
        if value is INFINITE:
            raise InputError("quotient by the parameter power is not Artinian")
        lengths.append(value)
        if n >= 2:
            diffs.append(lengths[-1] - lengths[-2])
            if len(diffs) >= 2 and diffs[-1] > diffs[-2]:
                raise CertificationError(
                    "first differences increased; inputs violate the "
                    "one-dimensional parameter hypotheses"
                )
        if len(diffs) >= 3 and diffs[-1] == diffs[-2] == diffs[-3] and n - 1 >= floor:
            if diffs[-1] <= 0:
                raise CertificationError("stabilized difference is not positive")
            return MultiplicityResult(value=diffs[-1], stabilized_at=n - 1, certified=True)
    raise CertificationError(
        "Hilbert-Samuel differences did not stabilize within N <= %d" % cap
    )


__all__ = [
    "INFINITE",
    "MultiplicityResult",
    "colength",
    "count_standard_monomials",
    "dimension",
    "hilbert_samuel",
    "is_finite",
    "local_colength",
    "quotient_length",
    "require_parameter",
]
