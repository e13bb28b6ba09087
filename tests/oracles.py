"""Independent oracles used to validate the kernel's counts.

These deliberately avoid the package's Groebner and staircase machinery.
Colengths of homogeneous ideals come from per-degree rank computations:
dense numpy elimination mod p in general, or a weighted union-find when
every row has at most two nonzero entries (monomial generators, binomial
relations).  Local colengths of non-homogeneous ideals come from one rank
computation modulo a power of the maximal ideal.  Monomial staircases are
also counted by brute-force enumeration, and the Frobenius colengths of the
cones xy - z^n by a lattice count in their monoid rings.
"""

import numpy as np


def monomials_of_degree(nvars, d):
    if nvars == 1:
        return [(d,)]
    out = []
    for first in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - first):
            out.append((first,) + rest)
    return out


def monomials_of_weighted_degree(weights, d):
    """Exponent tuples with sum(w_i * e_i) = d; weights are positive ints."""
    if len(weights) == 1:
        return [(d // weights[0],)] if d % weights[0] == 0 else []
    out = []
    w0 = weights[0]
    for first in range(d // w0 + 1):
        for rest in monomials_of_weighted_degree(weights[1:], d - first * w0):
            out.append((first,) + rest)
    return out


def staircase_enumeration_count(gens, bounds):
    """Standard monomials of a monomial ideal inside the box `bounds`: the
    cells of the box, less every cell some generator divides (the orthant
    above it)."""
    divisible = np.zeros(bounds, dtype=bool)
    for g in gens:
        divisible[tuple(slice(e, None) for e in g)] = True
    return int(divisible.size - np.count_nonzero(divisible))


def cone_frobenius_colength(n, q):
    """lambda(R/m^[q]) for R = k[x, y, z]/(xy - z^n), by a lattice count.

    R is the monoid ring k[a^n, b^n, ab] (x = a^n, y = b^n, z = ab), whose
    monomials a^u b^v are the pairs with u = v (mod n), all linearly
    independent.  m^[q] is spanned by the multiples of a^(nq), b^(nq) and
    (ab)^q, so the quotient has as basis the pairs in [0, nq)^2 with
    u = v (mod n) and not both u, v >= q.  This holds over every field.
    """
    u = np.arange(n * q)[:, None]
    v = np.arange(n * q)[None, :]
    outside = ((u - v) % n == 0) & ~((u >= q) & (v >= q))
    return int(np.count_nonzero(outside))


def _rank_mod_p(rows, ncols, p):
    if not rows:
        return 0
    A = np.array(rows, dtype=np.int64) % p
    rank = 0
    nrows = A.shape[0]
    for col in range(ncols):
        pivot = None
        for i in range(rank, nrows):
            if A[i, col]:
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != rank:
            A[[rank, pivot]] = A[[pivot, rank]]
        A[rank] = A[rank] * pow(int(A[rank, col]), -1, p) % p
        column = A[:, col].copy()
        column[rank] = 0
        A = (A - np.outer(column, A[rank])) % p
        rank += 1
        if rank == nrows:
            break
    return rank


def local_colength_truncated(p, nvars, gens_terms, N):
    """dim F_p[x]/(I + m^N), the local colength at the origin once N >= it.

    gens_terms is an iterable of term lists [(mono, coeff), ...].  Modulo
    m^N the ideal I + m^N is spanned by the products x^a * g with
    |a| < N, truncated to degree < N; the quotient dimension is the number
    of monomials of degree < N minus the rank of those rows.  A local ring
    of length l has m^l = 0, so any N >= l (for example the global colength
    plus one) gives the exact local colength.
    """
    monos = [m for d in range(N) for m in monomials_of_degree(nvars, d)]
    index = {m: i for i, m in enumerate(monos)}
    rows = []
    for terms in gens_terms:
        for shift in monos:
            row = [0] * len(monos)
            for mono, coeff in terms:
                j = index.get(tuple(a + b for a, b in zip(mono, shift)))
                if j is not None:
                    row[j] = (row[j] + coeff) % p
            if any(row):
                rows.append(row)
    return len(monos) - _rank_mod_p(rows, len(monos), p)


def homogeneous_colength_dense(p, nvars, gens_terms, degree_cap=200):
    """Colength of a homogeneous ideal by per-degree rank computations.

    gens_terms is an iterable of term lists [(mono, coeff), ...], each
    homogeneous; ring relations count as generators here.  The degree-d
    slice of the ideal is spanned by the shifts of the generators into
    degree d, so the quotient dimension in each degree is exact, and the
    sum terminates once a slice vanishes.
    """
    gens = [list(t) for t in gens_terms if t]
    for terms in gens:
        if len({sum(m) for m, _ in terms}) != 1:
            raise ValueError("dense oracle needs homogeneous generators")
    total = 0
    for d in range(degree_cap + 1):
        monos = monomials_of_degree(nvars, d)
        index = {m: i for i, m in enumerate(monos)}
        rows = []
        for terms in gens:
            gdeg = sum(terms[0][0])
            if gdeg > d:
                continue
            for shift in monomials_of_degree(nvars, d - gdeg):
                row = [0] * len(monos)
                for mono, coeff in terms:
                    j = index[tuple(a + b for a, b in zip(mono, shift))]
                    row[j] = (row[j] + coeff) % p
                rows.append(row)
        quotient = len(monos) - _rank_mod_p(rows, len(monos), p)
        total += quotient
        if quotient == 0:
            return total
    raise ValueError("dense oracle hit the degree cap: ideal not m-primary?")


class _WeightedUnionFind:
    """Union-find over column indices with relations u = w * v (w in F_p).

    An inconsistent cycle forces the component to zero; so does a one-term
    row.  Surviving components each contribute one quotient dimension.
    """

    def __init__(self, n, p):
        self.p = p
        self.parent = list(range(n))
        self.weight = [1] * n  # x = weight[x] * parent[x]
        self.dead = [False] * n

    def find(self, x):
        p = self.p
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        w = 1
        for y in reversed(path):
            w = w * self.weight[y] % p
            self.parent[y] = x
            self.weight[y] = w
        return x

    def _weight_to_root(self, x):
        w = 1
        p = self.p
        while self.parent[x] != x:
            w = w * self.weight[x] % p
            x = self.parent[x]
        return x, w

    def union(self, u, v, w):
        """Impose u = w * v."""
        p = self.p
        ru, wu = self._weight_to_root(u)
        rv, wv = self._weight_to_root(v)
        if ru == rv:
            if wu != w * wv % p:
                self.dead[ru] = True
            return
        self.parent[ru] = rv
        self.weight[ru] = w * wv * pow(wu, -1, p) % p
        if self.dead[ru]:
            self.dead[rv] = True

    def kill(self, x):
        self.dead[self.find(x)] = True

    def alive_components(self):
        return sum(
            1
            for i in range(len(self.parent))
            if self.find(i) == i and not self.dead[i]
        )


def homogeneous_colength_sparse(
    p, nvars, monomial_gens, binomial_rels, weights=None, degree_cap=500
):
    """Colength when the generators are monomials and the relations binomials.

    monomial_gens: exponent tuples.  binomial_rels: two-term lists
    [(mono, coeff), (mono, coeff)], homogeneous for the given weight vector
    (default: all weights 1).  Every spanning row of a degree slice then has
    at most two nonzero entries, so the slice rank is a weighted-graph
    computation instead of an elimination.  Counting stops after max(weights)
    consecutive empty slices: past that point every monomial has a variable
    divisor landing in an already-empty slice.
    """
    if weights is None:
        weights = (1,) * nvars
    weights = tuple(weights)
    if len(weights) != nvars or any(w < 1 for w in weights):
        raise ValueError("weights must be positive, one per variable")

    def wdeg(m):
        return sum(w * e for w, e in zip(weights, m))

    for terms in binomial_rels:
        if len(terms) != 2 or len({wdeg(m) for m, _ in terms}) != 1:
            raise ValueError("sparse oracle needs homogeneous binomial relations")
    total = 0
    zero_run = 0
    for d in range(degree_cap + 1):
        monos = monomials_of_weighted_degree(weights, d)
        index = {m: i for i, m in enumerate(monos)}
        uf = _WeightedUnionFind(len(monos), p)
        for g in monomial_gens:
            gdeg = wdeg(g)
            if gdeg > d:
                continue
            for shift in monomials_of_weighted_degree(weights, d - gdeg):
                uf.kill(index[tuple(a + b for a, b in zip(g, shift))])
        for (m1, c1), (m2, c2) in binomial_rels:
            rdeg = wdeg(m1)
            if rdeg > d:
                continue
            for shift in monomials_of_weighted_degree(weights, d - rdeg):
                u = index[tuple(a + b for a, b in zip(m1, shift))]
                v = index[tuple(a + b for a, b in zip(m2, shift))]
                # c1*u + c2*v = 0  =>  u = (-c2/c1) * v
                uf.union(u, v, -c2 * pow(c1, -1, p) % p)
        quotient = uf.alive_components()
        total += quotient
        zero_run = zero_run + 1 if quotient == 0 else 0
        if zero_run >= max(weights):
            return total
    raise ValueError("sparse oracle hit the degree cap: ideal not m-primary?")
