"""Workload inputs and reference checks.

Every input is generated here from the workload seed; the program under test
only ever receives session text (or, for ``corpus``, the CLI's own argv).
The references share no code with ``hkcalc``: the corpus is pinned by the
digest of its byte-deterministic output, the Hilbert-Samuel ladder by a
closed-form value, and the local colengths by ``sympy`` plus brute-force
staircase counting.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import sys

WORKLOADS = ("corpus", "ladders")

# `hkcalc corpus run --all --seed 42` is byte-for-byte deterministic.
CORPUS_FIXTURES = (
    "regular-1d-p2",
    "regular-2d-p2",
    "regular-3d-p2",
    "regular-1d-p3",
    "regular-2d-p3",
    "regular-3d-p3",
    "regular-1d-p5",
    "regular-2d-p5",
    "regular-3d-p5",
    "quadric-cone-p5",
    "quadric-cone-p7",
    "cubic-cone-p5",
    "thm33-regular-p5",
    "lemma21-random-p5",
    "flatness-random-p5",
)
CORPUS_SEED42_BYTES = 100210
CORPUS_SEED42_SHA256_PREFIX = "4eec81ab9d9b928f"

# (p, n, q): e(x; R/P^[q]) on R = F_p[x,y,z]/(xy - z^n), P = (y, z).
HS_LADDER_CASES = ((7, 2, 49), (3, 2, 27), (5, 2, 25), (7, 3, 49))

NONHOMOG_P = 7
# Each exponent pair (a_1, a_2) in [2, 4]^2 appears twice.  The base ideals
# come from a fixed stream; the seed rescales them (see `nonhomog_ideals`).
NONHOMOG_EXPONENTS = tuple(itertools.product(range(2, 5), repeat=2)) * 2
NONHOMOG_BASE_SEED = 0


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- generators ---------------------------------------------------------------


def hs_ladder_session(p: int, n: int, q: int) -> str:
    return (
        "char %d\n"
        "vars x y z\n"
        "mod x*y - z^%d\n"
        "ideal Pq = y^%d, z^%d\n"
        "param f = x\n" % (p, n, q, q)
    )


def _render(terms) -> str:
    """Render {(i, j): c} over x, y as session text."""
    parts = []
    for (i, j), c in sorted(terms.items(), reverse=True):
        factors = [str(c)] if c != 1 else []
        factors += ["x^%d" % i] if i else []
        factors += ["y^%d" % j] if j else []
        parts.append("*".join(factors) or "1")
    return " + ".join(parts)


def _nonhomog_generator(rng, var: int, a: int) -> dict:
    """x_v^a (x_v - c) plus two lower-degree terms vanishing at the origin.

    The top-degree form is x_v^(a+1), so two such generators (one per
    variable) cut out a zero-dimensional scheme of global length
    (a_1+1)(a_2+1), and the origin lies on it.
    """
    p = NONHOMOG_P

    def mono(i):
        return (i, 0) if var == 0 else (0, i)

    terms = {mono(a + 1): 1, mono(a): p - rng.randint(1, p - 1)}
    candidates = [
        (i, j)
        for i in range(a + 1)
        for j in range(a + 1)
        if 1 <= i + j <= a and (i, j) not in terms
    ]
    for m in rng.sample(candidates, 2):
        terms[m] = rng.randint(1, p - 1)
    return terms


def _rescale(terms, lam: int, mu: int, unit: int) -> dict:
    """unit * f(lam x, mu y): every coefficient stays nonzero."""
    p = NONHOMOG_P
    return {(i, j): c * pow(lam, i, p) * pow(mu, j, p) * unit % p for (i, j), c in terms.items()}


def nonhomog_ideals(seed: int):
    """[(generator texts, c)] with c = (a_1+1)(a_2+1), the global colength.

    The seed draws, for each base ideal, the automorphism x -> lam x,
    y -> mu y of F_7[x, y] and a unit per generator.  That keeps every
    support, leading term and S-pair, so each seed asks the kernel for the
    same amount of work and the local colength at the origin is unchanged;
    only the coefficients differ.
    """
    p = NONHOMOG_P
    base = random.Random(NONHOMOG_BASE_SEED)
    scale = random.Random(seed)
    ideals = []
    for a1, a2 in NONHOMOG_EXPONENTS:
        f1 = _nonhomog_generator(base, 0, a1)
        f2 = _nonhomog_generator(base, 1, a2)
        lam, mu = scale.randint(1, p - 1), scale.randint(1, p - 1)
        gens = [_render(_rescale(f, lam, mu, scale.randint(1, p - 1))) for f in (f1, f2)]
        ideals.append((gens, (a1 + 1) * (a2 + 1)))
    return ideals


def make_job(workload: str, seed: int) -> dict:
    """The child's input: everything it runs, derived from the seed alone."""
    if workload == "corpus":
        return {"workload": workload, "argv": ["corpus", "run", "--all", "--seed", str(seed)]}
    if workload == "ladders":
        cases = list(HS_LADDER_CASES)
        random.Random(seed).shuffle(cases)
        lines = ["char %d" % NONHOMOG_P, "vars x y"]
        names = []
        for k, (gens, _c) in enumerate(nonhomog_ideals(seed)):
            names.append("I%d" % k)
            lines.append("ideal I%d = %s" % (k, ", ".join(gens)))
        return {
            "workload": workload,
            "cases": [{"q": q, "session": hs_ladder_session(p, n, q)} for p, n, q in cases],
            "session": "\n".join(lines) + "\n",
            "ideals": names,
        }
    raise ValueError("unknown workload %r" % workload)


def operations(job: dict) -> int:
    """Operations one child attempts: fixtures, or `mult` calls plus ideals."""
    if job["workload"] == "corpus":
        return len(CORPUS_FIXTURES)
    return len(job["cases"]) + len(job["ideals"])


# -- references ---------------------------------------------------------------


def _staircase_size(lead_monomials, box: int) -> int:
    return sum(
        1
        for cell in itertools.product(range(box), repeat=2)
        if not any(all(m[k] <= cell[k] for k in range(2)) for m in lead_monomials)
    )


def nonhomog_reference(seed: int):
    """Local colength at the origin of each generated ideal, via sympy.

    I + (x^c, y^c) has the local length of I at the origin: a length-l local
    Artinian ring has m^l = 0 and c >= l, so the pure powers lie in I_m, and
    they make the ideal supported at the origin alone.
    """
    # sympy lives outside the checkout: read its bytecode, write none there.
    sys.dont_write_bytecode = True
    import sympy

    x, y = sympy.symbols("x y")
    values = []
    for gens, c in nonhomog_ideals(seed):
        polys = [sympy.sympify(g.replace("^", "**")) for g in gens] + [x**c, y**c]
        basis = sympy.groebner(polys, x, y, modulus=NONHOMOG_P, order="grevlex")
        leads = [sympy.Poly(g, x, y).monoms(order="grevlex")[0] for g in basis.exprs]
        values.append(_staircase_size(leads, c))
    return values


def reference(job: dict, seed: int):
    if job["workload"] == "corpus":
        return {"fixtures": len(CORPUS_FIXTURES)}
    # R_P is a DVR with uniformizer z and e(x; R/P) = 1, so
    # e(x; R/P^[q]) = length of R_P/(z^q) = q.
    return [case["q"] for case in job["cases"]] + nonhomog_reference(seed)


def failed_ops(job: dict, seed: int, expected, output: dict) -> int:
    """Operations of one child that raised, exited non-zero or were wrong.

    `output` is what the child reported: for `corpus` the CLI's exit code and
    stdout, otherwise one value per operation (None where it raised), the
    `mult` calls first, and whether each `mult` value was certified.
    """
    if job["workload"] == "corpus":
        return _corpus_failures(seed, expected, output)
    values = output["values"]
    certified = output["certified"] + [True] * len(job["ideals"])
    ok = [got == want and cert for got, want, cert in zip(values, expected, certified)]
    return ok.count(False) + abs(len(values) - len(expected))


def _corpus_failures(seed, expected, output) -> int:
    """Fixtures not passed; all of them if the output itself is wrong.

    The CLI exits 1 when a fixture fails and still prints every result, so
    that exit code is counted per fixture.  Any other non-zero exit,
    unparsable output, the wrong fixtures, an exit code that disagrees with
    the results, or a changed digest at seed 42 with every fixture passed
    fails all of them.
    """
    total = expected["fixtures"]
    if output["exit"] not in (0, 1):
        return total
    text = output["stdout"]
    try:
        results = json.loads(text)["results"]
        ids = [r["fixture"] for r in results]
    except (ValueError, KeyError, TypeError):
        return total
    if ids != list(CORPUS_FIXTURES):
        return total
    failed = sum(1 for r in results if r.get("passed") is not True)
    if (failed == 0) != (output["exit"] == 0):
        return total
    if seed == 42 and failed == 0:
        raw = text.encode("utf-8")
        sha = hashlib.sha256(raw).hexdigest()
        if len(raw) != CORPUS_SEED42_BYTES or not sha.startswith(CORPUS_SEED42_SHA256_PREFIX):
            return total
    return failed
