"""Command-line interface.

Verbs: gb, dim, colength, local-colength, mult, hk, ehk, check, corpus.
Each verb writes one result to stdout, as JSON (default) or CSV (--format
csv); diagnostics go to stderr.  The kernel, the checks and the fixtures
return exact values (records, ints, Fractions), and this module alone
encodes them: _jsonable for JSON, each verb's table for CSV.  The CSV of
dim, colength, local-colength and mult is one row: the JSON fields after
"ring".  The other verbs print a table: gb one row per basis element, hk
one per q, ehk its three fractions as _num/_den columns, check one per
quantity (a Fraction as n/d), corpus one per fixture.
Each check and corpus action is a subcommand that takes, after its name,
only the flags it reads: argparse rejects any other flag and names a
missing one.  flatness takes one --q; corpus run one of --all and --id;
corpus list no --spair-cap.
corpus run runs its fixtures in up to as many processes as there are CPUs
in its affinity mask, and uses their results only if every process returns
all of its own; on any failure it runs every fixture again in this
process, in order.  So its output, error and exit code are byte for byte
those of a serial run, which `taskset -c 0 hkcalc corpus run --all` gives.
Exit codes: 0 success/PASS, 1 a check FAILED, 2 input error (an unreadable
or undecodable session file included) or a check INAPPLICABLE (thm33
included, when x is not a parameter on R/P), 3 resource limit,
4 stabilization/certification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import groebner
from .checks import (
    FAIL,
    INAPPLICABLE,
    check_flatness,
    check_kunz,
    check_lemma21,
    check_rescaling,
    check_thm23,
    check_thm33,
)
from .errors import CertificationError, InputError, ResourceLimitError
from .fixtures import corpus, fixture_by_id
from .hk import ehk_estimate, hk_function
from .lengths import colength, dimension, hilbert_samuel, local_colength
from .parser import parse_session

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_LIMIT = 3
EXIT_CERTIFICATION = 4


def _jsonable(value):
    """value with its records (named tuples) as dicts, Fractions as
    {"num", "den"} string pairs and other objects as their str, for JSON."""
    if isinstance(value, Fraction):
        return {"num": str(value.numerator), "den": str(value.denominator)}
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if hasattr(value, "_asdict"):
        return _jsonable(value._asdict())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (bool, int, str)) or value is None:
        return value
    return str(value)


def _emit(args, payload, header=None, rows=None):
    """Write a verb's one result to stdout: the payload, a dict or a record,
    as JSON, or as CSV the given table; with no table, one row of the
    payload's fields after "ring", which comes first."""
    if args.format == "json":
        sys.stdout.write(json.dumps(_jsonable(payload), indent=2) + "\n")
        return
    if rows is None:
        header = list(payload)[1:]
        rows = [[payload[key] for key in header]]
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)


def _load_session(args):
    """The session read from --in, and its ring modulo its relations."""
    try:
        with open(args.infile, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (args.infile, exc)) from None
    session = parse_session(text)
    return session, session.build_ring()


def _ideal(args):
    """The session, its ring, and the ideal named by --ideal."""
    session, ring = _load_session(args)
    return session, ring, session.ideal(args.ideal, ring)


def _q_list(raw):
    try:
        qs = [int(part) for part in raw.split(",") if part.strip()]
    except ValueError:
        raise InputError("--q must be a comma-separated list of integers") from None
    if not qs:
        raise InputError("--q needs at least one value")
    return qs


# -- verb implementations -----------------------------------------------------


def _cmd_gb(args):
    _, ring, ideal = _ideal(args)
    polys = [g.render() for g in ideal.gb().elements]
    payload = {"ring": repr(ring), "ideal": args.ideal, "basis": polys}
    _emit(args, payload, ("index", "polynomial"), enumerate(polys))
    return EXIT_OK


def _cmd_scalar(args, fn, label):
    _, ring, ideal = _ideal(args)
    _emit(args, {"ring": repr(ring), "ideal": args.ideal, label: fn(ideal)})
    return EXIT_OK


def _cmd_mult(args):
    session, ring, ideal = _ideal(args)
    result = hilbert_samuel(session.param(args.param, ring), ideal)
    payload = {
        "ring": repr(ring),
        "ideal": args.ideal,
        "param": args.param,
        "multiplicity": result.value,
        "stabilized_at": result.stabilized_at,
        "certified": result.certified,
    }
    _emit(args, payload)
    return EXIT_OK


def _cmd_hk(args):
    _, ring, ideal = _ideal(args)
    report = hk_function(ideal, args.emax)
    payload = {
        "ring": repr(ring),
        "ideal": args.ideal,
        "d": report.d,
        "rows": report.rows,
    }
    rows = [(r.e, r.q, r.colength, *r.ratio.as_integer_ratio()) for r in report.rows]
    _emit(args, payload, ("e", "q", "colength", "ratio_num", "ratio_den"), rows)
    return EXIT_OK


def _cmd_ehk(args):
    _, ring, ideal = _ideal(args)
    est = ehk_estimate(ideal, args.emax)
    payload = {
        "ring": repr(ring),
        "ideal": args.ideal,
        "d": est.report.d,
        "estimate": est.estimate,
        "last_ratio": est.last_ratio,
        "gap": est.gap,
        "rows": est.report.rows,
    }
    fractions = ("estimate", "last_ratio", "gap")
    header = [name + part for name in fractions for part in ("_num", "_den")]
    row = [n for name in fractions for n in payload[name].as_integer_ratio()]
    _emit(args, payload, header, [row])
    return EXIT_OK


def _thm23(session, ring, args):
    names = args.primes.split(",") if args.primes else []
    primes = [session.prime(name.strip(), ring) for name in names]
    return check_thm23(
        session.ideal(args.ideal_j, ring), session.param(args.param, ring), primes, args.emax
    )


def _cmd_check(args):
    session, ring = _load_session(args)
    report = args.run(session, ring, args)
    cells = [("detail", report.detail)] + [
        # an exact rational prints as n/d
        (key, "%d/%d" % value.as_integer_ratio() if isinstance(value, Fraction) else value)
        for key, value in report.quantities.items()
    ]
    rows = [(report.check, report.verdict, key, value) for key, value in cells]
    _emit(args, report, ("check", "verdict", "key", "value"), rows)
    if report.verdict == FAIL:
        return EXIT_CHECK_FAILED
    if report.verdict == INAPPLICABLE:
        print("inapplicable: %s" % report.detail, file=sys.stderr)
        return EXIT_INPUT_ERROR
    return EXIT_OK


def _cmd_corpus_list(args):
    items = [{"fixture": f.fixture_id, "description": f.description} for f in corpus()]
    _emit(args, {"fixtures": items}, ("fixture", "description"), [i.values() for i in items])
    return EXIT_OK


def _cpus():
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks (macOS, Windows): run serially
        return 1


def _helper(fixtures, seed, write_end):
    """Run fixtures in a forked helper and write all their results to
    write_end as JSON, encoded by _jsonable as the caller's own results are
    when printed; a fixture that raises ends it with code 1, having sent
    nothing.  Ends with os._exit: it never returns into its caller's stack
    nor flushes the stdio it inherited."""
    code = 1
    try:
        results = [_jsonable(fixture.run(seed=seed)) for fixture in fixtures]
        with open(write_end, "w", encoding="utf-8") as out:
            json.dump(results, out)
        code = 0
    finally:
        os._exit(code)


def _collect(pid, read_end):
    """Reap a helper; return the results it sent, or None unless it exited
    0 and its JSON parses (it may exit 0 before it writes)."""
    chunks = []
    try:
        while chunk := os.read(read_end, 1 << 16):
            chunks.append(chunk)
    finally:
        os.close(read_end)
        status = os.waitpid(pid, 0)[1]
    try:
        return json.loads(b"".join(chunks)) if status == 0 else None
    except ValueError:
        return None


def _run_fixtures(fixtures, seed):
    """Each fixture's result, in order, as a serial run gives them.

    Fixture k runs in process k mod n, where n is the smaller of the CPUs
    this process may use and the number of fixtures.  Process 0 is this one;
    the others are forked helpers, so the caller runs no other thread (the
    CLI starts none).  Their results are used only if every process returns
    those of all its fixtures.  If a fork fails, a fixture raises here or a
    helper sends nothing, all are dropped and every fixture runs again
    here, in fixture order, so the first error in fixture order is the one
    raised.
    """
    n = min(_cpus(), len(fixtures))
    mine = None  # this process's results, once all its fixtures have run
    helpers = []  # (pid, read end of its pipe)
    try:
        for first in range(1, n):
            read_end, write_end = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                pid = None
            if pid == 0:
                _helper(fixtures[first::n], seed, write_end)
            os.close(write_end)
            if pid is None:
                os.close(read_end)
                break
            helpers.append((pid, read_end))
        else:
            mine = [fixture.run(seed=seed) for fixture in fixtures[::n]]
    except Exception:
        pass  # the serial run below raises the first error in fixture order
    finally:
        stripes = [mine] + [_collect(pid, read_end) for pid, read_end in helpers]
    if None in stripes:
        return [fixture.run(seed=seed) for fixture in fixtures]
    return [stripes[k % n][k // n] for k in range(len(fixtures))]


def _cmd_corpus_run(args):
    fixtures = corpus() if args.all else [fixture_by_id(args.id)]
    results = _run_fixtures(fixtures, args.seed)
    passed = sum(1 for r in results if r["passed"])
    payload = {
        "seed": args.seed,
        "total": len(results),
        "passed": passed,
        "failed": len(results) - passed,
        "results": results,
    }
    rows = [(r["fixture"], "PASS" if r["passed"] else "FAIL") for r in results]
    _emit(args, payload, ("fixture", "status"), rows)
    return EXIT_OK if passed == len(results) else EXIT_CHECK_FAILED


# -- argument parsing ---------------------------------------------------------


def _add_common(sp, *required, session_file=True):
    if session_file:
        sp.add_argument("--in", dest="infile", required=True, help="session file in the ring/ideal DSL")
    for flag in required:
        sp.add_argument(flag, required=True)
    sp.add_argument("--format", choices=("json", "csv"), default="json")
    sp.add_argument("--spair-cap", type=int, default=groebner.DEFAULT_SPAIR_CAP, help="S-pair generation cap, per attempt at a basis")


def build_arg_parser():
    ap = argparse.ArgumentParser(prog="hkcalc", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    sp = sub.add_parser("gb", help="reduced Groebner basis of a named ideal")
    _add_common(sp, "--ideal")
    sp.set_defaults(fn=_cmd_gb)

    sp = sub.add_parser("dim", help="Krull dimension of ring/(relations + ideal) at the origin")
    _add_common(sp, "--ideal")
    sp.set_defaults(fn=lambda a: _cmd_scalar(a, dimension, "dimension"))

    sp = sub.add_parser("colength", help="global colength (standard monomial count)")
    _add_common(sp, "--ideal")
    sp.set_defaults(fn=lambda a: _cmd_scalar(a, colength, "colength"))

    sp = sub.add_parser("local-colength", help="colength over the localization at the origin")
    _add_common(sp, "--ideal")
    sp.set_defaults(fn=lambda a: _cmd_scalar(a, local_colength, "local_colength"))

    sp = sub.add_parser("mult", help="Hilbert-Samuel multiplicity of a parameter")
    _add_common(sp, "--ideal", "--param")
    sp.set_defaults(fn=_cmd_mult)

    sp = sub.add_parser("hk", help="Hilbert-Kunz function table")
    _add_common(sp, "--ideal")
    sp.add_argument("--emax", type=int, required=True)
    sp.set_defaults(fn=_cmd_hk)

    sp = sub.add_parser("ehk", help="two-point Hilbert-Kunz multiplicity estimate")
    _add_common(sp, "--ideal")
    sp.add_argument("--emax", type=int, required=True)
    sp.set_defaults(fn=_cmd_ehk)

    sp = sub.add_parser("check", help="run a named claim check; its flags follow its name")
    checks = sp.add_subparsers(dest="which", required=True)

    def check(name, required, run):
        cp = checks.add_parser(name)
        _add_common(cp, *required)
        cp.set_defaults(fn=_cmd_check, run=run)
        return cp

    check("kunz", ("--q",), lambda s, r, a: check_kunz(r, _q_list(a.q)))
    cp = check(
        "flatness", ("--ideal",), lambda s, r, a: check_flatness(r, s.ideal(a.ideal, r), a.q)
    )
    cp.add_argument("--q", type=int, required=True)
    check(
        "lemma21",
        ("--ideal", "--ideal-j", "--q"),
        lambda s, r, a: check_lemma21(s.ideal(a.ideal, r), s.ideal(a.ideal_j, r), _q_list(a.q)),
    )
    cp = check("thm23", ("--ideal-j", "--param"), _thm23)
    cp.add_argument("--primes", help="comma-separated prime names")
    cp.add_argument("--emax", type=int, default=3)
    check(
        "thm33",
        ("--prime", "--param", "--q"),
        lambda s, r, a: check_thm33(s.prime(a.prime, r), s.param(a.param, r), _q_list(a.q)),
    )
    cp = check("rescaling", (), lambda s, r, a: check_rescaling(r, a.e))
    cp.add_argument("--e", type=int, default=1)

    sp = sub.add_parser("corpus", help="list or run the fixture corpus")
    actions = sp.add_subparsers(dest="action", required=True)
    cp = actions.add_parser("list")
    # list builds no basis, so of the common flags it takes only --format;
    # main still installs the default cap for it.
    cp.add_argument("--format", choices=("json", "csv"), default="json")
    cp.set_defaults(fn=_cmd_corpus_list, spair_cap=groebner.DEFAULT_SPAIR_CAP)
    cp = actions.add_parser("run")
    which = cp.add_mutually_exclusive_group(required=True)
    which.add_argument("--all", action="store_true")
    which.add_argument("--id")
    cp.add_argument("--seed", type=int, default=42)
    _add_common(cp, session_file=False)
    cp.set_defaults(fn=_cmd_corpus_run)

    return ap


def main(argv=None) -> int:
    ap = build_arg_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT_ERROR if exc.code not in (0, None) else 0
    if args.spair_cap < 1:
        print("error: --spair-cap must be >= 1", file=sys.stderr)
        return EXIT_INPUT_ERROR
    token = groebner.SPAIR_CAP.set(args.spair_cap)
    try:
        return args.fn(args)
    except InputError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    except ResourceLimitError as exc:
        print("resource limit: %s" % exc, file=sys.stderr)
        return EXIT_RESOURCE_LIMIT
    except CertificationError as exc:
        print("certification failure: %s" % exc, file=sys.stderr)
        return EXIT_CERTIFICATION
    finally:
        groebner.SPAIR_CAP.reset(token)


if __name__ == "__main__":
    raise SystemExit(main())
