import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from typing import NamedTuple

import pytest

from hkcalc import cli
from hkcalc.checks import CheckReport
from hkcalc.errors import InputError
from hkcalc.fixtures import corpus
from helpers import readme_block

QUADRIC = """\
char 5
vars x y z
mod x*y - z^2
ideal m = x, y, z
ideal J = y, z
ideal I2 = x^2, y, z
prime P = y, z
param f = x
"""

# P is declared prime but is not: e(x; R/P^[3]) = 9 is not divisible by
# e(x; R/P) = 2, so the associativity ratio of thm33 fails certification.
NOT_PRIME = """\
char 3
vars x y z
mod y^2 - z^3
prime P = y^2 - x^3*y, y*z - x^2*y, y*z - x^3*z, z^2 - x^2*z
param f = x
"""

HARD = "char 5\nvars x y z\nideal I = x^2 + y*z, y^3 - z^3, x*z + 2*y^2\n"


@pytest.fixture()
def session_file(tmp_path):
    path = tmp_path / "quadric.hk"
    path.write_text(QUADRIC)
    return str(path)


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hk_csv_header_contract(capsys, session_file):
    code, out, _ = _run(
        capsys, ["hk", "--in", session_file, "--ideal", "m", "--emax", "2", "--format", "csv"]
    )
    assert code == 0
    lines = out.split("\n")
    assert lines[0] == "e,q,colength,ratio_num,ratio_den"
    assert lines[1] == "1,5,37,37,25"
    assert lines[2] == "2,25,937,937,625"


def test_hk_json(capsys, session_file):
    code, out, _ = _run(capsys, ["hk", "--in", session_file, "--ideal", "m", "--emax", "1"])
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2
    assert payload["rows"][0]["colength"] == 37
    assert payload["rows"][0]["ratio"] == {"num": "37", "den": "25"}
    assert set(payload) == {"ring", "ideal", "d", "rows"}


def test_dim_colength_mult(capsys, session_file):
    code, out, _ = _run(capsys, ["dim", "--in", session_file, "--ideal", "J"])
    assert code == 0 and json.loads(out)["dimension"] == 1
    code, out, _ = _run(capsys, ["colength", "--in", session_file, "--ideal", "m"])
    assert code == 0 and json.loads(out)["colength"] == 1
    code, out, _ = _run(
        capsys, ["mult", "--in", session_file, "--ideal", "J", "--param", "f"]
    )
    payload = json.loads(out)
    assert code == 0 and payload["multiplicity"] == 1 and payload["certified"] is True


def test_local_colength_infinite(capsys, session_file):
    code, out, _ = _run(capsys, ["local-colength", "--in", session_file, "--ideal", "J"])
    assert code == 0
    assert json.loads(out)["local_colength"] == "INFINITE"


def test_local_colength_isolated_origin(capsys, tmp_path):
    """The variety is the origin plus the line y = 1; near the origin y - 1
    is a unit, so the local ring is F_5."""
    path = tmp_path / "isolated.hk"
    path.write_text("char 5\nvars x y\nideal I = x*y - x, y^2 - y\n")
    code, out, _ = _run(capsys, ["local-colength", "--in", str(path), "--ideal", "I"])
    assert code == 0
    assert json.loads(out)["local_colength"] == 1


def test_local_ring_at_the_origin(capsys, tmp_path):
    """Near the origin z - 1 is a unit, so F_5[x,y,z]/(xz - x, yz - y) is
    F_5[z]_(z) there: regular of dimension 1.  Over F_5[x,y], x - 1 is a
    unit at the origin, so it has no local dimension."""
    path = tmp_path / "regular.hk"
    path.write_text("char 5\nvars x y z\nmod x*z - x\nmod y*z - y\nideal m = x, y, z\n")
    code, out, _ = _run(capsys, ["check", "kunz", "--in", str(path), "--q", "5,25"])
    payload = json.loads(out)
    assert code == 0 and payload["verdict"] == "PASS" and payload["quantities"]["d"] == 1
    code, out, _ = _run(capsys, ["hk", "--in", str(path), "--ideal", "m", "--emax", "2"])
    payload = json.loads(out)
    assert code == 0 and payload["d"] == 1
    assert [row["ratio"] for row in payload["rows"]] == [{"num": "1", "den": "1"}] * 2
    unit = tmp_path / "unit.hk"
    unit.write_text("char 5\nvars x y\nideal U = x - 1\n")
    code, _, _ = _run(capsys, ["dim", "--in", str(unit), "--ideal", "U"])
    assert code == 2


def test_gb_and_order_override(capsys, tmp_path, session_file):
    """An `order` line overrides the default grevlex; there is no --order."""
    path = tmp_path / "order.hk"
    for line, basis in (("", ["y^2 + 4*x", "x*y", "x^2"]), ("order lex\n", ["y^3", "x + 4*y^2"])):
        path.write_text("char 5\nvars x y\n%sideal I = x - y^2, y^3\n" % line)
        code, out, _ = _run(capsys, ["gb", "--in", str(path), "--ideal", "I"])
        assert code == 0 and json.loads(out)["basis"] == basis
    code, out, err = _run(
        capsys, ["gb", "--in", session_file, "--ideal", "J", "--order", "lex"]
    )
    assert code == 2 and out == "" and "--order" in err


def test_ehk_csv(capsys, session_file):
    code, out, _ = _run(
        capsys, ["ehk", "--in", session_file, "--ideal", "m", "--emax", "2", "--format", "csv"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header == "estimate_num,estimate_den,last_ratio_num,last_ratio_den,gap_num,gap_den"


def test_check_verbs(capsys, session_file):
    code, out, _ = _run(capsys, ["check", "kunz", "--in", session_file, "--q", "5,25"])
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    code, out, _ = _run(
        capsys,
        ["check", "thm33", "--in", session_file, "--prime", "P", "--param", "f", "--q", "5,25"],
    )
    payload = json.loads(out)
    assert code == 0 and payload["quantities"]["lhs_q25"] == 625
    code, out, _ = _run(
        capsys,
        ["check", "lemma21", "--in", session_file, "--ideal", "I2", "--ideal-j", "m", "--q", "5"],
    )
    assert code == 0 and json.loads(out)["verdict"] == "PASS"
    code, out, _ = _run(capsys, ["check", "rescaling", "--in", session_file, "--e", "1"])
    assert code == 0


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["flatness", "--q", "5"], "--ideal"),
        (["lemma21", "--ideal-j", "m", "--q", "5"], "--ideal"),
        (["lemma21", "--ideal", "I2", "--q", "5"], "--ideal-j"),
        (["thm23", "--param", "f", "--primes", "P"], "--ideal-j"),
        (["thm23", "--ideal-j", "J", "--primes", "P"], "--param"),
        (["thm33", "--param", "f", "--q", "5"], "--prime"),
        (["thm33", "--prime", "P", "--q", "5"], "--param"),
    ],
)
def test_check_names_its_missing_flag(capsys, session_file, argv, flag):
    code, out, err = _run(capsys, ["check"] + argv + ["--in", session_file])
    assert code == 2 and out == ""
    assert "the following arguments are required: %s\n" % flag in err, err


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "kunz", "--q", "5", "--prime", "P"],
        ["check", "rescaling", "--e", "1", "--emax", "2"],
        ["check", "flatness", "--ideal", "m", "--q", "5,25"],
        ["corpus", "run"],
        ["corpus", "run", "--all", "--id", "regular-1d-p2"],
        ["corpus", "list", "--seed", "7"],
        ["corpus", "list", "--spair-cap", "5"],
    ],
)
def test_actions_reject_flags_they_do_not_read(capsys, session_file, argv):
    """A check or corpus action takes only the flags it reads: flatness one
    q, corpus run exactly one of --all and --id, corpus list no --spair-cap,
    as it builds no basis."""
    if argv[0] == "check":
        argv = argv + ["--in", session_file]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and "error:" in err


@pytest.mark.parametrize(
    "session, argv",
    [
        (QUADRIC, ["kunz", "--q", "5,6"]),
        (QUADRIC, ["lemma21", "--ideal", "I2", "--ideal-j", "m", "--q", "6"]),
        (QUADRIC, ["thm33", "--prime", "P", "--param", "f", "--q", "5,6"]),
        ("char 5\nvars x y\nideal m = x, y\n", ["flatness", "--ideal", "m", "--q", "6"]),
        (QUADRIC, ["flatness", "--ideal", "m", "--q", "6"]),
    ],
)
def test_check_q_not_a_power_of_p(capsys, tmp_path, session, argv):
    path = tmp_path / "session.hk"
    path.write_text(session)
    code, out, err = _run(capsys, ["check"] + argv + ["--in", str(path)])
    assert code == 2 and out == ""
    assert "6 is not a power of the characteristic 5" in err, err


def test_readme_verbs_run(capsys, tmp_path):
    """Each `hkcalc` line of the README's Verbs block runs on its session example."""
    path = tmp_path / "ring.hk"
    path.write_text(readme_block("reads a session file"))
    lines = [line.split("#")[0].split() for line in readme_block("Verbs:").splitlines()]
    assert lines and all(argv[0] == "hkcalc" for argv in lines)
    for argv in lines:
        argv = [str(path) if arg == "ring.hk" else arg for arg in argv[1:]]
        code, _, err = _run(capsys, argv)
        assert code == 0, (argv, err)


def test_check_csv_format(capsys, session_file):
    code, out, _ = _run(
        capsys, ["check", "kunz", "--in", session_file, "--q", "5", "--format", "csv"]
    )
    assert code == 0
    assert out.splitlines()[0] == "check,verdict,key,value"


def test_exit_code_input_errors(capsys, tmp_path, session_file):
    code, _, err = _run(capsys, ["dim", "--in", str(tmp_path / "missing.hk"), "--ideal", "m"])
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.hk"
    bad.write_text("char 4\nvars x\n")
    code, _, err = _run(capsys, ["dim", "--in", str(bad), "--ideal", "m"])
    assert code == 2 and "prime" in err
    # a prime line reads like an ideal line, so a trailing height is a stray token
    bad.write_text(QUADRIC.replace("prime P = y, z", "prime P = y, z height 2"))
    code, _, err = _run(capsys, ["dim", "--in", str(bad), "--ideal", "m"])
    assert code == 2 and "line 7, column 16: unexpected token 'height'" in err, err
    code, _, err = _run(capsys, ["dim", "--in", session_file, "--ideal", "missing"])
    assert code == 2 and "unknown ideal" in err
    code, _, _ = _run(capsys, ["dim", "--in", session_file, "--ideal", "m", "--jobs", "1"])
    assert code == 2
    code, _, err = _run(capsys, ["gb", "--in", session_file, "--ideal", "m", "--spair-cap", "0"])
    assert code == 2 and "--spair-cap" in err
    code, _, _ = _run(capsys, ["local-colength", "--in", session_file, "--ideal", "m", "--n-cap", "2"])
    assert code == 2
    code, _, _ = _run(capsys, ["no-such-verb"])
    assert code == 2
    code, _, err = _run(capsys, ["check", "kunz", "--in", session_file])
    assert code == 2 and "--q" in err
    code, _, err = _run(capsys, ["check", "kunz", "--in", session_file, "--q", ","])
    assert code == 2 and "--q" in err


def test_session_file_not_utf8(capsys, tmp_path):
    path = tmp_path / "latin1.hk"
    path.write_bytes("# caf\u00e9\n".encode("latin-1") + QUADRIC.encode())
    code, out, err = _run(capsys, ["colength", "--in", str(path), "--ideal", "m"])
    assert (code, out) == (2, "") and err.startswith("error: cannot read %s: " % path), err


def test_deep_nesting_exits_2(capsys, tmp_path):
    path = tmp_path / "deep.hk"
    path.write_text("char 5\nvars x y\nideal m = %sx%s, y\n" % ("(" * 1000, ")" * 1000))
    code, out, err = _run(capsys, ["colength", "--in", str(path), "--ideal", "m"])
    assert (code, out) == (2, "") and err.rstrip().endswith("polynomial nested too deeply"), err


def test_session_file_with_bom(capsys, tmp_path, session_file):
    """A UTF-8 session file that starts with a byte-order mark reads as if it
    had none."""
    bom = tmp_path / "bom.hk"
    bom.write_bytes(QUADRIC.encode("utf-8-sig"))
    argv = ["colength", "--ideal", "m", "--in"]
    expected = _run(capsys, argv + [session_file])
    assert expected[0] == 0 and _run(capsys, argv + [str(bom)]) == expected


def test_exit_code_inapplicable(capsys, session_file):
    code, out, err = _run(
        capsys, ["check", "flatness", "--in", session_file, "--ideal", "m", "--q", "5"]
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "INAPPLICABLE"
    assert "inapplicable" in err


def test_thm33_non_parameter_reported(capsys, tmp_path):
    path = tmp_path / "quadric.hk"
    path.write_text(QUADRIC + "param g = z\n")
    code, out, err = _run(
        capsys, ["check", "thm33", "--in", str(path), "--prime", "P", "--param", "g", "--q", "5"]
    )
    detail = "precondition unmet: the given element is not a parameter on R/J"
    assert code == 2
    assert json.loads(out)["verdict"] == "INAPPLICABLE"
    assert json.loads(out)["detail"] == detail
    assert err == "inapplicable: %s\n" % detail


def test_thm23_prime_unit_at_origin_reported(capsys, tmp_path):
    path = tmp_path / "quadric.hk"
    path.write_text(QUADRIC + "prime U = y, z, x - 1\n")
    code, out, err = _run(
        capsys,
        ["check", "thm23", "--in", str(path), "--ideal-j", "J", "--param", "f", "--primes", "U"],
    )
    detail = "precondition unmet: empty at the origin: the ideal is a unit in the local ring"
    assert code == 2
    assert json.loads(out)["verdict"] == "INAPPLICABLE"
    assert err == "inapplicable: %s\n" % detail


def test_exit_code_check_failed(capsys, session_file, monkeypatch):
    failing = CheckReport("kunz", {}, {}, "FAIL", "synthetic failure")
    monkeypatch.setattr(cli, "check_kunz", lambda ring, qs: failing)
    code, out, _ = _run(capsys, ["check", "kunz", "--in", session_file, "--q", "5"])
    assert code == 1
    assert json.loads(out)["verdict"] == "FAIL"


def test_exit_code_resource_limit(capsys, tmp_path):
    path = tmp_path / "hard.hk"
    path.write_text(HARD)
    code, _, err = _run(
        capsys, ["gb", "--in", str(path), "--ideal", "I", "--spair-cap", "2"]
    )
    assert code == 3 and "resource limit" in err


def test_dense_expansion_exits_at_the_product_cap(capsys, tmp_path):
    """(x + y)^99999999 over F_5 has 2 343 750 terms; expanding it stops at
    the first product of more than 10^5 term pairs, with exit 3."""
    path = tmp_path / "dense.hk"
    path.write_text("char 5\nvars x y\nideal m = (x+y)^99999999, y\n")
    start = time.monotonic()
    code, out, err = _run(capsys, ["colength", "--in", str(path), "--ideal", "m"])
    assert time.monotonic() - start < 5
    assert (code, out) == (3, "") and "resource limit: product cap of 100000 term pairs exceeded" in err


def test_spair_cap_scoped_to_one_call(capsys, tmp_path):
    path = tmp_path / "hard.hk"
    path.write_text(HARD)
    code, _, _ = _run(capsys, ["gb", "--in", str(path), "--ideal", "I", "--spair-cap", "2"])
    assert code == 3
    code, out, _ = _run(capsys, ["gb", "--in", str(path), "--ideal", "I"])
    assert code == 0 and json.loads(out)["basis"]


def test_spair_cap_binds_every_basis_built(capsys, tmp_path):
    """A monomial ideal's basis is built by Buchberger like any other, so the
    cap binds gb on it; its lengths and dimension build no basis."""
    path = tmp_path / "monomial.hk"
    path.write_text("char 5\nvars x y z\nideal m = x^2, y^3, z, x*y\n")
    code, out, err = _run(capsys, ["gb", "--in", str(path), "--ideal", "m", "--spair-cap", "2"])
    assert (code, out) == (3, "") and "resource limit" in err
    assert "S-pair cap of 2 exceeded" in err
    for verb, field, value in [
        ("colength", "colength", 4),
        ("local-colength", "local_colength", 4),
        ("dim", "dimension", 0),
    ]:
        code, out, _ = _run(capsys, [verb, "--in", str(path), "--ideal", "m", "--spair-cap", "2"])
        assert code == 0 and json.loads(out)[field] == value, verb


def test_exit_code_certification(capsys, tmp_path):
    path = tmp_path / "not_prime.hk"
    path.write_text(NOT_PRIME)
    code, _, err = _run(
        capsys, ["check", "thm33", "--in", str(path), "--prime", "P", "--param", "f", "--q", "3"]
    )
    assert code == 4 and "certification failure" in err
    assert "not divisible" in err


def test_corpus_list_and_determinism(capsys):
    code, out, _ = _run(capsys, ["corpus", "list"])
    assert code == 0
    names = [f["fixture"] for f in json.loads(out)["fixtures"]]
    assert "quadric-cone-p5" in names and len(names) == 15
    argv = ["corpus", "run", "--id", "regular-1d-p2", "--seed", "42"]
    code1, out1, _ = _run(capsys, argv)
    code2, out2, _ = _run(capsys, argv)
    assert code1 == code2 == 0
    assert out1 == out2  # byte-for-byte deterministic
    assert json.loads(out1)["failed"] == 0
    code, _, err = _run(capsys, ["corpus", "run", "--id", "nope"])
    assert code == 2
    code, _, err = _run(capsys, ["corpus", "run"])
    assert code == 2


def test_corpus_output_pinned_at_seed_42(capsys):
    """The behavioural gate: corpus run --all --seed 42 is byte-for-byte fixed."""
    code, out, _ = _run(capsys, ["corpus", "run", "--all", "--seed", "42"])
    assert code == 0
    data = out.encode("utf-8")
    assert len(data) == 100210
    assert hashlib.sha256(data).hexdigest().startswith("4eec81ab9d9b928f")


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_corpus_bytes_do_not_depend_on_cpus(capsys, monkeypatch, cpus):
    """One process or several, corpus run prints the same bytes."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    code, out, _ = _run(capsys, ["corpus", "run", "--all", "--seed", "42"])
    data = out.encode("utf-8")
    assert (code, len(data)) == (0, 100210)
    assert hashlib.sha256(data).hexdigest().startswith("4eec81ab9d9b928f")
    code, out, _ = _run(capsys, ["corpus", "run", "--all", "--seed", "42", "--format", "csv"])
    data = out.encode("utf-8")
    assert (code, len(data)) == (0, 316)
    assert hashlib.sha256(data).hexdigest().startswith("2df14d909a9e6779")
    case = "- corpus run --id flatness-random-p5 --seed 7"
    for fmt in ("json", "csv"):
        code, out, err = _run(capsys, case.split()[1:] + ["--format", fmt])
        digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
        assert (code, digest, err) == GOLDEN[case][fmt]


class FakeFixture(NamedTuple):
    """Logs "index pid" to log on each run.  action "raise" raises an
    InputError; in a forked helper, "exit0" and "exit1" end it with that
    code, and "exit-late" makes it exit 3 once it has sent its results."""

    index: int
    log: str
    parent: int
    action: str = ""

    def run(self, seed):
        with open(self.log, "a") as fh:
            fh.write("%d %d\n" % (self.index, os.getpid()))
        if self.action == "raise":
            raise InputError("fixture %d" % self.index)
        if self.action == "exit-late" and os.getpid() != self.parent:
            exit_now = os._exit
            os._exit = lambda code: exit_now(3)
        elif self.action.startswith("exit") and os.getpid() != self.parent:
            os._exit(int(self.action[4:]))
        return {"fixture": self.index, "seed": seed, "half": Fraction(self.index, 2)}


def _fakes(tmp_path, count, **actions):
    log = str(tmp_path / "runs.log")
    fakes = [FakeFixture(k, log, os.getpid(), actions.get("at%d" % k, "")) for k in range(count)]
    return fakes, log


def _runs(log):
    """(fixture index, pid) of every run, in fixture order, and the same with
    each pid read as "parent" (this process) or "helper"."""
    with open(log) as fh:
        runs = sorted(tuple(int(part) for part in line.split()) for line in fh)
    return runs, sorted((k, "parent" if pid == os.getpid() else "helper") for k, pid in runs)


def _expected(count, seed):
    return [{"fixture": k, "seed": seed, "half": Fraction(k, 2)} for k in range(count)]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_runner_strides_fixtures_over_processes(tmp_path, monkeypatch):
    """Fixture k runs once, in process k mod 3; process 0 is this one."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    fakes, log = _fakes(tmp_path, 7)
    results = cli._run_fixtures(fakes, 9)
    _no_child_left()
    assert cli._jsonable(results) == cli._jsonable(_expected(7, 9))
    runs, _ = _runs(log)
    assert [k for k, _ in runs] == list(range(7))
    pids = [pid for _, pid in runs[:3]]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert [pid for _, pid in runs] == pids * 2 + pids[:1]


def test_runner_raises_first_error_in_fixture_order(tmp_path, monkeypatch):
    """A helper's error at index 3 wins over this process's at index 4."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fakes, log = _fakes(tmp_path, 6, at3="raise", at4="raise")
    with pytest.raises(InputError, match="^fixture 3$"):
        cli._run_fixtures(fakes, 9)
    _no_child_left()
    # Each process stops at its error; then fixtures 0-3 run again here,
    # in order, and fixture 3 raises.
    assert _runs(log)[1] == [
        (0, "parent"), (0, "parent"), (1, "helper"), (1, "parent"), (2, "parent"),
        (2, "parent"), (3, "helper"), (3, "parent"), (4, "parent"),
    ]


@pytest.mark.parametrize("action, in_helper", [("exit0", [1]), ("exit1", [1]), ("exit-late", [1, 3])])
def test_runner_reruns_fixtures_of_a_failed_helper(tmp_path, monkeypatch, action, in_helper):
    """A helper that exits before it sends JSON, with code 0 or not, or exits
    non-zero after, gives no results: every fixture runs again here."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fakes, log = _fakes(tmp_path, 5, at1=action)
    results = cli._run_fixtures(fakes, 9)
    _no_child_left()
    assert cli._jsonable(results) == cli._jsonable(_expected(5, 9))
    # This process runs its stripe 0, 2, 4, then every fixture again.
    expected = [(k, "parent") for k in [0, 2, 4, 0, 1, 2, 3, 4]]
    expected += [(k, "helper") for k in in_helper]
    assert _runs(log)[1] == sorted(expected)


def test_runner_runs_serially_when_fork_fails(tmp_path, monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    monkeypatch.setattr(os, "fork", no_fork)
    fakes, log = _fakes(tmp_path, 5)
    assert cli._jsonable(cli._run_fixtures(fakes, 9)) == cli._jsonable(_expected(5, 9))
    assert _runs(log)[1] == [(k, "parent") for k in range(5)]


def test_corpus_run_error_is_that_of_a_serial_run(capsys, tmp_path, monkeypatch):
    """A fixture that raises prints nothing on stdout, only the first error
    in fixture order, and the exit code of its kind."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    fakes, _ = _fakes(tmp_path, 6, at3="raise", at4="raise")
    monkeypatch.setattr(cli, "corpus", lambda: fakes)
    assert _run(capsys, ["corpus", "run", "--all"]) == (2, "", "error: fixture 3\n")
    _no_child_left()


def test_python_m_hkcalc_lists_the_corpus():
    """The package runs as a module: python -m hkcalc."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run(
        [sys.executable, "-m", "hkcalc", "corpus", "list", "--format", "csv"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert (done.returncode, done.stderr) == (0, "")
    rows = list(csv.reader(done.stdout.splitlines()))
    assert rows[0] == ["fixture", "description"]
    ids = [row[0] for row in rows[1:]]
    assert ids == [f.fixture_id for f in corpus()] and len(set(ids)) == 15


# -- golden output ------------------------------------------------------------

# Near the origin y - 1 is a unit, so (xy - x, y^2 - y) is m locally, x - 1
# is a unit there, and (x^2 + y^3, xy) is m-primary but not graded.
NON_GRADED = """\
char 5
vars x y
ideal I = x*y - x, y^2 - y
ideal U = x - 1
ideal K = x^2 + y^3, x*y
ideal m = x, y
ideal L = x^2 + y^3
prime C = x^2 + y^3
prime Q = x
param g = y
param h = x
"""

GOLDEN_SESSIONS = {
    "quadric": QUADRIC,
    "non-graded": NON_GRADED,
    "quadric-lex": QUADRIC.replace("vars x y z\n", "vars x y z\norder lex\n"),
    "non-graded-lex": NON_GRADED.replace("vars x y\n", "vars x y\norder lex\n"),
}

# "<session> <argv>" (session "-" takes no --in) -> {format: (exit code,
# sha256 prefix of stdout, stderr)}.  Every verb is pinned in both formats.
GOLDEN = {
    "quadric gb --ideal J": {
        "json": (0, "0d64d94e8ab00f79", ""),
        "csv": (0, "fa040c725b4595d0", ""),
    },
    "quadric-lex gb --ideal J": {
        "json": (0, "0d64d94e8ab00f79", ""),
        "csv": (0, "fa040c725b4595d0", ""),
    },
    "non-graded-lex gb --ideal K": {
        "json": (0, "20f9ecaa0bd1bc02", ""),
        "csv": (0, "8cc236960afa01fb", ""),
    },
    "quadric gb --ideal m": {
        "json": (0, "d7e9961fbf3777eb", ""),
        "csv": (0, "22e78dbd230f32f5", ""),
    },
    "quadric dim --ideal J": {
        "json": (0, "9efc4eb1a306c904", ""),
        "csv": (0, "ba6e2226c5493bfc", ""),
    },
    "quadric dim --ideal m": {
        "json": (0, "a7ece0d8eb79f4c1", ""),
        "csv": (0, "b2164c9578b2ed7e", ""),
    },
    "quadric dim --ideal missing": {
        "json": (2, "e3b0c44298fc1c14", "error: unknown ideal 'missing'\n"),
        "csv": (2, "e3b0c44298fc1c14", "error: unknown ideal 'missing'\n"),
    },
    "quadric colength --ideal m": {
        "json": (0, "20a04117521df162", ""),
        "csv": (0, "12f722f7ac5d2038", ""),
    },
    "quadric colength --ideal J": {
        "json": (0, "824d54809ca10d2d", ""),
        "csv": (0, "2554c89c733ecdf8", ""),
    },
    "quadric local-colength --ideal J": {
        "json": (0, "bf067e9173a16471", ""),
        "csv": (0, "2890cebcaa3d07c3", ""),
    },
    "quadric local-colength --ideal I2": {
        "json": (0, "c106c9762ccb5fb1", ""),
        "csv": (0, "be6cb324eadf8060", ""),
    },
    "quadric mult --ideal J --param f": {
        "json": (0, "ae07f4846e4bab9d", ""),
        "csv": (0, "6bbaa1ef94f213d0", ""),
    },
    "quadric hk --ideal m --emax 1": {
        "json": (0, "967593b5e2454cd8", ""),
        "csv": (0, "9fd19852f19017b8", ""),
    },
    "quadric hk --ideal m --emax 2": {
        "json": (0, "52d66264705f6e8c", ""),
        "csv": (0, "c050841c0aa7a830", ""),
    },
    "quadric hk --ideal m --emax 3": {
        "json": (0, "28213c1fe526093a", ""),
        "csv": (0, "cb8a9635b9306bfe", ""),
    },
    "quadric ehk --ideal m --emax 1": {
        "json": (2, "e3b0c44298fc1c14", "error: ehk_estimate needs e_max >= 2\n"),
        "csv": (2, "e3b0c44298fc1c14", "error: ehk_estimate needs e_max >= 2\n"),
    },
    "quadric ehk --ideal m --emax 2": {
        "json": (0, "1d92147d076c1fc7", ""),
        "csv": (0, "35e74c2d98ab6366", ""),
    },
    "quadric ehk --ideal m --emax 3": {
        "json": (0, "c54e5e3a4073893d", ""),
        "csv": (0, "38522b96f2bd1eae", ""),
    },
    "quadric check kunz --q 5,25": {
        "json": (0, "6fafef3ff51c4039", ""),
        "csv": (0, "8739b25d94b8cfdb", ""),
    },
    "quadric check flatness --ideal m --q 5": {
        "json": (2, "ccec1d6d1906f810", "inapplicable: precondition unmet: the ring has relations (not the regular model)\n"),
        "csv": (2, "8921de35446171cd", "inapplicable: precondition unmet: the ring has relations (not the regular model)\n"),
    },
    "quadric check lemma21 --ideal I2 --ideal-j m --q 5": {
        "json": (0, "33d226585de58dee", ""),
        "csv": (0, "aea40275328b5347", ""),
    },
    "quadric check thm23 --ideal-j J --param f --primes P --emax 2": {
        "json": (0, "b5722f9b2e901cb1", ""),
        "csv": (0, "a4fe9b6f067215d1", ""),
    },
    "quadric check thm33 --prime P --param f --q 5,25": {
        "json": (0, "bf22f742e6dc9e32", ""),
        "csv": (0, "1be5ec72324f1c7d", ""),
    },
    "quadric check rescaling --e 1": {
        "json": (0, "d5f178e93c634977", ""),
        "csv": (0, "4ae86dea01f56432", ""),
    },
    "non-graded gb --ideal I": {
        "json": (0, "d857bbd0e75639b6", ""),
        "csv": (0, "3ba654f705e6a02b", ""),
    },
    "non-graded gb --ideal K": {
        "json": (0, "0d66c687b85ee621", ""),
        "csv": (0, "31b494c0dc3e43e8", ""),
    },
    "non-graded dim --ideal I": {
        "json": (0, "538fb0ac326b9fd2", ""),
        "csv": (0, "7269f0443fb5e80e", ""),
    },
    "non-graded dim --ideal U": {
        "json": (2, "e3b0c44298fc1c14", "error: empty at the origin: the ideal is a unit in the local ring\n"),
        "csv": (2, "e3b0c44298fc1c14", "error: empty at the origin: the ideal is a unit in the local ring\n"),
    },
    "non-graded dim --ideal K": {
        "json": (0, "854c4f1f83ad151d", ""),
        "csv": (0, "2e6ba704918a0290", ""),
    },
    "non-graded colength --ideal I": {
        "json": (0, "a09cde1ba6caa301", ""),
        "csv": (0, "76d5eacdfed53797", ""),
    },
    "non-graded colength --ideal K": {
        "json": (0, "599214b8be3b8a72", ""),
        "csv": (0, "028b78e8ba66687b", ""),
    },
    "non-graded local-colength --ideal I": {
        "json": (0, "2b9e8b4c5b6fbfd4", ""),
        "csv": (0, "16b2fbc247ead8f6", ""),
    },
    "non-graded local-colength --ideal U": {
        "json": (0, "58fd32d13bc7da0d", ""),
        "csv": (0, "d2ee6fd630475bd9", ""),
    },
    "non-graded local-colength --ideal K": {
        "json": (0, "fc82f5cffee922f9", ""),
        "csv": (0, "7878be1e621b0efc", ""),
    },
    "non-graded mult --ideal L --param g": {
        "json": (0, "2c810f35a2cf5373", ""),
        "csv": (0, "c307be4c79c66fd2", ""),
    },
    "non-graded hk --ideal K --emax 2": {
        "json": (0, "1bef94a725e33676", ""),
        "csv": (0, "7d731fb8376d4fa3", ""),
    },
    "non-graded hk --ideal m --emax 3": {
        "json": (0, "f627b1d13dde68de", ""),
        "csv": (0, "34604686ca5477bd", ""),
    },
    "non-graded ehk --ideal K --emax 2": {
        "json": (0, "237c5065b9d4a881", ""),
        "csv": (0, "7f679e1f788c9352", ""),
    },
    "non-graded ehk --ideal I --emax 3": {
        "json": (0, "97255e3a4bf4c823", ""),
        "csv": (0, "c5af47b61236446d", ""),
    },
    "non-graded check kunz --q 5,25": {
        "json": (0, "eed805a6caa41f0a", ""),
        "csv": (0, "bd6b36869fa67910", ""),
    },
    "non-graded check flatness --ideal K --q 5": {
        "json": (0, "a363d1c748172437", ""),
        "csv": (0, "293e7e4985b18f30", ""),
    },
    "non-graded check lemma21 --ideal K --ideal-j m --q 5": {
        "json": (0, "33c17de184da3b02", ""),
        "csv": (0, "db7a586422dde792", ""),
    },
    "non-graded check thm23 --ideal-j L --param h --primes C --emax 2": {
        "json": (0, "88b80d6c2e3cbf90", ""),
        "csv": (0, "be9a1cf3f88187f2", ""),
    },
    "non-graded check thm33 --prime Q --param g --q 5": {
        "json": (0, "fabe0ffaae0ee65e", ""),
        "csv": (0, "c58577b83c4a5f84", ""),
    },
    "non-graded check rescaling --e 1": {
        "json": (0, "2e560865f4187ddb", ""),
        "csv": (0, "6a1a8a0b5ed85dac", ""),
    },
    "- corpus list": {
        "json": (0, "4d6d66129652f389", ""),
        "csv": (0, "0aed4b711614dc9b", ""),
    },
    "- corpus run --id regular-2d-p3": {
        "json": (0, "9af832fa1084600a", ""),
        "csv": (0, "4a2dcf0e6d079f22", ""),
    },
    "- corpus run --id flatness-random-p5 --seed 7": {
        "json": (0, "fbf4a19bc1c85362", ""),
        "csv": (0, "70cd61fa26ad1f16", ""),
    },
}


@pytest.mark.parametrize(
    "case, fmt", [(case, fmt) for case in GOLDEN for fmt in ("json", "csv")]
)
def test_golden_output(capsys, tmp_path, case, fmt):
    session, *argv = case.split()
    if session != "-":
        path = tmp_path / ("%s.hk" % session)
        path.write_text(GOLDEN_SESSIONS[session])
        argv += ["--in", str(path)]
    code, out, err = _run(capsys, argv + ["--format", fmt])
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
    assert (code, digest, err) == GOLDEN[case][fmt]
