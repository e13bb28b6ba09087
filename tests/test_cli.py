import hashlib
import json

import pytest

from hkcalc import cli
from hkcalc.checks import CheckReport

QUADRIC = """\
char 5
vars x y z
mod x*y - z^2
ideal m = x, y, z
ideal J = y, z
ideal I2 = x^2, y, z
prime P = y, z height 2
param f = x
"""

# P is declared prime but is not: e(x; R/P^[3]) = 9 is not divisible by
# e(x; R/P) = 2, so the associativity ratio of thm33 fails certification.
NOT_PRIME = """\
char 3
vars x y z
mod y^2 - z^3
prime P = y^2 - x^3*y, y*z - x^2*y, y*z - x^3*z, z^2 - x^2*z height 1
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
    assert payload["estimate"] == "ABSENT"


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


def test_gb_and_order_override(capsys, session_file):
    code, out, _ = _run(capsys, ["gb", "--in", session_file, "--ideal", "J"])
    assert code == 0
    grevlex_basis = json.loads(out)["basis"]
    code, out, _ = _run(
        capsys, ["gb", "--in", session_file, "--ideal", "J", "--order", "lex"]
    )
    assert code == 0
    assert json.loads(out)["basis"]  # same ideal, possibly different basis
    assert "z" in " ".join(grevlex_basis)


def test_ehk_csv(capsys, session_file):
    code, out, _ = _run(
        capsys, ["ehk", "--in", session_file, "--ideal", "m", "--emax", "2", "--format", "csv"]
    )
    assert code == 0
    header, row = out.strip().split("\n")
    assert header.startswith("estimate_num,estimate_den")
    assert row.split(",")[-1] == "two-point-fit"


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


def test_exit_code_inapplicable(capsys, session_file):
    code, out, err = _run(
        capsys, ["check", "flatness", "--in", session_file, "--ideal", "m", "--q", "5"]
    )
    assert code == 2
    assert json.loads(out)["verdict"] == "INAPPLICABLE"
    assert "inapplicable" in err


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


def test_spair_cap_scoped_to_one_call(capsys, tmp_path):
    path = tmp_path / "hard.hk"
    path.write_text(HARD)
    code, _, _ = _run(capsys, ["gb", "--in", str(path), "--ideal", "I", "--spair-cap", "2"])
    assert code == 3
    code, out, _ = _run(capsys, ["gb", "--in", str(path), "--ideal", "I"])
    assert code == 0 and json.loads(out)["basis"]


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
