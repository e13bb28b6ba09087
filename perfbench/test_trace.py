"""The tracer counts each call exactly once, the same way every time.

Each traced run is a fresh child process, so the process-wide Groebner-basis
cache starts cold and this test process is never patched.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402

SRC = os.path.join(os.path.dirname(HERE), "src")

# e(x; R/P^[5]) on F_5[x,y,z]/(xy - z^2), P = (y, z): a small known case.
JOB = {
    "workload": "ladders",
    "cases": [{"q": 5, "session": workloads.hs_ladder_session(5, 2, 5)}],
    "session": "",
    "ideals": [],
}


def test_exact_counts_identical_across_two_traced_runs():
    first = run.run_child(JOB, SRC, trace=True)
    second = run.run_child(JOB, SRC, trace=True)
    assert first["output"] == {"values": [5], "certified": [True]}
    counts = run._counts(first["trace"])
    assert counts == run._counts(second["trace"])

    rungs = counts["lengths.hilbert_samuel.rungs"]
    # hilbert_samuel asks for dim(R/J) and dim(R/(J, x)), then climbs the
    # ladder N = 1 .. stabilized_at + 1, one local colength per rung.
    assert counts["parser.parse_session.calls"] == 1
    assert counts["lengths.hilbert_samuel.calls"] == 1
    assert counts["lengths.dimension.calls"] == 2
    assert counts["lengths.local_colength.calls"] == rungs + 1
    assert counts["lengths.colength.calls"] == rungs + 1
    assert counts["lengths.count.calls"] == rungs + 1
    assert counts["lengths.local_colength.nonhomog_calls"] == 0
    assert (
        rungs,
        counts["groebner.basis.calls"],
        counts["groebner.basis.cache_hits"],
        counts["groebner.nf.calls"],
        counts["groebner.nf.outside_gb_calls"],
    ) == (7, 10, 1, 176, 0)
    for layer in ("checks", "fixtures.run", "cli.main", "hk.hk_function"):
        assert counts[layer + ".calls"] == 0


def test_one_wrapper_per_function():
    """Every target is wrapped once, wherever it is bound; a second install fails."""
    code = (
        "import json, tracer\n"
        "t = tracer.Tracer()\n"
        "installed = t.install()\n"
        "import hkcalc, hkcalc.groebner, hkcalc.ideals\n"
        "assert hkcalc.groebner.normal_form is hkcalc.normal_form\n"
        "assert hkcalc.ideals.groebner_basis is hkcalc.groebner.groebner_basis\n"
        "try:\n"
        "    tracer.Tracer().install()\n"
        "except RuntimeError:\n"
        "    print(json.dumps(installed))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + HERE)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    ).stdout
    installed = json.loads(out)
    assert all(n >= 1 for n in installed.values()), installed
    # Bound where defined, re-exported by the package, and imported by callers.
    assert installed["groebner.basis"] == 3  # groebner, ideals, hkcalc
    assert installed["lengths.local_colength"] == 5  # lengths, checks, cli, hk, hkcalc
    assert installed["fixtures.run"] == 1  # the Fixture class
