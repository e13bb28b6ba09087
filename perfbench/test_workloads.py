"""The corpus check counts failed fixtures one by one, and all 15 when the output is wrong.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import workloads  # noqa: E402

EXPECTED = {"fixtures": len(workloads.CORPUS_FIXTURES)}


def _output(code, failing=(), fixtures=workloads.CORPUS_FIXTURES):
    results = [{"fixture": f, "passed": f not in failing} for f in fixtures]
    return {"exit": code, "stdout": json.dumps({"results": results})}


def test_failed_fixtures_counted_one_by_one():
    bad = ("regular-2d-p3", "quadric-cone-p7")
    for seed in (7, 42):
        assert workloads.failed_ops({"workload": "corpus"}, seed, EXPECTED, _output(1, bad)) == 2


def test_wrong_output_fails_every_fixture():
    cases = [
        _output(3),  # resource limit
        _output(0, ("regular-2d-p3",)),  # exit code disagrees with the results
        _output(1),  # likewise
        _output(0, fixtures=workloads.CORPUS_FIXTURES[:-1]),  # a fixture missing
        {"exit": 0, "stdout": "not json"},
    ]
    for output in cases:
        assert workloads.failed_ops({"workload": "corpus"}, 7, EXPECTED, output) == 15
    # Every fixture passed, but stdout is not the pinned seed-42 output.
    assert workloads.failed_ops({"workload": "corpus"}, 42, EXPECTED, _output(0)) == 15
    assert workloads.failed_ops({"workload": "corpus"}, 7, EXPECTED, _output(0)) == 0
