"""hkcalc benchmark: end-to-end timings, or per-layer numbers with --trace 1.

    python3 perfbench/run.py --workload corpus --seed 42 --seconds 60 --trace 0

Run from the root of a source checkout.  Each measured run is a fresh child
process (``perfbench/child.py``) that imports ``hkcalc`` from ``src/``, so the
process-wide Groebner-basis cache starts cold, as it does for a CLI user.
Children run one at a time.  The parent makes the inputs from the seed,
checks every output against a reference outside the timed region, and
prints a detail line followed by the result line, which is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

With ``--trace 0`` the metrics are the end-to-end ones, medians over the
children of this run.  With ``--trace 1`` the parent alternates untraced and
traced children, reports the per-layer numbers of the traced ones, and
``trace.overhead_frac``, the traced wall time over the untraced one minus 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
MIN_UNTRACED = 3
MIN_TRACED = 2


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _source_dir() -> str:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "hkcalc", "__init__.py")):
        raise SystemExit("perfbench: run from the root of an hkcalc checkout (no src/hkcalc here)")
    return src


def _commit() -> str:
    # Without .git here, git would look for a repository in the directories above.
    if not os.path.exists(".git"):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_child(job: dict, src: str, trace: bool) -> dict:
    """Run one child to completion; its CPU time comes from wait4 on its pid."""
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + HERE
    argv = [sys.executable, CHILD] + (["--trace"] if trace else [])
    start = _now()
    proc = subprocess.Popen(
        argv,
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    errors = []
    reader = threading.Thread(target=lambda: errors.append(proc.stderr.read()))
    reader.start()
    proc.stdin.write(json.dumps(job).encode("utf-8"))
    proc.stdin.close()
    out = proc.stdout.read()
    reader.join()
    _pid, status, usage = os.wait4(proc.pid, 0)
    end = _now()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    if proc.returncode != 0:
        raise RuntimeError(
            "child exited with %d:\n%s" % (proc.returncode, errors[0].decode("utf-8", "replace"))
        )
    result = json.loads(out)
    if job["workload"] != "import":
        result["setup_s"] = result["first_kernel_call"] - start
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["process_s"] = end - start
    return result


def _stats(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


END_TO_END = (
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def _per_layer(traced, untraced) -> dict:
    """Per-layer metrics: counts from the first traced child, times as medians."""
    summaries = [child["trace"] for child in traced]
    first = summaries[0]
    metrics = {}
    for key, value in first.items():
        if key == "fixtures.wall_s":
            continue
        if key.endswith("_s"):
            metrics[key] = {"value": statistics.median(s[key] for s in summaries), "unit": "s"}
        else:
            metrics[key] = {"value": value, "unit": "count"}
    for fixture in workloads.CORPUS_FIXTURES:
        walls = [s["fixtures.wall_s"].get(fixture, 0.0) for s in summaries]
        metrics["fixtures.%s.wall_s" % fixture] = {"value": statistics.median(walls), "unit": "s"}
    traced_wall = statistics.median(child["wall_s"] for child in traced)
    untraced_wall = statistics.median(child["wall_s"] for child in untraced)
    metrics["trace.overhead_frac"] = {"value": traced_wall / untraced_wall - 1.0, "unit": "frac"}
    return metrics


def _counts(summary) -> dict:
    return {k: v for k, v in summary.items() if not k.endswith("_s")}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=60.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = _source_dir()
    job = workloads.make_job(args.workload, args.seed)
    per_child_ops = workloads.operations(job)

    # Warm-up: compiles bytecode and warms the file cache; not measured.
    run_child({"workload": "import"}, src, trace=False)

    untraced, traced = [], []
    begin = _now()
    while True:
        if args.trace:
            untraced.append(run_child(job, src, trace=False))
            traced.append(run_child(job, src, trace=True))
            enough = len(traced) >= MIN_TRACED
            step = untraced[-1]["process_s"] + traced[-1]["process_s"]
        else:
            untraced.append(run_child(job, src, trace=False))
            enough = len(untraced) >= MIN_UNTRACED
            step = untraced[-1]["process_s"]
        # Start another child only if it is likely to end within --seconds.
        if enough and _now() - begin + step > args.seconds:
            break

    children = untraced + traced
    # The references (sympy for the local colengths) run only after the last child.
    expected = workloads.reference(job, args.seed)
    attempted = per_child_ops * len(children)
    failed = 0
    digests = []
    for child in children:
        bad = workloads.failed_ops(job, args.seed, expected, child["output"])
        if args.workload == "corpus":
            # The corpus output is byte-for-byte deterministic: a child whose
            # output differs from the first child's got every fixture wrong.
            digests.append(hashlib.sha256(child["output"]["stdout"].encode("utf-8")).hexdigest())
            if digests[-1] != digests[0]:
                bad = per_child_ops
        failed += bad
    correct = failed == 0
    if traced:
        first = _counts(traced[0]["trace"])
        correct = correct and all(_counts(child["trace"]) == first for child in traced)

    if args.trace:
        metrics = _per_layer(traced, untraced)
    else:
        metrics = {
            name: {"value": statistics.median(child[name] for child in untraced), "unit": unit}
            for name, unit in END_TO_END
        }
        metrics["ok_frac"] = {"value": 1.0 - failed / attempted, "unit": "frac"}

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "input_sha256": workloads.digest(job),
        "children": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": {
            name: _stats([child[name] for child in untraced]) for name, _unit in END_TO_END
        },
    }
    if args.workload == "corpus":
        detail["output_sha256"] = sorted(set(digests))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(
        json.dumps(
            {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
