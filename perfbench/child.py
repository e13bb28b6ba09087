"""One measured run of one workload, in a fresh process.

Reads a job (see ``workloads.make_job``) as JSON on stdin and writes one JSON
object to stdout: the monotonic clock reading at the first kernel call, the
wall time of the kernel calls, this process's peak resident memory, the
program's outputs, and with tracing on the per-layer summary.  Everything
before the first kernel call (interpreter start, ``import hkcalc``, parsing
the session text) is set-up; the parent measures it from the moment it
started this process.

    python3 perfbench/child.py [--trace] < job.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time


def _now() -> float:
    # CLOCK_MONOTONIC is system-wide, so the parent can compare readings.
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _peak_rss_mb() -> float:
    """VmHWM: the peak resident set of this process image alone.

    Not ru_maxrss: at exec Linux carries the parent's peak into the child's
    ru_maxrss, so that would read at least the parent's size.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0  # the value is in kB
    raise RuntimeError("no VmHWM in /proc/self/status")


def _prepare(job, hk):
    """Parse the session texts: the last step of set-up."""
    if job["workload"] == "corpus":
        return None
    cases = [hk.parser.parse_session(case["session"]) for case in job["cases"]]
    local = hk.parser.parse_session(job["session"]) if job["ideals"] else None
    return cases, local


def _run(job, hk, prepared) -> dict:
    """The timed kernel calls; one operation failing does not stop the rest."""
    if job["workload"] == "corpus":
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = hk.cli.main(job["argv"])
        return {"exit": code, "stdout": out.getvalue()}
    cases, local = prepared
    values, certified = [], []
    for session in cases:
        ring = session.build_ring()
        try:
            result = hk.lengths.hilbert_samuel(session.param("f", ring), session.ideal("Pq", ring))
        except hk.errors.HKError:
            values.append(None)
            certified.append(None)
        else:
            values.append(result.value)
            certified.append(result.certified)
    if local is not None:
        ring = local.build_ring()
        for name in job["ideals"]:
            try:
                values.append(hk.lengths.local_colength(local.ideal(name, ring)))
            except hk.errors.HKError:
                values.append(None)
    return {"values": values, "certified": certified}


def main() -> int:
    trace = "--trace" in sys.argv[1:]
    job = json.load(sys.stdin)

    import hkcalc as hk
    import tracer

    tracer.import_all()
    spans = tracer.Tracer() if trace else None
    if spans is not None:
        spans.install()
    if job["workload"] == "import":
        json.dump({"hkcalc": hk.__file__}, sys.stdout)
        return 0
    prepared = _prepare(job, hk)
    first = _now()
    output = _run(job, hk, prepared)
    wall = _now() - first
    result = {"first_kernel_call": first, "wall_s": wall, "peak_rss_mb": _peak_rss_mb(), "output": output}
    if spans is not None:
        result["trace"] = spans.summary()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
