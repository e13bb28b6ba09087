"""Span tracer that wraps hkcalc's public functions from outside the package.

Every ``hkcalc`` module is imported before anything is patched.  Each target
function object gets exactly one wrapper, and every module attribute bound
to that object is replaced, because callers bind functions with
``from .x import f``.  ``Fixture.run`` is patched on its class.

A span is recorded at each wrapped call: name, start, end, the open span
that caused it, and a small note taken from the arguments or the result
after the span has closed.  Spans stay in memory; ``summary`` turns them
into per-layer counts and self times, where self time is the span's
duration minus the time covered by its child spans.

``poly``, ``orders`` and ``field`` are not wrapped: ``mono_divides`` alone is
called millions of times per corpus run, so their time is part of the self
time of the layer that calls them.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time

_clock = time.perf_counter


def import_all():
    """Import every hkcalc module (except ``__main__``) and return them."""
    import hkcalc

    for info in pkgutil.iter_modules(hkcalc.__path__):
        if info.name != "__main__":
            importlib.import_module("hkcalc." + info.name)
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "hkcalc" or name.startswith("hkcalc.")
    ]


def _is_homogeneous(ideal) -> bool:
    return all(g.is_homogeneous() for g in ideal.generators + tuple(ideal.ring.relations))


class Tracer:
    """Collects spans from the wrapped functions of one process."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, note]
        self._open = []
        self._returned_bases = {}  # id -> basis, kept alive so ids stay unique

    # -- notes taken after a span closes --------------------------------------

    def _note_basis(self, args, result):
        hit = id(result) in self._returned_bases
        self._returned_bases[id(result)] = result
        return (len(result.elements), hit)

    @staticmethod
    def _note_local_colength(args, result):
        return not _is_homogeneous(args[0])

    @staticmethod
    def _note_hilbert_samuel(args, result):
        return result.stabilized_at

    @staticmethod
    def _note_check(args, result):
        return result.verdict

    @staticmethod
    def _note_fixture(args, result):
        return args[0].fixture_id

    def targets(self):
        """(span name, module, attribute path, note) for every wrapped function."""
        checks = [
            ("checks." + kind, "hkcalc.checks", "check_" + kind, self._note_check)
            for kind in ("kunz", "flatness", "lemma21", "thm23", "thm33", "rescaling")
        ]
        return [
            ("parser.parse_session", "hkcalc.parser", "parse_session", None),
            ("groebner.basis", "hkcalc.groebner", "groebner_basis", self._note_basis),
            ("groebner.nf", "hkcalc.groebner", "normal_form", None),
            ("lengths.count", "hkcalc.lengths", "count_standard_monomials", None),
            ("lengths.dimension", "hkcalc.lengths", "dimension", None),
            ("lengths.colength", "hkcalc.lengths", "colength", None),
            ("lengths.local_colength", "hkcalc.lengths", "local_colength", self._note_local_colength),
            ("lengths.hilbert_samuel", "hkcalc.lengths", "hilbert_samuel", self._note_hilbert_samuel),
            ("hk.hk_function", "hkcalc.hk", "hk_function", None),
            ("hk.ehk", "hkcalc.hk", "ehk_estimate", None),
            ("hk.lfc", "hkcalc.hk", "localized_frobenius_colength", None),
            *checks,
            ("fixtures.run", "hkcalc.fixtures", "Fixture.run", self._note_fixture),
            ("cli.main", "hkcalc.cli", "main", None),
        ]

    # -- patching -------------------------------------------------------------

    def _wrap(self, name, fn, note):
        spans = self.spans
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, open_spans[-1] if open_spans else -1, None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = _clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = _clock()
                open_spans.pop()
            if note is not None:
                record[4] = note(args, result)
            return result

        wrapper.__perfbench_original__ = fn
        return wrapper

    def install(self):
        """Wrap every target once; return {span name: attributes replaced}."""
        modules = import_all()
        installed = {}
        for name, module_name, path, note in self.targets():
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = getattr(owner, attr)
            if hasattr(fn, "__perfbench_original__"):
                raise RuntimeError("%s is already wrapped" % path)
            wrapper = self._wrap(name, fn, note)
            replaced = 0
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, wrapper)
                        replaced += 1
            installed[name] = replaced
        return installed

    # -- aggregation ----------------------------------------------------------

    def summary(self) -> dict:
        """Per-layer counts and self times of every span recorded so far."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        in_basis = [False] * len(spans)
        for i, (name, start, end, parent, _note) in enumerate(spans):
            if parent >= 0:
                child_time[parent] += end - start
                in_basis[i] = in_basis[parent] or spans[parent][0] == "groebner.basis"
        calls = {}
        self_s = {}
        out = {
            "groebner.basis.elems_max": 0,
            "groebner.basis.elems_sum": 0,
            "groebner.basis.cache_hits": 0,
            "groebner.nf.outside_gb_calls": 0,
            "lengths.local_colength.nonhomog_calls": 0,
            "lengths.hilbert_samuel.rungs": 0,
            "checks.pass": 0,
            "checks.fail": 0,
            "checks.inapplicable": 0,
        }
        fixture_wall = {}
        for i, (name, start, end, _parent, note) in enumerate(spans):
            group = "checks" if name.startswith("checks.") else name
            calls[group] = calls.get(group, 0) + 1
            self_s[group] = self_s.get(group, 0.0) + (end - start) - child_time[i]
            if note is None:
                if name == "groebner.nf" and not in_basis[i]:
                    out["groebner.nf.outside_gb_calls"] += 1
                continue
            if name == "groebner.basis":
                elems, hit = note
                out["groebner.basis.elems_max"] = max(out["groebner.basis.elems_max"], elems)
                out["groebner.basis.elems_sum"] += elems
                out["groebner.basis.cache_hits"] += hit
            elif name == "lengths.local_colength":
                out["lengths.local_colength.nonhomog_calls"] += note
            elif name == "lengths.hilbert_samuel":
                out["lengths.hilbert_samuel.rungs"] += note
            elif group == "checks":
                out["checks." + note.lower()] += 1
            elif name == "fixtures.run":
                fixture_wall[note] = fixture_wall.get(note, 0.0) + end - start
        for name, _module, _path, _note in self.targets():
            group = "checks" if name.startswith("checks.") else name
            out[group + ".calls"] = calls.get(group, 0)
            out[group + ".self_s"] = self_s.get(group, 0.0)
        out["fixtures.wall_s"] = fixture_wall
        return out
