"""Span tracing of pachsel's public functions, installed from outside the package.

A :class:`Tracer` wraps a fixed list of library functions.  Each wrapped call
records a span ``[name, start, end, parent]`` in memory; functions marked
count-only just bump a counter, because they are called too often for a span
each.  Modules import by name (``from .geometry import satisfies_condition_G``),
so installing a wrapper rebinds every ``pachsel`` module attribute that holds the
original object, and :meth:`Tracer.installed` puts every original back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "pachsel"


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _msa_samples(args, kwargs):
    simplex = _arg(args, kwargs, 0, "simplex")
    return (simplex.dim + 1) * _arg(args, kwargs, 1, "samples_per_vertex")


def _audit_samples(args, kwargs):
    cfg = _arg(args, kwargs, 0, "cfg")
    samples = _arg(args, kwargs, 1, "samples")
    return (cfg.point_set.dim + 2) * samples  # corner volumes + msa of Delta(H)


# (module, qualified name, samples drawn per call or None).  Every entry gets a
# span except COUNT_ONLY, which is counted.
SPANNED = (
    ("cli", "main", None),
    ("constructions", "uniform_ball_set", None),
    ("constructions", "corner_volume_audit", _audit_samples),
    ("constructions", "corner_volumes_mc", lambda a, k: _arg(a, k, 1, "samples")),
    ("geometry", "satisfies_condition_G", None),
    ("geometry", "find_general_position_violation", None),
    ("geometry", "in_general_position", None),
    ("geometry", "strict_separation", None),
    ("enumeration", "RainbowEnumerator.__init__", None),
    ("enumeration", "RainbowEnumerator.containment_masks", None),
    ("lp", "max_margin_separation", None),
    ("lp", "convex_combination", None),
    ("selection", "deep_rainbow_point", None),
    ("selection", "perturb_anchor", None),
    ("selection", "rainbow_hypergraph", None),
    ("selection", "weak_regularity", None),
    ("selection", "RainbowHypergraph.sub_edge_count", None),
    ("selection", "few_separations", None),
    ("selection", "ham_sandwich_bisect", None),
    ("selection", "grow_selection", None),
    ("selection", "separating_arrangement", None),
    ("selection", "shrink_to_generic", None),
    ("selection", "verify_certificate", None),
    ("arrangements", "build_arrangement", None),
    ("arrangements", "separation_dichotomy", None),
    ("cones", "solid_angle_mc", lambda a, k: _arg(a, k, 2, "samples")),
    ("cones", "msa_mc", _msa_samples),
    ("cones", "normal_fan_cover_check", lambda a, k: _arg(a, k, 1, "samples")),
    ("io", "load_json", None),
    ("io", "dump_json", None),
    ("io", "pointset_sha256", None),
)
COUNT_ONLY = (("rational", "det_int"),)


def span_names():
    return [f"{mod}.{qual}" for mod, qual, _ in SPANNED]


def sampling_names():
    return [f"{mod}.{qual}" for mod, qual, samples in SPANNED if samples is not None]


def count_names():
    return [f"{mod}.{qual}" for mod, qual in COUNT_ONLY]


class Tracer:
    """In-memory spans and call counters for one traced region."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.samples: Counter = Counter()
        self._stack: list = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, samples_of):
        spans, stack, samples = self.spans, self._stack, self.samples

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), None, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
                if samples_of is not None:
                    samples[name] += samples_of(args, kwargs)

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    @contextlib.contextmanager
    def installed(self):
        """Wrap every listed function for the duration of the block."""
        patches = []  # (owner, attribute, original), restored in reverse
        try:
            for mod, qual, samples_of in SPANNED:
                self._patch(patches, mod, qual, lambda n, f, s=samples_of: self._span(n, f, s))
            for mod, qual in COUNT_ONLY:
                self._patch(patches, mod, qual, self._counter)
            yield self
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _patch(self, patches, mod, qual, make):
        module = importlib.import_module(f"{PACKAGE}.{mod}")
        name = f"{mod}.{qual}"
        if "." in qual:  # method: one class attribute
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, make(name, original))
            return
        original = getattr(module, qual)
        wrapper = make(name, original)
        for m in self._modules():
            for attr, value in list(vars(m).items()):
                if value is original:
                    patches.append((m, attr, original))
                    setattr(m, attr, wrapper)

    # -- reports ------------------------------------------------------------

    def layer_stats(self) -> dict:
        """Per function: calls, busy seconds ``s`` and ``self_s``.

        ``s`` counts a recursive call once (spans nested in a span of the same
        name are skipped); ``self_s`` is each span's time minus its children.
        """
        stats = {n: {"calls": 0, "s": 0.0, "self_s": 0.0} for n in span_names()}
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, parent) in enumerate(self.spans):
            row = stats[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[i]
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                row["s"] += end - start
        return stats

    def children_of(self, parent_name: str, child_name: str) -> int:
        """Number of ``child_name`` spans whose direct parent is ``parent_name``."""
        return sum(
            1
            for name, _s, _e, parent in self.spans
            if name == child_name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write_jsonl(self, path, base: float) -> None:
        """One JSON line per span (times relative to ``base``), then the counters."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {"id": i, "name": name, "start": start - base, "end": end - base,
                         "parent": parent}
                    )
                    + "\n"
                )
            fh.write(
                json.dumps({"counts": dict(self.counts), "samples": dict(self.samples)}) + "\n"
            )
