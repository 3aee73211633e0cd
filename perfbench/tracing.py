"""In-memory span tracing of calls into hypmax's public functions.

The tracer replaces each traced function at the module (or class) attribute
its callers look up, records one span per call and restores the originals on
``uninstall``.  A span is the list
``[name, start, end, parent, request, work, extra]``: ``parent`` is the index
of the enclosing span (-1 for none), ``request`` the id of the request that
caused it, ``work`` the layer's work count for the call (points, cells,
samples, members or bytes) and ``extra`` an optional dict of derived values.
Nothing inside the package is changed.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, REQUEST, WORK, EXTRA = range(7)


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


def _size_of(pos, name):
    return lambda args, kwargs, result: int(np.size(_arg(args, kwargs, pos, name)))


def _rows_of(pos, name):
    return lambda args, kwargs, result: int(np.shape(_arg(args, kwargs, pos, name))[0])


def _omega_samples(args, kwargs, result):
    if _arg(args, kwargs, 1, "method", "analytic") != "mc":
        return 0
    return int(_arg(args, kwargs, 2, "samples", 1_000_000))


def _field_work(args, kwargs, result):
    return len(result.members)


def _field_extra(args, kwargs, result):
    return {"cells": int(_arg(args, kwargs, 0, "grid").size)}


def _kept_ratio(args, kwargs, result):
    return {"ratio": len(result.cylinders) / max(1, len(_arg(args, kwargs, 1, "generator")))}


def _selected_ratio(args, kwargs, result):
    return {"ratio": len(result[0]) / max(1, len(_arg(args, kwargs, 1, "family")))}


# (module, class or None, attribute, span name, work counter, extra, materialize)
# ``materialize`` names an argument that may be an iterator; it is turned into
# a list before the call so its length can be counted.
TRACED = [
    ("hypmax.hyp2", None, "contains_mask", "hyp2.contains_mask", _size_of(1, "x"), None, None),
    ("hypmax.measure", None, "membership_mask", "measure.membership_mask", None, None, None),
    # maxop imports membership_mask by name, so it looks it up in its own namespace
    ("hypmax.maxop", None, "membership_mask", "measure.membership_mask", None, None, None),
    ("hypmax.measure", None, "build_grid", "measure.build_grid", lambda a, k, r: int(r.size), None, None),
    ("hypmax.measure", None, "mc_volume", "measure.mc_volume", lambda a, k, r: int(_arg(a, k, 3, "samples")), None, None),
    ("hypmax.maxop", None, "maximal_field", "maxop.maximal_field", _field_work, _field_extra, None),
    ("hypmax.maxop", None, "operator_compare", "maxop.operator_compare", None, None, None),
    ("hypmax.maxop", None, "level_set_table", "maxop.level_set_table", None, None, None),
    ("hypmax.htype", None, "gauge_batch", "htype.gauge_batch", _rows_of(1, "Z"), None, None),
    ("hypmax.htype", None, "dist_n", "htype.dist_n", None, None, None),
    ("hypmax.drsets", None, "cylinder_contains_batch", "drsets.cylinder_contains_batch", _size_of(4, "a"), None, None),
    ("hypmax.drsets", None, "omega_n", "drsets.omega_n", _omega_samples, None, None),
    ("hypmax.experiments", None, "build_maximal_family", "experiments.build_maximal_family", None, _kept_ratio, (1, "generator")),
    ("hypmax.experiments", None, "overlap_profile", "experiments.overlap_profile", None, None, None),
    ("hypmax.experiments", None, "vitali_select", "experiments.vitali_select", None, _selected_ratio, None),
    ("hypmax.report", "ExperimentReport", "to_json", "report.serialize", lambda a, k, r: len(r.encode()), None, None),
    ("hypmax.report", "ExperimentReport", "to_csv", "report.serialize", lambda a, k, r: len(r.encode()), None, None),
    ("hypmax.figures", None, "emit_figure", "figures.emit_figure", None, None, None),
    ("hypmax.cli", None, "run", "cli.run", None, None, None),
]

# Per-layer metrics: (metric name, span name, per-request aggregate, unit).
# Aggregates: calls, work (sum of work counts), s (sum of durations),
# self_s (sum of self times), member_cells (sum of work x grid cells),
# ratio (per-call ratio; the metric is the median over calls).
LAYER_METRICS = [
    ("hyp2.contains_mask.calls", "hyp2.contains_mask", "calls", "count"),
    ("hyp2.contains_mask.points", "hyp2.contains_mask", "work", "count"),
    ("hyp2.contains_mask.self_s", "hyp2.contains_mask", "self_s", "s"),
    ("measure.membership_mask.calls", "measure.membership_mask", "calls", "count"),
    ("measure.membership_mask.self_s", "measure.membership_mask", "self_s", "s"),
    ("measure.build_grid.cells", "measure.build_grid", "work", "count"),
    ("measure.build_grid.s", "measure.build_grid", "s", "s"),
    ("measure.mc_volume.samples", "measure.mc_volume", "work", "count"),
    ("measure.mc_volume.s", "measure.mc_volume", "s", "s"),
    ("maxop.maximal_field.calls", "maxop.maximal_field", "calls", "count"),
    ("maxop.maximal_field.members", "maxop.maximal_field", "work", "count"),
    ("maxop.maximal_field.member_cells", "maxop.maximal_field", "member_cells", "count"),
    ("maxop.maximal_field.self_s", "maxop.maximal_field", "self_s", "s"),
    ("maxop.maximal_field.witness_ratio", "maxop.maximal_field", "ratio", "ratio"),
    ("maxop.operator_compare.self_s", "maxop.operator_compare", "self_s", "s"),
    ("maxop.level_set_table.self_s", "maxop.level_set_table", "self_s", "s"),
    ("htype.gauge_batch.calls", "htype.gauge_batch", "calls", "count"),
    ("htype.gauge_batch.points", "htype.gauge_batch", "work", "count"),
    ("htype.gauge_batch.s", "htype.gauge_batch", "s", "s"),
    ("htype.dist_n.calls", "htype.dist_n", "calls", "count"),
    ("htype.dist_n.s", "htype.dist_n", "s", "s"),
    ("drsets.cylinder_contains_batch.calls", "drsets.cylinder_contains_batch", "calls", "count"),
    ("drsets.cylinder_contains_batch.points", "drsets.cylinder_contains_batch", "work", "count"),
    ("drsets.cylinder_contains_batch.self_s", "drsets.cylinder_contains_batch", "self_s", "s"),
    ("drsets.omega_n.samples", "drsets.omega_n", "work", "count"),
    ("drsets.omega_n.s", "drsets.omega_n", "s", "s"),
    ("experiments.build_maximal_family.self_s", "experiments.build_maximal_family", "self_s", "s"),
    ("experiments.build_maximal_family.kept_ratio", "experiments.build_maximal_family", "ratio", "ratio"),
    ("experiments.overlap_profile.self_s", "experiments.overlap_profile", "self_s", "s"),
    ("experiments.vitali_select.self_s", "experiments.vitali_select", "self_s", "s"),
    ("experiments.vitali_select.selected_ratio", "experiments.vitali_select", "ratio", "ratio"),
    ("report.serialize.s", "report.serialize", "s", "s"),
    ("report.serialize.bytes", "report.serialize", "work", "bytes"),
    ("figures.emit_figure.s", "figures.emit_figure", "s", "s"),
    ("cli.run.self_s", "cli.run", "self_s", "s"),
]


def _digest(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:32]


class Tracer:
    """Records spans while installed; ``request`` tags every new span."""

    def __init__(self):
        self.spans: list = []
        self.request = "setup"
        self._stack: list = []
        self._fields: list = []  # (span, MaxField) digested when the request ends
        self._saved: list = []
        self.field_digests: dict = {}  # request id -> [[values, witness_idx] digest per maximal_field call]

    # ------------------------------------------------------------ patching

    def install(self, targets=TRACED) -> None:
        for module, cls, attr, name, work, extra, materialize in targets:
            owner = importlib.import_module(module)
            if cls:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, work, extra, materialize))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name, work, extra, materialize):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if materialize:
                pos, key = materialize
                if len(args) > pos:
                    args = args[:pos] + (list(args[pos]),) + args[pos + 1 :]
                elif key in kwargs:
                    kwargs[key] = list(kwargs[key])
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if work:
                span[WORK] = work(args, kwargs, result)
            if extra:
                span[EXTRA] = extra(args, kwargs, result)
            if name == "maxop.maximal_field":
                tracer._fields.append((span, result))
            return result

        return traced

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        span = [name, 0.0, 0.0, parent, self.request, None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    # ------------------------------------------------------------ requests

    @contextmanager
    def request_span(self, request_id: str):
        """Root span of one request; maximal fields are digested on exit,
        outside the span."""
        self.request = request_id
        span = self._open("request")
        try:
            yield span
        finally:
            self._close(span)
            self._digest_fields()
            self.request = None

    def _digest_fields(self) -> None:
        digests = self.field_digests.setdefault(self.request, [])
        for span, fld in self._fields:
            widx = fld.witness_idx
            span[EXTRA]["values_sha256"] = _digest(fld.values)
            span[EXTRA]["witness_sha256"] = _digest(widx)
            span[EXTRA]["ratio"] = len(np.unique(widx[widx >= 0])) / max(1, len(fld.members))
            digests.append([span[EXTRA]["values_sha256"], span[EXTRA]["witness_sha256"]])
        self._fields.clear()

    def to_json_dict(self) -> dict:
        names = sorted({s[NAME] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "span_fields": ["name", "start", "end", "parent", "request", "work", "extra"],
            "names": names,
            "spans": [[index[s[NAME]], *s[1:]] for s in self.spans],
        }


# ------------------------------------------------------------ aggregation

def self_times(spans) -> list:
    """Each span's duration minus the part of its interval that its child
    spans cover.  ``spans`` are sequences starting (name, start, end, parent)."""
    children: list = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    out = []
    for i, s in enumerate(spans):
        lo0, hi0 = s[START], s[END]
        covered, cur_lo, cur_hi = 0.0, None, None
        for lo, hi in sorted((max(spans[c][START], lo0), min(spans[c][END], hi0)) for c in children[i]):
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(hi0 - lo0 - covered)
    return out


def layer_metrics(spans) -> dict:
    """Per-layer metrics of ``LAYER_METRICS``.

    Each metric is the median, over the requests (and set-up) that called
    the layer, of that request's aggregate; ratios are the median over calls.
    A layer that was never called reports 0.
    """
    selfs = self_times(spans)
    groups: dict = {}
    ratios: dict = {}
    for span, own in zip(spans, selfs):
        name = span[NAME]
        g = groups.setdefault(name, {}).setdefault(
            span[REQUEST], {"calls": 0, "work": 0, "s": 0.0, "self_s": 0.0, "member_cells": 0}
        )
        g["calls"] += 1
        g["work"] += span[WORK] or 0
        g["s"] += span[END] - span[START]
        g["self_s"] += own
        extra = span[EXTRA] or {}
        if "cells" in extra:
            g["member_cells"] += (span[WORK] or 0) * extra["cells"]
        if "ratio" in extra:
            ratios.setdefault(name, []).append(extra["ratio"])
    out = {}
    for metric, layer, agg, unit in LAYER_METRICS:
        if agg == "ratio":
            vals = ratios.get(layer, [])
        else:
            vals = [g[agg] for g in groups.get(layer, {}).values()]
        out[metric] = (statistics.median(vals) if vals else 0, unit)
    return out
