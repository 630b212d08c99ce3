"""Spans around the public names through which the benchmark reaches each
layer of twistor4, recorded only in traced rounds.

A span is (op, id, parent, name, start, end).  Spans stay in memory and are
written when the run ends.  A layer's self time is its spans' durations
minus the time their child spans cover; single-threaded spans nest, so the
covered time is the sum of the children's durations.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

# (module path, attribute, span name).  The same function reached through
# two modules gets the same span name.
SPANS = (
    ("twistor4.cli", "FieldGrid", "geometry.FieldGrid"),
    ("twistor4.cli", "structure_residuals", "geometry.structure_residuals"),
    ("twistor4", "surface_point_data", "geometry.surface_point_data"),
    ("twistor4.geometry", "normal_connection", "geometry.normal_connection"),
    ("twistor4", "gauss_weingarten_matrices",
     "geometry.gauss_weingarten_matrices"),
    ("twistor4.cli", "parse_surface", "surface_expr.parse_surface"),
    ("twistor4", "parse_surface", "surface_expr.parse_surface"),
    ("twistor4.geometry", "eval_surface_jet", "surface_expr.eval_surface_jet"),
    ("twistor4.cli", "isotropy_report", "twistor.isotropy_report"),
    ("twistor4.cli", "chart_residuals", "twistor.chart_residuals"),
    ("twistor4.cli", "lift_sphere_fields", "twistor.lift_sphere_fields"),
    ("twistor4.twistor", "lift_sphere_fields", "twistor.lift_sphere_fields"),
    ("twistor4.cli", "lift_agreement_residual",
     "twistor.lift_agreement_residual"),
    ("twistor4.twistor", "lift_gradient_sups", "twistor.lift_gradient_sups"),
    ("twistor4", "gauss_map", "twistor.gauss_map"),
    ("twistor4.twistor", "classify_ocs", "complex_structures.classify_ocs"),
)
# Called 2 n^2 times per isothermal export: counted, not spanned, so that
# tracing does not dominate what it measures.  Its time stays in cli.self.
COUNTS = (
    ("twistor4.cli", "chart", "twistor.chart"),
)
ROOT = "op"


class Tracer:
    def __init__(self, modules: dict):
        self._modules = modules          # module path -> module object
        self._originals = []
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []
        self._op = None

    def _span(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1] if stack else None
            spans.append(None)
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[sid] = (self._op, sid, parent, name, t0, t1)
        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for table, make in ((SPANS, self._span), (COUNTS, self._count)):
            for path, attr, name in table:
                mod = self._modules[path]
                fn = getattr(mod, attr)
                self._originals.append((mod, attr, fn))
                setattr(mod, attr, make(name, fn))

    def uninstall(self):
        while self._originals:
            mod, attr, fn = self._originals.pop()
            setattr(mod, attr, fn)

    @contextlib.contextmanager
    def operation(self, op_id):
        """One operation: a root span whose op id its child spans share."""
        self._op = op_id
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (op_id, sid, None, ROOT, t0, t1)
            self._op = None

    def self_times(self, weights):
        """name -> total self seconds, and name -> calls, over the spans of
        the operations in `weights`, each op's self time times its weight."""
        child = defaultdict(float)
        for s in self.spans:
            if s[2] is not None:
                child[s[2]] += s[5] - s[4]
        total = defaultdict(float)
        calls = defaultdict(int)
        for s in self.spans:
            if s[0] in weights:
                total[s[3]] += ((s[5] - s[4]) - child[s[1]]) * weights[s[0]]
                calls[s[3]] += 1
        return total, calls

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end"],
                       "spans": self.spans,
                       "counts": dict(self.counts)}, fh)
