"""Spans around the calls into each layer of ``robust_vdp``, for traced runs.

Wrappers go on the module attributes where callers look the layer
functions up (``robust_vdp.engine.vsup``, ``robust_vdp.suprema.lp``, ...),
and are removed again after each traced pass, so untraced passes run the
program untouched.  Each span records its name, start, end, parent span and
the CLI call it belongs to; spans stay in memory until the run writes them
out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter

#: span name -> ("module" or "module:Class", attribute) lookup sites
SPAN_SITES = {
    "instance.parse": [("robust_vdp.cli", "parse_document"),
                       ("robust_vdp.cli", "_parse_cone")],
    "render.compute": [("robust_vdp.cli", "compute_results")],
    "render.emit": [("robust_vdp.cli", name) for name in
                    ("emit_tables", "emit_bellman", "results_to_json",
                     "fmt_set", "fmt_vec")],
    "engine.forward": [("robust_vdp.render", "value_sets"),
                       ("robust_vdp.engine", "value_sets")],
    "engine.backward": [("robust_vdp.render", "backward_value"),
                        ("robust_vdp.engine", "backward_value")],
    "engine.one_step": [("robust_vdp.render", "one_step_R"),
                        ("robust_vdp.engine", "one_step_R")],
    "engine.bellman": [("robust_vdp.render", "check_bellman")],
    "engine.reach": [("robust_vdp.engine", "reachable_states")],
    "engine.upper_image": [("robust_vdp.cli", "upper_image")],
    "suprema.vsup": [("robust_vdp.engine", "vsup"), ("robust_vdp.trees", "vsup"),
                     ("robust_vdp.cli", "vsup")],
    "exactlp.lp": [("robust_vdp.suprema", "lp")],
    "cones.set_order": [("robust_vdp.cones:Cone", "set_precurly"),
                        ("robust_vdp.cones:Cone", "set_curlyprec")],
    "trees.cond_expect": [("robust_vdp.render", "cond_expect"),
                          ("robust_vdp.rectangularity", "cond_expect")],
    "rectangularity.check": [("robust_vdp.cli", "is_m_rectangular"),
                             ("robust_vdp.cli", "check_preorder_rectangularity"),
                             ("robust_vdp.cli", "random_terminal_vectors"),
                             ("robust_vdp.engine", "is_m_rectangular")],
}

#: counter name -> lookup site; counted, not timed
ROUTE_SITES = {
    "suprema.route_componentwise": ("robust_vdp.suprema", "vsup_componentwise"),
    "suprema.route_dual_li": ("robust_vdp.suprema", "vsup_dual_li"),
    "suprema.route_general": ("robust_vdp.suprema", "vsup_general"),
}

ROOT_SPAN = "cli.main"

#: per-layer metric -> (span or counter, what is reported)
#:   "incl": seconds per CLI call inside the span; "self": the same minus
#:   its child spans; "count": spans (or counter hits) in one catalog pass
LAYER_METRICS = {
    "cli.self_s": (ROOT_SPAN, "self"),
    "instance.parse_s": ("instance.parse", "incl"),
    "engine.forward_s": ("engine.forward", "incl"),
    "engine.forward_calls": ("engine.forward", "count"),
    "engine.backward_s": ("engine.backward", "incl"),
    "engine.one_step_s": ("engine.one_step", "incl"),
    "engine.bellman_s": ("engine.bellman", "self"),
    "engine.reach_s": ("engine.reach", "incl"),
    "engine.upper_image_s": ("engine.upper_image", "incl"),
    "suprema.vsup_s": ("suprema.vsup", "incl"),
    "suprema.vsup_calls": ("suprema.vsup", "count"),
    "suprema.route_componentwise": ("suprema.route_componentwise", "count"),
    "suprema.route_dual_li": ("suprema.route_dual_li", "count"),
    "suprema.route_general": ("suprema.route_general", "count"),
    "suprema.not_exists": ("suprema.not_exists", "count"),
    "exactlp.lp_s": ("exactlp.lp", "incl"),
    "exactlp.lp_calls": ("exactlp.lp", "count"),
    "cones.set_order_s": ("cones.set_order", "incl"),
    "cones.set_order_calls": ("cones.set_order", "count"),
    "trees.cond_expect_s": ("trees.cond_expect", "incl"),
    "trees.cond_expect_calls": ("trees.cond_expect", "count"),
    "rectangularity.check_s": ("rectangularity.check", "incl"),
    "render.emit_s": ("render.emit", "incl"),
}

#: workload -> per-layer metrics whose span or counter must be recorded
#: there; the end-to-end metric each one moves is listed in README.md
MAPPED = {
    "rect-forward": ("engine.forward_s", "engine.forward_calls",
                     "engine.bellman_s", "engine.reach_s",
                     "cones.set_order_s", "cones.set_order_calls",
                     "suprema.route_componentwise"),
    "explicit-selector": ("engine.backward_s", "engine.one_step_s",
                          "engine.bellman_s", "engine.reach_s"),
    "cone-lp": ("suprema.vsup_s", "suprema.vsup_calls",
                "suprema.route_dual_li", "suprema.route_general",
                "suprema.not_exists", "exactlp.lp_s", "exactlp.lp_calls",
                "cones.set_order_s", "cones.set_order_calls"),
    "cli-small": ("engine.upper_image_s", "instance.parse_s", "render.emit_s",
                  "rectangularity.check_s", "trees.cond_expect_s",
                  "trees.cond_expect_calls", "cli.self_s"),
}


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Records spans while installed; ``install``/``uninstall`` per pass."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, call]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._call = -1
        self._saved: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._call])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def call(self, fn, *args):
        """Run one CLI call under a root span."""
        self._call += 1
        idx = self._open(ROOT_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _span(self, name, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if name == "suprema.vsup" and result.status == "not_exists":
                tracer.counts["suprema.not_exists"] += 1
            return result

        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self):
        sites = [(name, site, self._span)
                 for name, group in SPAN_SITES.items() for site in group]
        sites += [(name, site, self._counter) for name, site in ROUTE_SITES.items()]
        for name, (path, attr), make in sites:
            owner = _owner(path)
            original = owner.__dict__.get(attr)
            if original is None:  # site gone; MAPPED still catches a lost layer
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, make(name, original))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- derived figures ----------------------------------------------------

    def totals(self, first: int = 0):
        """Inclusive time, self time and count per span name, over the spans
        from index first on.  A span nested in one of its own name is not
        counted again."""
        spans = self.spans[first:]
        incl: Counter = Counter()
        self_t: Counter = Counter()
        count: Counter = Counter()
        child_time: Counter = Counter()
        names = {}
        for i, (name, start, end, parent, _) in enumerate(spans, first):
            names[i] = (name, parent)
            if parent >= first:
                child_time[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(spans, first):
            self_t[name] += (end - start) - child_time[i]
            anc = parent
            while anc >= first and names[anc][0] != name:
                anc = names[anc][1]
            if anc < first:
                incl[name] += end - start
                count[name] += 1
        return incl, self_t, count

    def write(self, path):
        with open(path, "w", encoding="utf-8") as f:
            for name, start, end, parent, call in self.spans:
                f.write(json.dumps([name, start, end, parent, call]) + "\n")
