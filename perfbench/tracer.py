"""Layer trace recorded from outside the package.

ramsat reaches its layers through module and class attributes (for example
``search.find_bad_coloring``, ``Graph.with_edge``), so replacing those
attributes with timing wrappers records a span at every layer boundary
without touching the package. A span's self time is its duration minus the
time of the spans it opened. Counts come from the results the wrapped
functions return, so they are exact and repeat for the same inputs.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict


def _search_done(tracer, args, result):
    stats = result.stats
    tracer.counts["search.nodes"] += stats.nodes
    tracer.counts["search.propagations"] += stats.propagations
    tracer.counts["search.backtracks"] += stats.backtracks


def _search_start(tracer):
    if tracer.open["saturation"]:
        tracer.counts["saturation.searches"] += 1


def _saturation_done(tracer, args, result):
    tracer.counts["saturation.nonedges"] += len(result.non_edge_outcomes)


def _subtrees_done(tracer, args, result):
    tracer.counts["colorings.subtrees"] += len(result)


def _scan_done(tracer, args, result):
    tracer.counts["oracle.colorings_scanned"] += 1 << args[0].m


def _enumerate_done(tracer, args, result):
    # enumerate_graphs recurses on n-1; count classes of the outermost call only
    if not tracer.open["oracle.enumerate_graphs"]:
        tracer.counts["oracle.classes"] += len(result)


# (layer, attribute path under the package, start hook, done hook)
SPANS = (
    ("cli", "cli.main", None, None),
    ("verify", "verify.run_all", None, None),
    ("saturation", "saturation.is_rmin_saturated", None, _saturation_done),
    ("saturation", "saturation.is_ramsey_minimal", None, None),
    ("search", "search.find_bad_coloring", _search_start, _search_done),
    ("search", "search.count_bad_colorings", _search_start, _search_done),
    ("search", "search.find_max_red_bad_coloring", _search_start, _search_done),
    ("colorings", "colorings.forced_blue_edges", None, None),
    ("colorings", "colorings.enumerate_subtrees", None, _subtrees_done),
    ("graphs", "graphs.Graph.with_edge", None, None),
    ("graphs", "graphs.Graph.without_edge", None, None),
    ("graphs", "graphs.Graph.triangles", None, None),
    ("graphs", "graphs.Graph.triangle_edge_triples", None, None),
    ("graphs", "graphs.Graph.canonical_form", None, None),
    ("graphs", "graphs.from_graph6", None, None),
    ("constructions", "constructions.build", None, None),
    ("oracle", "oracle.brute_force_bad_colorings", None, _scan_done),
    ("oracle", "oracle.enumerate_graphs", None, _enumerate_done),
)


class Tracer:
    """Span self times, call counts and work counts, while ``active``."""

    def __init__(self):
        self.active = False
        self._stack: list[float] = []  # child time of each open span
        self.reset()

    def reset(self) -> None:
        self.open = defaultdict(int)  # open spans per layer and per span name
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)

    def wrap(self, layer, name, fn, start=None, done=None):
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if start is not None:
                start(tracer)
            stack = tracer._stack
            opened = tracer.open
            stack.append(0.0)
            opened[layer] += 1
            opened[name] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                child = stack.pop()
                opened[layer] -= 1
                opened[name] -= 1
                tracer.self_s[name] += dt - child
                tracer.total_s[name] += dt
                tracer.calls[name] += 1
                if stack:
                    stack[-1] += dt
            if done is not None:
                done(tracer, args, result)
            return result

        if hasattr(fn, "cache_clear"):
            span.cache_clear = fn.cache_clear
        return span

    def install(self, pkg) -> None:
        """Replace every span target in every loaded module of ``pkg``."""
        prefix = pkg.__name__ + "."
        modules = [
            m for n, m in sys.modules.items() if n == pkg.__name__ or n.startswith(prefix)
        ]
        for layer, path, start, done in SPANS:
            modname, _, attr = path.partition(".")
            name = f"{modname}.{attr}"
            owner = getattr(pkg, modname)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, method, self.wrap(layer, name, cls.__dict__[method], start, done))
                continue
            original = getattr(owner, attr)
            wrapper = self.wrap(layer, name, original, start, done)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def spans(self) -> dict:
        """Calls, self time and total time of every span name recorded."""
        return {
            name: {"calls": self.calls[name], "self_s": self.self_s[name], "total_s": self.total_s[name]}
            for name in sorted(self.calls)
        }

    def _layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.startswith(layer + "."))

    def _layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.startswith(layer + "."))

    def metrics(self) -> dict:
        """Per-layer figures for everything recorded since the last reset."""
        s, c, n = self.self_s, self.calls, self.counts
        search_s = self._layer_self("search")
        search_calls = self._layer_calls("search")
        rmin_s = self.total_s["saturation.is_rmin_saturated"]
        scan_s = s["oracle.brute_force_bad_colorings"]
        return {
            "cli.self_ms": s["cli.main"] * 1e3,
            "verify.self_s": s["verify.run_all"],
            "saturation.searches": n["saturation.searches"],
            "saturation.self_s": self._layer_self("saturation"),
            "saturation.nonedges_per_s": _ratio(n["saturation.nonedges"], rmin_s),
            "search.calls": search_calls,
            "search.nodes": n["search.nodes"],
            "search.propagations": n["search.propagations"],
            "search.backtracks": n["search.backtracks"],
            "search.busy_s": search_s,
            "search.nodes_per_s": _ratio(n["search.nodes"], search_s),
            "search.call_us": _ratio(search_s * 1e6, search_calls),
            "colorings.forced_blue_calls": c["colorings.forced_blue_edges"],
            "colorings.forced_blue_s": s["colorings.forced_blue_edges"],
            "colorings.subtrees": n["colorings.subtrees"],
            "colorings.subtrees_s": s["colorings.enumerate_subtrees"],
            "graphs.derived_graphs": c["graphs.Graph.with_edge"] + c["graphs.Graph.without_edge"],
            "graphs.derive_s": s["graphs.Graph.with_edge"] + s["graphs.Graph.without_edge"],
            "graphs.triangle_s": s["graphs.Graph.triangles"] + s["graphs.Graph.triangle_edge_triples"],
            "graphs.graph6_decode_s": s["graphs.from_graph6"],
            "graphs.canonical_forms": c["graphs.Graph.canonical_form"],
            "graphs.canonical_form_s": s["graphs.Graph.canonical_form"],
            "oracle.colorings_scanned": n["oracle.colorings_scanned"],
            "oracle.scan_s": scan_s,
            "oracle.colorings_per_s": _ratio(n["oracle.colorings_scanned"], scan_s),
            "oracle.classes": n["oracle.classes"],
            "oracle.enumerate_s": s["oracle.enumerate_graphs"],
        }


def _ratio(num, den):
    return num / den if den else 0.0
