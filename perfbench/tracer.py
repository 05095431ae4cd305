"""Spans around calls into monoclt's layers, recorded from outside the program.

Tracer.install replaces each traced function where the calling module
binds it (cli.count_c4, moments.count_c4, ...) and each traced method on
its class, with a wrapper that records a span: name, parent span, start,
end and, for some calls, attributes of the work done. Spans stay in memory
until the round ends. With memory=True the calls in MEMORY_WATCHED also
record the peak of memory allocated inside them, by tracemalloc; that
slows them, so a round measures either times or peaks, never both.

layer_metrics turns one round's spans into the per-layer metrics: a span's
self time is its duration minus that of its child spans, and a layer's
time is the self time of its spans.
"""

from __future__ import annotations

import functools
import threading
import time
import tracemalloc

# (module, attribute, span name); a layer is the part of the name before the dot
FUNCTIONS = (
    ("cli", "parse_edge_list", "graph.parse"),
    ("cli", "triangle_census", "census.triangle_census"),
    ("moments", "triangle_census", "census.triangle_census"),
    ("sim", "triangle_census", "census.triangle_census"),
    ("cli", "pyramid_counts", "census.pyramid_counts"),
    ("sim", "pyramid_counts", "census.pyramid_counts"),
    ("cli", "count_c4", "census.count_c4"),
    ("moments", "count_c4", "census.count_c4"),
    ("cli", "b_statistic", "census.b_statistic"),
    ("cli", "s_statistic", "census.s_statistic"),
    ("cli", "score_ordering", "census.score_ordering"),
    ("cli", "t2_moments", "moments.t2_moments"),
    ("sim", "t2_moments", "moments.t2_moments"),
    ("cli", "t3_mean_var", "moments.t3_mean_var"),
    ("sim", "t3_mean_var", "moments.t3_mean_var"),
    ("moments", "t3_mean_var", "moments.t3_mean_var"),
    ("cli", "clt_bound_t2", "moments.clt_bound_t2"),
    ("cli", "clt_bound_t3", "moments.clt_bound_t3"),
    ("cli", "fourth_moment_exact", "fourthmoment.fourth_moment_exact"),
    ("fourthmoment", "discover_classes", "fourthmoment.discover_classes"),
    ("fourthmoment", "class_coefficient", "fourthmoment.class_coefficient"),
    ("cli", "sample_statistics", "sim.sample_statistics"),
    ("sim", "ks_from_distribution", "sim.ks"),
    ("sim", "exact_distribution", "sim.exact_distribution"),
)
# (module, class, method, span name)
METHODS = (
    ("graph", "Graph", "digest", "graph.digest"),
    ("moments", "T2Inputs", "from_graph", "moments.t2_inputs"),
    ("ratpoly", "RationalPoly", "__mul__", "ratpoly.mul"),
    ("ratpoly", "RationalPoly", "__rmul__", "ratpoly.mul"),
    ("ratpoly", "RationalPoly", "__call__", "ratpoly.eval"),
)
MEMORY_WATCHED = ("census.b_statistic", "sim.sample_statistics", "sim.exact_distribution")


def _threads(kwargs):
    return kwargs.get("threads") or 1


ATTRIBUTES = {
    "fourthmoment.discover_classes": lambda a, k, r: {
        "configurations": r.enumerated, "useful": sum(count for _, count in r.entries)},
    "sim.sample_statistics": lambda a, k, r: {"threads": _threads(k), "replications": a[1].replications},
    "sim.exact_distribution": lambda a, k, r: {"threads": _threads(k), "colorings": a[1] ** a[0].n},
}

LAYERS = ("graph", "census", "moments", "ratpoly", "fourthmoment", "sim", "cli")
MB = 1 << 20


class Span:
    __slots__ = ("name", "parent", "start", "end", "attrs")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        self.start = self.end = 0.0
        self.attrs = None


class Tracer:
    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans: list[Span] = []
        self.peaks: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named name."""
        stack = self._stack()
        span = Span(name, stack[-1] if stack else -1)
        stack.append(len(self.spans))
        self.spans.append(span)
        watch = self.memory and name in MEMORY_WATCHED and not tracemalloc.is_tracing()
        if watch:
            tracemalloc.start()
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if watch:
                peak = tracemalloc.get_traced_memory()[1] / MB
                tracemalloc.stop()
                self.peaks[name] = max(self.peaks.get(name, 0.0), peak)
        attrs = ATTRIBUTES.get(name)
        if attrs is not None:
            span.attrs = attrs(args, kwargs, result)
        return result

    def wrap(self, fn, name):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self, modules: dict):
        """Wrap every traced function and method the modules still bind."""
        for module, attr, name in FUNCTIONS:
            if hasattr(modules[module], attr):
                setattr(modules[module], attr, self.wrap(getattr(modules[module], attr), name))
        for module, cls_name, attr, name in METHODS:
            cls = getattr(modules[module], cls_name, None)
            raw = None if cls is None else cls.__dict__.get(attr)
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(raw.__func__, name)))
            elif raw is not None:
                setattr(cls, attr, self.wrap(raw, name))

    def dump(self) -> list:
        return [[s.name, s.parent, s.start, s.end, s.attrs] for s in self.spans]


def layer_metrics(spans: list[Span], since: float, nproc: int) -> dict[str, float]:
    """Per-layer metrics of the spans that started at or after `since`, the
    start of the timed operations, plus graph.generate_s from set-up."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    split = {("sim.sample_statistics", 1): 0.0, ("sim.sample_statistics", nproc): 0.0,
             ("sim.exact_distribution", 1): 0.0, ("sim.exact_distribution", nproc): 0.0}
    work = {"configurations": 0, "useful": 0, "replications": 0, "colorings": 0}
    generate = 0.0
    for i, s in enumerate(spans):
        own = s.end - s.start - child[i]
        if s.name == "graph.generate":
            generate += own
        if s.start < since:
            continue
        self_s[s.name] = self_s.get(s.name, 0.0) + own
        calls[s.name] = calls.get(s.name, 0) + 1
        if s.attrs:
            for key in work:
                work[key] += s.attrs.get(key, 0)
            if (s.name, s.attrs.get("threads")) in split:
                split[(s.name, s.attrs["threads"])] += own

    def t(name):
        return self_s.get(name, 0.0)

    def ratio(num, den):
        return num / den if den else 0.0

    layer = {lay: sum(v for k, v in self_s.items() if k.split(".")[0] == lay) for lay in LAYERS}
    sample1, sample_n = split[("sim.sample_statistics", 1)], split[("sim.sample_statistics", nproc)]
    exact1, exact_n = split[("sim.exact_distribution", 1)], split[("sim.exact_distribution", nproc)]
    out = {
        "graph.generate_s": generate,
        "graph.parse_s": t("graph.parse"),
        "graph.digest_s": t("graph.digest"),
        "census.triangle_census_s": t("census.triangle_census"),
        "census.count_c4_s": t("census.count_c4"),
        "census.b_statistic_s": t("census.b_statistic"),
        "census.s_statistic_s": t("census.s_statistic"),
        "census.score_ordering_s": t("census.score_ordering"),
        "census.pyramid_counts_s": t("census.pyramid_counts"),
        "census.triangle_census_calls": calls.get("census.triangle_census", 0),
        "census.count_c4_calls": calls.get("census.count_c4", 0),
        "moments.t2_inputs_calls": calls.get("moments.t2_inputs", 0),
        "ratpoly.mul_calls": calls.get("ratpoly.mul", 0),
        "ratpoly.mul_s": t("ratpoly.mul"),
        "ratpoly.eval_calls": calls.get("ratpoly.eval", 0),
        "fourthmoment.discover_classes_s": t("fourthmoment.discover_classes"),
        "fourthmoment.class_coefficient_s": t("fourthmoment.class_coefficient"),
        "fourthmoment.class_coefficient_calls": calls.get("fourthmoment.class_coefficient", 0),
        "fourthmoment.configurations": work["configurations"],
        "fourthmoment.useful_share": ratio(work["useful"], work["configurations"]),
        "fourthmoment.configs_per_s": ratio(work["configurations"], t("fourthmoment.discover_classes")),
        "sim.sample_statistics_s": t("sim.sample_statistics"),
        "sim.replications": work["replications"],
        "sim.reps_per_s": ratio(work["replications"], t("sim.sample_statistics")),
        "sim.sample_1thread_s": sample1,
        "sim.sample_nproc_s": sample_n,
        "sim.sample_thread_speedup": ratio(sample1, sample_n),
        "sim.ks_s": t("sim.ks"),
        "sim.exact_distribution_s": t("sim.exact_distribution"),
        "sim.colorings": work["colorings"],
        "sim.colorings_per_s": ratio(work["colorings"], t("sim.exact_distribution")),
        "sim.exact_1thread_s": exact1,
        "sim.exact_nproc_s": exact_n,
        "sim.exact_thread_speedup": ratio(exact1, exact_n),
        "cli.commands": calls.get("cli.run", 0),
    }
    out.update({f"{lay}.self_s": layer[lay] for lay in LAYERS})
    out["trace.self_sum_s"] = sum(layer.values())
    return out
