"""Span tracing around the package's layer boundaries, from outside the package.

Each wrapper replaces one public function or method that a module calls in the
layer below it, records a span (name, layer, start, end, parent span, request
id) in memory, and passes arguments and results through untouched.  Per-layer
self time is a span's duration minus the time its child spans cover; because
the package runs single-threaded here (``threads=1``), child spans nest
strictly inside their parent.  Wrappers do not reach ``ProcessPoolExecutor``
workers, which is why traced runs keep the package at one thread.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field

# (module, attribute, layer of the callee, site).  A function imported from
# another module is wrapped in the importing module's namespace, so the span
# records which layer made the call.
_FUNCTIONS = (
    ("mvn", "mvn_rect", "mvn", "mvn"),
    ("closure", "equicoord_quantile", "mvn", "closure"),
    ("power", "equicoord_quantile", "mvn", "power"),
    ("power", "mvn_rect", "mvn", "power"),
    ("sequential", "mvn_rect", "mvn", "sequential"),
    ("combination", "mvn_rect", "mvn", "combination"),
    ("closure", "correlation", "model", "closure"),
    ("sequential", "correlation", "model", "sequential"),
    ("combination", "correlation", "model", "combination"),
    ("power", "correlation", "model", "power"),
    ("sequential", "z_statistics", "model", "sequential"),
    ("cli", "z_statistics", "model", "cli"),
    ("cli", "closed_test", "closure", "cli"),
    ("simulate", "batch_closed_test", "closure", "simulate"),
    ("simulate", "batch_gs_test", "sequential", "simulate"),
    ("simulate", "batch_flexible_test", "combination", "simulate"),
    # Two private names.  The resource-building phase of run_scenario:
    ("simulate", "_build_resources", "simulate", "simulate"),
    # and the boundary root finder, which calls mvn_rect from brentq itself
    # instead of going through equicoord_quantile:
    ("sequential", "_two_phase_root", "sequential", "sequential"),
)
# (module, class, method, layer)
_METHODS = (
    ("closure", "CriticalValueTable", "entries", "closure"),
    ("closure", "CriticalValueTable", "value", "closure"),
    ("sequential", "BoundarySchedule", "entries", "sequential"),
    ("sequential", "BoundarySchedule", "value", "sequential"),
)
# Entry points the benchmark itself calls: (module, attribute, layer).
ENTRY_POINTS = {
    "critical_values": ("closure", "critical_values", "closure"),
    "gs_boundaries": ("sequential", "gs_boundaries", "sequential"),
    "generalised_boundaries": ("sequential", "generalised_boundaries", "sequential"),
    "sample_size": ("power", "sample_size", "power"),
    "run_scenario": ("simulate", "run_scenario", "simulate"),
    "flexible_closed_test": ("combination", "flexible_closed_test", "combination"),
    "cli_main": ("cli", "main", "cli"),
}

# Quantile solves: spans whose direct mvn_rect children are solver iterations.
QUANTILE_SPANS = ("equicoord_quantile", "_two_phase_root")

LAYERS = ("mvn", "closure", "sequential", "combination", "power", "simulate", "model", "cli")


@dataclass
class Span:
    name: str
    layer: str
    site: str
    start: float
    end: float = 0.0
    parent: int = -1
    request: int = -1
    child_s: float = 0.0
    # the rows handed to a batch kernel, or (points, dimension) of an mvn_rect
    size: tuple = ()

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


@dataclass
class Tracer:
    """In-memory span recorder; spans are kept until the run ends."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    request: int = -1

    def wrap(self, fn, name: str, layer: str, site: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, site, 0.0,
                        parent=tracer._stack[-1] if tracer._stack else -1,
                        request=tracer.request)
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if span.parent >= 0:
                    tracer.spans[span.parent].child_s += span.duration
            span.size = _size(name, args, kwargs, out)
            return out

        return traced


def _size(name: str, args, kwargs, out) -> tuple:
    if name == "mvn_rect":
        rect = args[2] if len(args) > 2 else kwargs["rect"]
        return (out.n_points, rect.dim)
    if name.startswith("batch_"):
        return (len(args[0]),)
    return ()


def install(pkg_modules: dict, tracer: Tracer) -> list:
    """Wrap every boundary in place; returns what :func:`uninstall` restores.

    A listed function or method that no longer exists raises ``LookupError``,
    so a refactor of the package has to update the tables above rather than
    leave a layer's metrics silently at 0.
    """
    saved = []
    for mod_name, attr, layer, site in _FUNCTIONS:
        mod = pkg_modules[mod_name]
        fn = _lookup(mod, attr, f"{mod_name}.{attr}")
        saved.append((mod, attr, fn))
        setattr(mod, attr, tracer.wrap(fn, attr, layer, site))
    for mod_name, cls_name, meth, layer in _METHODS:
        cls = _lookup(pkg_modules[mod_name], cls_name, f"{mod_name}.{cls_name}")
        fn = _lookup(cls, meth, f"{mod_name}.{cls_name}.{meth}")
        saved.append((cls, meth, fn))
        setattr(cls, meth, tracer.wrap(fn, f"{cls_name}.{meth}", layer, mod_name))
    return saved


def _lookup(owner, attr: str, path: str):
    fn = getattr(owner, attr, None)
    if fn is None:
        raise LookupError(f"span boundary {path} not found; update perfbench/spans.py")
    return fn


def uninstall(saved: list) -> None:
    for owner, attr, fn in reversed(saved):
        setattr(owner, attr, fn)


def entry_point(pkg_modules: dict, key: str, tracer: Tracer | None):
    """The public function the benchmark calls, wrapped when tracing."""
    mod_name, attr, layer = ENTRY_POINTS[key]
    fn = getattr(pkg_modules[mod_name], attr)
    if tracer is None:
        return fn
    return tracer.wrap(fn, attr, layer, "bench")


def _outermost(spans, pred) -> list:
    """Spans matching ``pred`` that have no matching ancestor."""
    out = []
    for span in spans:
        if not pred(span):
            continue
        parent = span.parent
        nested = False
        while parent >= 0:
            if pred(spans[parent]):
                nested = True
                break
            parent = spans[parent].parent
        if not nested:
            out.append(span)
    return out


def layer_metrics(spans: list, wall_s: float) -> tuple[dict, dict]:
    """Per-layer metric values of one traced pass, and each layer's share of
    ``wall_s``.  Units are listed in BENCHMARK.json."""
    self_s = {layer: 0.0 for layer in LAYERS}
    for span in spans:
        self_s[span.layer] += span.self_s

    def count(pred) -> int:
        return sum(1 for s in spans if pred(s))

    def inclusive(pred) -> float:
        return sum(s.duration for s in _outermost(spans, pred))

    def reps(pred) -> int:
        return sum(s.size[0] for s in _outermost(spans, pred))

    rects = [s for s in spans if s.name == "mvn_rect"]
    quantiles = [s for s in spans if s.name in QUANTILE_SPANS]
    in_quantile = sum(
        1 for s in rects if s.parent >= 0 and spans[s.parent].name in QUANTILE_SPANS
    )
    points = sum(s.size[0] for s in rects)

    def per_s(num, den):
        return num / den if den > 0 else 0.0

    closure_table = lambda s: s.name.startswith("CriticalValueTable.")
    seq_table = lambda s: s.name.startswith("BoundarySchedule.")
    m = {
        "mvn.calls": len(rects),
        "mvn.points": points,
        "mvn.point_dims": sum(s.size[0] * s.size[1] for s in rects),
        "mvn.self_s": self_s["mvn"],
        "mvn.points_per_s": per_s(points, self_s["mvn"]),
        "mvn.quantile_calls": len(quantiles),
        "mvn.rects_per_quantile": per_s(in_quantile, len(quantiles)),
        "closure.self_s": self_s["closure"],
        "closure.classes_solved": count(
            lambda s: s.name == "equicoord_quantile" and s.site == "closure"
        ),
        "closure.table_s": inclusive(closure_table),
        "closure.test_s": inclusive(lambda s: s.name == "closed_test"),
        "closure.batch_s": inclusive(lambda s: s.name == "batch_closed_test"),
        "sequential.self_s": self_s["sequential"],
        "sequential.boundaries_s": inclusive(seq_table),
        "sequential.mvn_calls": count(lambda s: s.name == "mvn_rect" and s.site == "sequential"),
        "sequential.batch_s": inclusive(lambda s: s.name == "batch_gs_test"),
        "combination.self_s": self_s["combination"],
        "combination.mvn_calls": count(
            lambda s: s.name == "mvn_rect" and s.site == "combination"
        ),
        "combination.test_s": inclusive(lambda s: s.name == "flexible_closed_test"),
        "combination.batch_s": inclusive(lambda s: s.name == "batch_flexible_test"),
        "power.self_s": self_s["power"],
        "power.design_s": inclusive(lambda s: s.name == "sample_size"),
        "power.mvn_calls": count(
            lambda s: s.site == "power" and s.name in ("mvn_rect", "equicoord_quantile")
        ),
        "simulate.self_s": self_s["simulate"],
        "simulate.resources_s": inclusive(lambda s: s.name == "_build_resources"),
        "model.self_s": self_s["model"],
        "cli.self_s": self_s["cli"],
    }
    m["closure.batch_reps_per_s"] = per_s(
        reps(lambda s: s.name == "batch_closed_test"), m["closure.batch_s"]
    )
    m["sequential.batch_reps_per_s"] = per_s(
        reps(lambda s: s.name == "batch_gs_test"), m["sequential.batch_s"]
    )
    split = {layer: per_s(self_s[layer], wall_s) for layer in LAYERS}
    split["other"] = max(0.0, 1.0 - sum(split.values()))
    return m, split
