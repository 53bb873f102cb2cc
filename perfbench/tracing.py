"""In-memory span tracing around the public functions of arcroute's modules.

A traced function is replaced by a wrapper in *every* arcroute module that
holds a binding to it: ``from .arc_model import is_real`` gives ``builder``
its own name for the function, and wrapping only ``arc_model.is_real``
would miss every call made through that name.  Methods and properties are
wrapped on their class.  A traced name that no longer exists is reported
as absent instead of failing the run.

Spans are ``[name, start, end, parent index, model id]`` lists kept in one
list per tracer; the benchmark's own stage spans (``bench.*``) are the
roots.  Nothing is wrapped unless ``Tracer.installed()`` is active.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "arcroute"

# (module, attribute) of every traced callable; "Class.attr" wraps a method,
# classmethod or property on its class.  The span name is "<module>.<attr>"
# with the class name dropped, except for a class itself.
TRACE_POINTS = [
    ("generator", "gen_ring"),
    ("generator", "gen_wheel"),
    ("generator", "gen_complete"),
    ("generator", "gen_random"),
    ("arc_model", "validate_model"),
    ("arc_model", "parse_model"),
    ("arc_model", "is_real"),
    ("arc_model", "intersection_graph"),
    ("arc_model", "bfs_distances"),
    ("arc_model", "all_pairs_distances"),
    ("arc_model", "first_vertices"),
    ("arc_model", "dominating_vertices"),
    ("clique_cycle", "build_clique_cycle"),
    ("clique_cycle", "CliqueCycle.counter_matrix"),
    ("clique_cycle", "counter_vertices"),
    ("clique_cycle", "reaches_further_left"),
    ("clique_cycle", "reaches_further_right"),
    ("ring_order", "CyclicOrder.__init__"),
    ("ring_order", "join"),
    ("ring_order", "ring_sequence"),
    ("ring_order", "interval_contains"),
    ("ring_order", "interval_members"),
    ("builder", "build_scheme"),
    ("builder", "build_vertex_order"),
    ("builder", "compute_frame"),
    ("builder", "right_vertex"),
    ("builder", "apex_number"),
    ("builder", "separator"),
    ("builder", "RoutingScheme.labels"),
    ("builder", "RoutingScheme.to_json"),
    ("builder", "RoutingScheme.from_json"),
    ("verifier", "verify_scheme"),
    ("verifier", "route"),
    ("verifier", "route_lengths"),
    ("verifier", "interval_stats"),
    ("oracle", "has_shortest_path_1irs"),
]

# span name -> (counter name, function of the traced call's return value)
RESULT_COUNTERS = {
    "clique_cycle.build_clique_cycle": ("clique_cycle.cliques",
                                       lambda cycle: cycle.k),
}


def span_name(module: str, attr: str) -> str:
    owner, _, member = attr.rpartition(".")
    if member == "__init__":
        return f"{module}.{owner}"
    return f"{module}.{member}"


def package_modules() -> list:
    return [mod for name, mod in sorted(sys.modules.items())
            if mod is not None
            and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Collects spans and result counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = {}
        self.model: str | None = None
        self.absent: list[str] = []
        self._stack: list[int] = []

    def clear(self) -> None:
        self.spans = []
        self.counters = {}
        self._stack = []

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a pipeline stage)."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent, self.model])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn):
        counter = RESULT_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if counter is not None:
                key, measure = counter
                self.counters[key] = self.counters.get(key, 0) + measure(result)
            return result

        traced.bench_span = name
        return traced

    @contextmanager
    def installed(self):
        """Wrap every binding of every trace point; restore them on exit."""
        undo: list[tuple[object, str, object]] = []
        self.absent = []
        modules = package_modules()
        try:
            for module, attr in TRACE_POINTS:
                name = span_name(module, attr)
                home = sys.modules.get(f"{PACKAGE}.{module}")
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    cls = getattr(home, owner_name, None)
                    raw = getattr(cls, "__dict__", {}).get(member)
                    if raw is None:
                        self.absent.append(name)
                        continue
                    undo.append((cls, member, raw))
                    setattr(cls, member, self._wrap_member(name, raw))
                    continue
                original = getattr(home, attr, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, value))
                            setattr(mod, key, wrapper)
            yield self
        finally:
            for target, key, value in reversed(undo):
                setattr(target, key, value)

    def _wrap_member(self, name: str, raw):
        if isinstance(raw, property):
            return property(self.wrap(name, raw.fget), raw.fset, raw.fdel,
                            raw.__doc__)
        if isinstance(raw, classmethod):
            return classmethod(self.wrap(name, raw.__func__))
        return self.wrap(name, raw)


def installed_wrappers() -> list[str]:
    """Bindings in arcroute's modules that are currently benchmark wrappers."""
    found = []
    for mod in package_modules():
        for key, value in vars(mod).items():
            if hasattr(value, "bench_span"):
                found.append(f"{mod.__name__}.{key}")
            elif isinstance(value, type):
                for member, raw in vars(value).items():
                    inner = getattr(raw, "fget", None) or getattr(raw, "__func__", raw)
                    if hasattr(inner, "bench_span"):
                        found.append(f"{mod.__name__}.{key}.{member}")
    return found


def span_stats(spans: list[list], roots: set[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds.

    Only spans whose root span is named in ``roots`` count.  Self time is a
    span's duration minus the durations of its direct children.
    """
    root_of: list[int] = []
    child_time = [0.0] * len(spans)
    for i, (_, start, end, parent, _) in enumerate(spans):
        root_of.append(i if parent == -1 else root_of[parent])
        if parent != -1:
            child_time[parent] += end - start
    stats: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        if spans[root_of[i]][0] not in roots:
            continue
        entry = stats.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return stats
