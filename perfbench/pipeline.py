"""One model through the public pipeline, timed stage by stage and gated.

Stages run in pipeline order on a scheme built fresh for the call, because
``RoutingScheme`` memoises ``labels`` and its route tables: a reused scheme
would make every stage after the first look free.

Every program function is looked up on its module at call time, so the
tracer's wrappers see calls made from here.

The correctness gate runs outside the timed stages.  An operation fails
when a build raises, ``verify_scheme`` does not pass, ``route_lengths`` or
a sampled ``route`` disagrees with the benchmark's reference distances, an
interval bound breaks (total <= 2m + n, <= 2 intervals per arc, <= 1
double-labelled arc per vertex), the JSON round trip changes the scheme or
the model, or the scheme JSON of a model changes between repetitions.
"""

from __future__ import annotations

import hashlib
import traceback
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from arcroute import arc_model, builder, oracle, verifier
from workloads import Case

STAGES = ("build", "verify", "route", "io")


@dataclass
class ModelRun:
    """Stage times and gate outcome of one pipeline operation.

    ``times`` are seconds; ``windows`` the (start, end) of each stage, by
    which a reference clock later gives ``ref``, the same times in units
    of the reference kernel (``reference.py``).
    """

    model_id: str
    times: dict[str, float] = field(default_factory=dict)
    windows: dict[str, tuple[float, float]] = field(default_factory=dict)
    ref: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)
    total_intervals: int = 0
    interval_bound: int = 0
    max_intervals_per_arc: int = 0
    route_steps: int = 0
    sha256: str = ""

    @property
    def latency(self) -> float:
        return self.times["build"] + self.times["verify"] + self.times["route"]


def _stage(tracer, name: str):
    return tracer.span(f"bench.{name}") if tracer is not None else nullcontext()


@contextmanager
def _timed(out: ModelRun, name: str, tracer, clock):
    """Time one stage; the reference clock samples only between stages."""
    if clock is not None:
        clock.tick()
    t0 = perf_counter()
    with _stage(tracer, name):
        yield
    t1 = perf_counter()
    out.times[name] = t1 - t0
    out.windows[name] = (t0, t1)


def run_model(case: Case, tracer=None, stages=STAGES,
              expected_sha: str | None = None, clock=None) -> ModelRun:
    """Build, verify, route and round-trip one model; never raises on a
    failure of the program, which is recorded in ``errors`` instead.

    ``clock`` (a ``reference.ReferenceClock``) may take reference samples
    between the stages, never inside one.
    """
    out = ModelRun(case.model_id)
    model, graph = case.model, case.graph
    n = model.n
    dsts = sorted({d for d in (1, n // 2, n - 1) if 0 < d < n})
    try:
        with _timed(out, "build", tracer, clock):
            scheme = builder.build_scheme(model)
        if "verify" in stages:
            with _timed(out, "verify", tracer, clock):
                report = verifier.verify_scheme(graph, scheme)
            out.total_intervals = report.total_intervals
            out.max_intervals_per_arc = report.max_intervals_per_arc
            _gate_report(case, report, out)
        if "route" in stages:
            with _timed(out, "route", tracer, clock):
                lengths = verifier.route_lengths(scheme, graph)
                paths = [verifier.route(scheme, graph, 0, d) for d in dsts]
            out.route_steps = int(lengths.max()) if n > 1 else 0
            _gate_routes(case, lengths, dsts, paths, out)
        if "io" in stages:
            with _timed(out, "io", tracer, clock):
                text = scheme.to_json()
                back = builder.RoutingScheme.from_json(text)
                model_back = arc_model.parse_model(model.to_json())
            out.sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
            _gate_io(case, scheme, back, model_back, expected_sha, out)
    except Exception as exc:  # a crash of the program is a failed operation
        out.errors.append(_describe(exc))
    return out


def _describe(exc: Exception) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {frame.name}:{frame.lineno}: {exc}"


def _gate_report(case: Case, report, out: ModelRun) -> None:
    if not report.passed:
        out.errors.append("verify_scheme did not pass")
    if case.dist is None:
        return
    out.interval_bound = 2 * case.m + case.model.n
    if report.total_intervals > out.interval_bound:
        out.errors.append(
            f"{report.total_intervals} intervals exceed 2m + n = {out.interval_bound}")
    if report.max_intervals_per_arc > 2:
        out.errors.append("an arc carries more than two intervals")
    if any(c > 1 for c in report.double_labeled_arcs_per_vertex.values()):
        out.errors.append("a vertex has more than one double-labelled arc")


def _gate_routes(case: Case, lengths, dsts, paths, out: ModelRun) -> None:
    if case.dist is None:
        return
    if lengths.shape != case.dist.shape or not (lengths == case.dist).all():
        out.errors.append("route_lengths differs from the reference distances")
    for d, path in zip(dsts, paths):
        if len(path) - 1 != case.dist[0, d] or path[-1] != d:
            out.errors.append(f"route 0 -> {d} is not a shortest path")


def _gate_io(case: Case, scheme, back, model_back, expected_sha, out) -> None:
    if case.dist is None:
        return
    same = (back.order == scheme.order
            and all(np.array_equal(getattr(back, a), getattr(scheme, a))
                    for a in ("src", "dst", "start", "length")))
    if not same:
        out.errors.append("scheme JSON round trip changed the scheme")
    if model_back != case.model:
        out.errors.append("model JSON round trip changed the model")
    if expected_sha is not None and out.sha256 != expected_sha:
        out.errors.append("scheme JSON changed between repetitions")


@dataclass
class OracleRun:
    model_id: str
    seconds: float = 0.0
    errors: list[str] = field(default_factory=list)


def run_oracle(case: Case, builder_single: bool | None, tracer=None) -> OracleRun:
    """Time ``has_shortest_path_1irs`` and check its verdict.

    A known verdict (wheels) must match.  A scheme the builder made with
    one interval per arc proves that a 1-interval scheme exists.  Every
    witness is re-certified against the reference distances.
    """
    out = OracleRun(case.model_id)
    try:
        t0 = perf_counter()
        with _stage(tracer, "oracle"):
            result = oracle.has_shortest_path_1irs(case.graph)
        out.seconds = perf_counter() - t0
    except Exception as exc:  # a crash of the program is a failed operation
        out.errors.append(_describe(exc))
        return out
    if case.expect_1irs is not None and result.exists_1irs != case.expect_1irs:
        out.errors.append(f"oracle says {result.exists_1irs}, "
                          f"known answer is {case.expect_1irs}")
    if builder_single and not result.exists_1irs:
        out.errors.append("oracle denies a 1-interval scheme the builder made")
    if result.exists_1irs and not _witness_ok(case.dist, result):
        out.errors.append("oracle witness is not a shortest-path 1-interval scheme")
    return out


def _witness_ok(dist: np.ndarray, result) -> bool:
    """Each vertex's intervals hit every other vertex exactly once (the
    vertex itself may be covered, non-strict), each by a shortest hop."""
    order = list(result.witness_order)
    n = len(order)
    if sorted(order) != list(range(n)):
        return False
    pos = {v: i for i, v in enumerate(order)}
    hits = np.zeros((n, n), dtype=np.int64)
    for (v, w), ivl in result.witness_labels.items():
        if dist[v, w] != 1:
            return False
        lo = pos[ivl.a]
        for step in range((pos[ivl.b] - lo) % n + 1):
            u = order[(lo + step) % n]
            hits[v, u] += 1
            if u != v and dist[w, u] != dist[v, u] - 1:
                return False
    off_diagonal = ~np.eye(n, dtype=bool)
    return bool((hits[off_diagonal] == 1).all() and (hits.diagonal() <= 1).all())
