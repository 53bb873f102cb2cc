"""arcroute benchmark: one closed-loop caller running the public pipeline.

Checked workloads (see README.md in this directory)::

    python3 perfbench/run.py --workload dense-random --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all --seed 1    # each in its own process

runs the workload's models through ``build_scheme``, ``verify_scheme``,
``route_lengths`` and the JSON round trip (plus the 1-IRS oracle on
``small-campaign``) again and again for ``--seconds``, one model at a time
in one thread.  With ``--trace 0`` it prints the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced repetitions and prints the
per-layer metrics derived from the spans, plus the tracing overhead.  The
last line of stdout is one JSON object; a full record (environment, sample
counts, scheme hashes, spans) is written under ``perfbench/out/``.

One-off scaling mode, outside the checked workloads::

    python3 perfbench/run.py --scale dense --n 2000 --seed 1 --stages build,verify,route
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

PIPELINE_ROOTS = {"bench.build", "bench.verify", "bench.route", "bench.io",
                  "bench.oracle"}
END_TO_END_UNITS = {
    "setup_s": "s",
    "pipeline_ref": "ref",
    "build_ref": "ref",
    "verify_ref": "ref",
    "route_all_ref": "ref",
    "io_ref": "ref",
    "peak_rss_mb": "MB",
    "interval_ratio": "ratio",
}
# end-to-end timings: metric stem -> the pipeline stages it sums
TIMINGS = {
    "pipeline": ("build", "verify", "route"),
    "build": ("build",),
    "verify": ("verify",),
    "route_all": ("route",),
    "io": ("io",),
}
# (metric, unit, span name, span statistic); the statistic sums over the
# workload's models in one repetition
SPAN_METRICS = [
    ("arc_model.bfs_distances.calls", "count", "arc_model.bfs_distances", "calls"),
    ("arc_model.bfs_distances.s", "s", "arc_model.bfs_distances", "s"),
    ("builder.separator.calls", "count", "builder.separator", "calls"),
    ("builder.separator.self_s", "s", "builder.separator", "self_s"),
    ("builder.apex_number.calls", "count", "builder.apex_number", "calls"),
    ("builder.apex_number.s", "s", "builder.apex_number", "s"),
    ("arc_model.all_pairs_distances.s", "s", "arc_model.all_pairs_distances", "s"),
    ("builder.labels.s", "s", "builder.labels", "s"),
    ("verifier.interval_stats.s", "s", "verifier.interval_stats", "s"),
    ("verifier.verify_scheme.self_s", "s", "verifier.verify_scheme", "self_s"),
    ("verifier.route_lengths.s", "s", "verifier.route_lengths", "s"),
    ("verifier.route.calls", "count", "verifier.route", "calls"),
    ("verifier.route.s", "s", "verifier.route", "s"),
    ("arc_model.intersection_graph.s", "s", "arc_model.intersection_graph", "s"),
    ("clique_cycle.counter_matrix.s", "s", "clique_cycle.counter_matrix", "s"),
    ("clique_cycle.build_clique_cycle.s", "s", "clique_cycle.build_clique_cycle", "s"),
    ("arc_model.is_real.calls", "count", "arc_model.is_real", "calls"),
    ("builder.compute_frame.calls", "count", "builder.compute_frame", "calls"),
    ("builder.compute_frame.s", "s", "builder.compute_frame", "s"),
    ("builder.build_vertex_order.s", "s", "builder.build_vertex_order", "s"),
    ("builder.build_scheme.self_s", "s", "builder.build_scheme", "self_s"),
    ("builder.to_json.s", "s", "builder.to_json", "s"),
    ("builder.from_json.s", "s", "builder.from_json", "s"),
    ("arc_model.parse_model.s", "s", "arc_model.parse_model", "s"),
    ("ring_order.CyclicOrder.calls", "count", "ring_order.CyclicOrder", "calls"),
    ("ring_order.CyclicOrder.s", "s", "ring_order.CyclicOrder", "s"),
    ("oracle.has_shortest_path_1irs.calls", "count",
     "oracle.has_shortest_path_1irs", "calls"),
    ("oracle.has_shortest_path_1irs.s", "s", "oracle.has_shortest_path_1irs", "s"),
]
OTHER_LAYER_UNITS = {
    "builder.bfs_per_vertex": "ratio",
    "verifier.route_lengths.steps": "count",
    "clique_cycle.cliques": "count",
    "generator.gen_s": "s",
    "graph.n": "count",
    "graph.m": "count",
    "graph.diameter": "count",
    "trace.pipeline_s": "s",
    "trace.overhead_s": "s",
    "reference.kernel_s": "s",
}
WORKLOADS = ("dense-random", "sparse-ring", "small-campaign")
SETUP_SAMPLES = 5
TRIM = 0.1
SETUP_PROBE_TIMEOUT_S = 60


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    import_program()
    if args.scale:
        return run_scale(args)
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup(args.workload, args.seed, started)
        print(json.dumps({"setup_s": time.perf_counter() - started}))
        return 0
    return run_workload(args, started)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them one process each")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--scale", choices=["dense", "sparse"],
                        help="time one model of this family at size --n")
    parser.add_argument("--n", type=int, default=1000)
    parser.add_argument("--stages", default="build,verify,route,io",
                        help="comma-separated stages for --scale")
    args = parser.parse_args(argv)
    if not args.scale and not args.workload:
        parser.error("give --workload or --scale")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def import_program() -> None:
    """Import arcroute from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import arcroute
    except ImportError as exc:
        sys.exit(f"cannot import arcroute from {SRC}: {exc}")
    if Path(arcroute.__file__).resolve().parent.parent != SRC:
        sys.exit(f"arcroute imported from {arcroute.__file__}, not from {SRC}")


def setup(workload: str, seed: int, started: float, tracer=None):
    """Import warm-up plus generating and validating the models.

    Returns the cases and the set-up time measured from ``started``.
    """
    import workloads

    workloads.warm_up()
    if tracer is None:
        cases = workloads.make_cases(workload, seed)
    else:
        with tracer.installed(), tracer.span("bench.generate"):
            cases = workloads.make_cases(workload, seed)
    return cases, time.perf_counter() - started


def run_all(args) -> int:
    """Every workload in its own process, so each peak_rss_mb is its own."""
    status = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT).returncode)
    return status


def probe_setup(workload: str, seed: int) -> float:
    """Set-up time of a fresh interpreter, which pays the imports again."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_PROBE_TIMEOUT_S, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


@dataclass
class Repetition:
    """Every case once: pipeline runs, oracle runs, and the spans if traced."""

    models: list
    oracles: list
    reference_s: float
    traced: bool = False
    spans: list | None = None
    counters: dict | None = None

    def operations(self) -> list:
        return [*self.models, *self.oracles]


def run_repetition(cases, tracer=None, shas=None) -> Repetition:
    """Every case once, in order: pipeline, then the oracle where asked.

    A reference clock samples the host's speed between the stages and
    converts each stage time into reference units (``reference.py``).
    """
    from pipeline import run_model, run_oracle
    from reference import ReferenceClock

    shas = {} if shas is None else shas
    models, oracles = [], []
    clock = ReferenceClock()
    for case in cases:
        if tracer is not None:
            tracer.model = case.model_id
        run = run_model(case, tracer, expected_sha=shas.get(case.model_id),
                        clock=clock)
        if run.sha256:
            shas.setdefault(case.model_id, run.sha256)
        models.append(run)
        if case.oracle:
            single = run.max_intervals_per_arc == 1 if not run.errors else None
            oracles.append(run_oracle(case, single, tracer))
            clock.tick()
    clock.close(models)
    if tracer is None:
        return Repetition(models, oracles, clock.seconds)
    tracer.model = None
    return Repetition(models, oracles, clock.seconds, True, tracer.spans,
                      tracer.counters)


def stage_sum(models, stage: str, unit: str = "s") -> float:
    """One stage summed over the models, in seconds or reference units."""
    return sum((run.times if unit == "s" else run.ref).get(stage, 0.0)
               for run in models)


def run_workload(args, started: float) -> int:
    import tracing
    import workloads
    from pipeline import STAGES

    tracer = tracing.Tracer() if args.trace else None
    cases, setup_s = setup(args.workload, args.seed, started, tracer)
    gen_s = 0.0
    if tracer is not None:
        gen_s = tracing.span_stats(tracer.spans, {"bench.generate"})[
            "bench.generate"]["s"]
    for case in cases:
        workloads.attach_reference(case)

    shas: dict[str, str] = {}
    reps: list[Repetition] = []
    t_start = time.perf_counter()
    # a repetition starts only if one as long as the last still fits, so a
    # run measures about --seconds; a traced run needs one of each kind
    minimum = 2 if tracer is not None else 1
    last = 0.0
    while len(reps) < minimum or (
            time.perf_counter() - t_start + last <= args.seconds):
        rep_start = time.perf_counter()
        traced = tracer is not None and len(reps) % 2 == 1
        if traced:
            tracer.clear()
            with tracer.installed():
                reps.append(run_repetition(cases, tracer, shas))
        else:
            reps.append(run_repetition(cases, None, shas))
        # free the last repetition's schemes before the next one is timed
        gc.collect()
        last = time.perf_counter() - rep_start

    operations = [op for rep in reps for op in rep.operations()]
    attempted = len(operations)
    failed = sum(1 for op in operations if op.errors)
    failures = [(op.model_id, err) for op in operations for err in op.errors]

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(),
        "repetitions": len(reps), "attempted": attempted, "failed": failed,
        "fail_rate": failed / attempted, "failures": failures[:50],
        "scheme_sha256": dict(sorted(shas.items())),
        "scheme_digest": digest(shas),
        "models": [{"id": c.model_id, "n": c.model.n, "m": c.m,
                    "diameter": c.diameter} for c in cases],
    }
    if tracer is None:
        setup_samples = [setup_s] + [probe_setup(args.workload, args.seed)
                                     for _ in range(SETUP_SAMPLES - 1)]
        metrics, notes = end_to_end(reps, cases, setup_samples)
    else:
        metrics, notes = per_layer(reps, cases, gen_s, tracer.absent)
        last_spans = next(rep.spans for rep in reversed(reps) if rep.traced)
        record["absent"] = tracer.absent
        record["spans_file"] = write_json(
            f"{args.workload}-seed{args.seed}-spans.json",
            {"fields": ["name", "start", "end", "parent", "model"],
             "spans": last_spans})
    record["metrics"] = {k: {"value": v, "unit": u, **notes.get(k, {})}
                         for k, (v, u) in metrics.items()}
    record["repetition_stage_s"] = [
        {"traced": rep.traced, "reference_s": rep.reference_s,
         **{stage: stage_sum(rep.models, stage) for stage in STAGES},
         **{f"{stage}_ref": stage_sum(rep.models, stage, "ref")
            for stage in STAGES}}
        for rep in reps]
    write_json(f"{args.workload}-seed{args.seed}-trace{args.trace}.json", record)

    print(f"workload {args.workload}  seed {args.seed}  "
          f"repetitions {len(reps)}  models {len(cases)}")
    print("environment " + json.dumps(record["environment"]))
    print(f"scheme_digest {record['scheme_digest']}")
    for name, (value, unit) in metrics.items():
        extra = "  ".join(f"{k}={v}" for k, v in notes.get(name, {}).items())
        print(f"  {name:40s} {value:>14.6g} {unit:6s} {extra}")
    print(f"  {'fail_rate':40s} {failed / attempted:>14.6g} ratio  "
          f"failed={failed} attempted={attempted}")
    for model_id, err in failures[:10]:
        print(f"FAILED {model_id}: {err}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()
                    if k in (END_TO_END_UNITS if tracer is None else layer_units())},
    }))
    return 0


def central(samples) -> float:
    """Mean over repetitions after dropping the fastest and slowest 10 %.

    On a shared host, repetition times switch between a fast and a slow
    state every few seconds.  The median of a run then jumps between the
    two states, while a trimmed mean follows the share of each and stays
    robust to a single stalled repetition (see README.md).
    """
    values = sorted(samples)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(reps, cases, setup_samples):
    """Per-repetition sums over the models, summarised over repetitions."""
    import resource

    rows = [rep.models for rep in reps]
    latencies = sorted(run.latency * 1e3 for models in rows for run in models
                       if not run.errors)
    first = rows[0]
    intervals = sum(run.total_intervals for run in first)
    bound = sum(run.interval_bound for run in first)
    reps_note = {"samples": len(rows)}
    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    # the checked timings in reference units, then the same in seconds
    for unit in ("ref", "s"):
        for name, stages in TIMINGS.items():
            per_rep = [sum(stage_sum(models, st, unit) for st in stages)
                       for models in rows]
            metrics[f"{name}_{unit}"] = (central(per_rep), unit)
    metrics.update({
        "reference_ms": (central(rep.reference_s * 1e3 for rep in reps), "ms"),
        "model_p50_ms": (percentile(latencies, 50), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
        "interval_ratio": (intervals / bound if bound else 0.0, "ratio"),
    })
    notes = {f"{name}_{unit}": dict(reps_note)
             for name in TIMINGS for unit in ("ref", "s")}
    notes["reference_ms"] = dict(reps_note)
    notes["setup_s"] = {"samples": len(setup_samples)}
    notes["model_p50_ms"] = {"samples": len(latencies)}
    notes["interval_ratio"] = {"intervals": intervals, "bound_2m_plus_n": bound}
    # reported, but only meaningful on some workloads (see README.md)
    if len(latencies) >= 200:
        metrics["model_p95_ms"] = (percentile(latencies, 95), "ms")
        notes["model_p95_ms"] = {"samples": len(latencies)}
    if any(case.oracle for case in cases):
        oracle = [sum(o.seconds for o in rep.oracles) for rep in reps]
        metrics["oracle_s"] = (central(oracle), "s")
        notes["oracle_s"] = dict(reps_note)
    return metrics, notes


def per_layer(reps, cases, gen_s, absent):
    """Per-layer sums over the models, summarised over traced repetitions."""
    import tracing

    traced = [rep for rep in reps if rep.traced]
    plain = [rep for rep in reps if not rep.traced]
    n_total = sum(case.model.n for case in cases)
    values: dict[str, list[float]] = {}
    for rep in traced:
        stats = tracing.span_stats(rep.spans, PIPELINE_ROOTS)
        build = tracing.span_stats(rep.spans, {"bench.build"})
        for metric, _, span, stat in SPAN_METRICS:
            values.setdefault(metric, []).append(stats.get(span, {}).get(stat, 0))
        bfs = build.get("arc_model.bfs_distances", {}).get("calls", 0)
        values.setdefault("builder.bfs_per_vertex", []).append(bfs / n_total)
        values.setdefault("verifier.route_lengths.steps", []).append(
            sum(run.route_steps for run in rep.models))
        values.setdefault("clique_cycle.cliques", []).append(
            rep.counters.get("clique_cycle.cliques", 0))
        values.setdefault("trace.pipeline_s", []).append(pipeline_sum(rep.models))
        values.setdefault("reference.kernel_s", []).append(rep.reference_s)
    metrics = {}
    units = layer_units()
    for metric, samples in values.items():
        metrics[metric] = (central(samples), units[metric])
    untraced = central(pipeline_sum(rep.models) for rep in plain)
    # compared in reference units, so that a change of host speed between
    # the traced and the untraced repetitions does not count as overhead
    extra_ref = (central(pipeline_sum(rep.models, "ref") for rep in traced)
                 - central(pipeline_sum(rep.models, "ref") for rep in plain))
    reference_s = central(rep.reference_s for rep in reps)
    metrics["trace.overhead_s"] = (extra_ref * reference_s, "s")
    metrics["generator.gen_s"] = (gen_s, "s")
    metrics["graph.n"] = (n_total, "count")
    metrics["graph.m"] = (sum(case.m for case in cases), "count")
    metrics["graph.diameter"] = (max(case.diameter for case in cases), "count")
    absent_spans = set(absent)
    notes = {metric: {"absent": True} for metric, _, span, _ in SPAN_METRICS
             if span in absent_spans}
    notes["trace.overhead_s"] = {"untraced_pipeline_s": untraced,
                                 "untraced_samples": len(plain),
                                 "traced_samples": len(traced)}
    ordered = {m: metrics[m] for m in layer_units()}
    return ordered, notes


def pipeline_sum(models, unit: str = "s") -> float:
    return sum(stage_sum(models, s, unit) for s in ("build", "verify", "route"))


def layer_units() -> dict[str, str]:
    units = {metric: unit for metric, unit, _, _ in SPAN_METRICS}
    units.update(OTHER_LAYER_UNITS)
    return units


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


def digest(shas: dict[str, str]) -> str:
    import hashlib

    lines = "".join(f"{k} {v}\n" for k, v in sorted(shas.items()))
    return hashlib.sha256(lines.encode("utf-8")).hexdigest()


def environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def write_json(name: str, payload: dict) -> str:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    return str(path.relative_to(ROOT))


def run_scale(args) -> int:
    """One model of a family at size n, each requested stage timed once."""
    import tracing
    import workloads
    from pipeline import STAGES, run_model

    stages = tuple(s for s in args.stages.split(",") if s)
    unknown = set(stages) - set(STAGES)
    if unknown or "build" not in stages:
        sys.exit(f"--stages needs build and may add verify, route, io; got {args.stages}")
    workloads.warm_up()
    t0 = time.perf_counter()
    case = workloads.scale_case(args.scale, args.n, args.seed)
    gen_s = time.perf_counter() - t0
    tracer = tracing.Tracer() if args.trace else None
    if tracer is None:
        run = run_model(case, None, stages)
    else:
        with tracer.installed():
            run = run_model(case, tracer, stages)
    print(f"scale {args.scale} n={case.model.n} m={case.graph.m} seed={args.seed} "
          f"generate+graph {gen_s:.3f} s")
    print("environment " + json.dumps(environment()))
    for stage in stages:
        if stage in run.times:
            print(f"  {stage:8s} {run.times[stage]:10.3f} s")
    if tracer is not None:
        stats = tracing.span_stats(tracer.spans, PIPELINE_ROOTS)
        for name, entry in sorted(stats.items(), key=lambda kv: -kv[1]["s"]):
            print(f"  {name:40s} calls={entry['calls']:<7d} s={entry['s']:.3f} "
                  f"self_s={entry['self_s']:.3f}")
    for err in run.errors:
        print(f"FAILED {run.model_id}: {err}", file=sys.stderr)
    return 1 if run.errors else 0


if __name__ == "__main__":
    sys.exit(main())
