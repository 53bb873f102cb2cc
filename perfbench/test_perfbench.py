"""Tests of the benchmark itself: generator, tracer and correctness gate.

Run with ``python3 -m pytest perfbench``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import arcroute  # noqa: E402
import arcroute.cli  # noqa: E402,F401  (its bindings must be wrapped too)
import pipeline  # noqa: E402
import reference  # noqa: E402
import sparse_ring  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from arcroute import arc_model, generator  # noqa: E402

BUILD_ROOTS = {"bench.build"}


def make_case(model, oracle=False, expect=None):
    case = workloads.Case("test", model, oracle=oracle, expect_1irs=expect,
                          graph=arc_model.intersection_graph(model))
    workloads.attach_reference(case)
    return case


def traced_build_calls(model) -> dict[str, int]:
    tracer = tracing.Tracer()
    with tracer.installed():
        run = pipeline.run_model(make_case(model), tracer)
    assert run.errors == []
    stats = tracing.span_stats(tracer.spans, BUILD_ROOTS)
    return {name: int(entry["calls"]) for name, entry in stats.items()}


@pytest.mark.parametrize("n,seed", [(8, 0), (50, 1), (300, 7)])
def test_sparse_ring_is_covering_and_deterministic(n, seed):
    model = sparse_ring.gen_sparse_ring(n, seed)
    assert arc_model.is_real(model)
    assert model == sparse_ring.gen_sparse_ring(n, seed)
    assert model != sparse_ring.gen_sparse_ring(n, seed + 1)


def test_sparse_ring_reaches_the_separator_on_every_vertex():
    model = sparse_ring.gen_sparse_ring(120, 3)
    graph = arc_model.intersection_graph(model)
    non_dominating = graph.n - len(arc_model.dominating_vertices(graph))
    assert non_dominating == graph.n
    calls = traced_build_calls(model)
    assert calls["builder.separator"] == non_dominating
    assert 2 * graph.n <= graph.m <= 3 * graph.n


def test_traced_counts_match_a_hand_count_on_a_ring():
    # C8: no dominating vertex and no counter pair, so every vertex takes
    # the separator case; the BFS guard runs on v, right and left vertex
    calls = traced_build_calls(generator.gen_ring(8))
    assert calls["arc_model.is_real"] == 2  # build_scheme + build_clique_cycle
    assert calls["arc_model.intersection_graph"] == 1
    assert calls["clique_cycle.build_clique_cycle"] == 1
    assert calls["clique_cycle.counter_matrix"] == 1
    assert calls["ring_order.CyclicOrder"] == 2  # clique order, vertex order
    assert calls["builder.compute_frame"] == 8
    assert calls["builder.apex_number"] == 8
    assert calls["builder.separator"] == 8
    assert calls["arc_model.bfs_distances"] == 3 * 8


def test_traced_counts_match_a_hand_count_on_a_wheel():
    # W6: the hub dominates, so it gets no frame and nobody uses the separator
    calls = traced_build_calls(generator.gen_wheel(6))
    assert calls["arc_model.is_real"] == 2
    assert calls["builder.compute_frame"] == 6
    assert "builder.separator" not in calls
    assert "arc_model.bfs_distances" not in calls


def test_every_binding_of_a_traced_function_is_wrapped():
    expected = {
        "is_real": ("arc_model", "builder", "clique_cycle", "generator"),
        "all_pairs_distances": ("arc_model", "verifier", "oracle"),
        "intersection_graph": ("arc_model", "builder", "clique_cycle", "cli"),
    }
    with tracing.Tracer().installed():
        for name, modules in expected.items():
            for module in modules:
                bound = getattr(sys.modules[f"arcroute.{module}"], name)
                assert hasattr(bound, "bench_span"), f"{module}.{name}"
            assert hasattr(getattr(arcroute, name), "bench_span")
        assert tracing.installed_wrappers()
    assert tracing.installed_wrappers() == []


def test_untraced_run_installs_no_wrapper():
    run = pipeline.run_model(make_case(generator.gen_ring(6)))
    assert run.errors == []
    assert tracing.installed_wrappers() == []


def test_missing_trace_point_is_reported_absent(monkeypatch):
    points = tracing.TRACE_POINTS + [("builder", "no_such_function"),
                                     ("builder", "RoutingScheme.no_such_member"),
                                     ("no_such_module", "anything")]
    monkeypatch.setattr(tracing, "TRACE_POINTS", points)
    tracer = tracing.Tracer()
    with tracer.installed():
        pipeline.run_model(make_case(generator.gen_ring(5)), tracer)
    assert tracer.absent == ["builder.no_such_function", "builder.no_such_member",
                             "no_such_module.anything"]
    assert tracing.installed_wrappers() == []


def test_self_time_subtracts_direct_children():
    spans = [["root", 0.0, 10.0, -1, None], ["a", 1.0, 5.0, 0, None],
             ["b", 2.0, 3.0, 1, None], ["a", 6.0, 7.0, 0, None],
             ["other", 0.0, 4.0, -1, None], ["a", 0.0, 4.0, 4, None]]
    stats = tracing.span_stats(spans, {"root"})
    assert stats["a"] == {"calls": 2, "s": 5.0, "self_s": 4.0}
    assert stats["root"]["self_s"] == 5.0


def test_reference_clock_divides_each_stage_by_its_bracketing_samples(monkeypatch):
    clock = reference.ReferenceClock()
    clock.samples = [(0.0, 1.0, 2.0), (3.0, 4.0, 4.0), (6.0, 7.0, 8.0)]
    monkeypatch.setattr(clock, "_sample", lambda: None)
    run = pipeline.ModelRun("m", times={"build": 1.5, "verify": 1.0},
                            windows={"build": (1.0, 2.5), "verify": (4.5, 5.5)})
    clock.close([run])
    assert run.ref == {"build": 1.5 / 3.0, "verify": 1.0 / 6.0}
    assert clock.seconds == 14.0 / 3


def test_reference_kernel_is_fixed_and_clock_samples_between_stages():
    assert reference.kernel() == reference.kernel()
    clock = reference.ReferenceClock()
    run = pipeline.run_model(make_case(generator.gen_ring(6)), clock=clock)
    assert run.errors == []
    clock.close([run])
    assert set(run.ref) == set(pipeline.STAGES)
    for start, end, _ in clock.samples:
        assert not any(t0 < end and start < t1 for t0, t1 in run.windows.values())


def test_gate_counts_wrong_routes_instead_of_raising():
    case = make_case(generator.gen_ring(7))
    case.dist = case.dist + 1
    run = pipeline.run_model(case)
    assert any("route_lengths differs" in e for e in run.errors)


def test_gate_flags_a_changed_scheme_json():
    case = make_case(generator.gen_ring(7))
    run = pipeline.run_model(case, expected_sha="0" * 64)
    assert run.errors == ["scheme JSON changed between repetitions"]


def test_gate_checks_the_known_oracle_verdict():
    good = pipeline.run_oracle(make_case(generator.gen_wheel(6), True, False), None)
    assert good.errors == []
    wrong = pipeline.run_oracle(make_case(generator.gen_wheel(6), True, True), None)
    assert wrong.errors
    witness = pipeline.run_oracle(make_case(generator.gen_wheel(5), True, True), True)
    assert witness.errors == []


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, str(tmp_path / HERE.name / "run.py"), "--workload",
         "dense-random", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
