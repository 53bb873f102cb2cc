"""The benchmark's workloads: which models each one runs, made from a seed.

Why each workload exists (see README.md in this directory for the
metric-to-layer map):

* ``dense-random`` -- five ``gen_random`` models, diameter 2 and m about
  0.42 n^2.  Stresses the n^2 paths (intersection graph, counter matrix,
  APSP, ``labels``, the per-vertex verify kernel, a large JSON) and never
  reaches the separator, apex or BFS-guard code.
* ``sparse-ring`` -- three perturbed-ring models (``sparse_ring``), m
  about 2.5 n and diameter about n / 5.  Every vertex goes through the
  separator / apex chain walks and the ``_plan_serves_shortest`` BFS
  guard, and ``route_lengths`` runs about n / 5 synchronous hop steps.
* ``small-campaign`` -- 150 small random models plus rings and wheels,
  and the brute-force oracle on tiny wheels and random models.  Many
  small calls, so per-call Python overhead and the facing-block case mix
  dominate; the only workload that exercises ``oracle``.

The dense and sparse workloads run several models of one size rather than
one larger model: how long one random model takes depends on the model
by about 10 %, and summing over several per repetition keeps that from
deciding the figure of a whole run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

import sparse_ring
from arcroute import ArcModel, Graph, arc_model, generator

DENSE_N = 200
DENSE_MODELS = 5
SPARSE_N = 300
SPARSE_MODELS = 3
CAMPAIGN_SIZES = (10, 30, 64)
CAMPAIGN_SEEDS = 50
CAMPAIGN_RINGS = (4, 8, 16, 32, 64)
CAMPAIGN_WHEELS = (3, 8, 16, 32, 63)
ORACLE_WHEELS = (5, 6, 7)
ORACLE_RANDOM_N = 8
ORACLE_RANDOM_SEEDS = 10
# the smallest wheel without a shortest-path 1-interval scheme
WHEEL_1IRS_LIMIT = 6


@dataclass
class Case:
    """One model of a workload with what the benchmark knows about it."""

    model_id: str
    model: ArcModel
    oracle: bool = False
    # known oracle verdict, or None when only cross-checks apply
    expect_1irs: bool | None = None
    graph: Graph | None = None
    dist: np.ndarray | None = field(default=None, repr=False)
    m: int = 0
    diameter: int = 0


def make_cases(workload: str, seed: int) -> list[Case]:
    """Generate and validate the models of ``workload`` for ``seed``."""
    if workload == "dense-random":
        cases = [Case(f"random-{DENSE_N}-{s}", generator.gen_random(DENSE_N, s))
                 for s in range(seed * DENSE_MODELS, (seed + 1) * DENSE_MODELS)]
    elif workload == "sparse-ring":
        cases = [Case(f"sparse-{SPARSE_N}-{s}",
                      sparse_ring.gen_sparse_ring(SPARSE_N, s))
                 for s in range(seed * SPARSE_MODELS, (seed + 1) * SPARSE_MODELS)]
    elif workload == "small-campaign":
        cases = [Case(f"random-{n}-{s}", generator.gen_random(n, s))
                 for n in CAMPAIGN_SIZES
                 for s in range(seed * CAMPAIGN_SEEDS, (seed + 1) * CAMPAIGN_SEEDS)]
        cases += [Case(f"ring-{k}", generator.gen_ring(k)) for k in CAMPAIGN_RINGS]
        cases += [Case(f"wheel-{k}", generator.gen_wheel(k)) for k in CAMPAIGN_WHEELS]
        cases += [Case(f"wheel-{k}", generator.gen_wheel(k), oracle=True,
                       expect_1irs=k < WHEEL_1IRS_LIMIT) for k in ORACLE_WHEELS]
        cases += [Case(f"random-{ORACLE_RANDOM_N}-{s}",
                       generator.gen_random(ORACLE_RANDOM_N, s), oracle=True)
                  for s in range(seed * ORACLE_RANDOM_SEEDS,
                                 (seed + 1) * ORACLE_RANDOM_SEEDS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for case in cases:
        if not arc_model.is_real(case.model):
            raise ValueError(f"{case.model_id}: generated model is not covering")
        case.graph = arc_model.intersection_graph(case.model)
    return cases


def scale_case(family: str, n: int, seed: int) -> Case:
    """One model of a named family at size n, for the one-off scaling mode."""
    if family == "dense":
        model = generator.gen_random(n, seed)
    elif family == "sparse":
        model = sparse_ring.gen_sparse_ring(n, seed)
    else:
        raise ValueError(f"unknown family {family!r}")
    return Case(f"{family}-{n}-{seed}", model,
                graph=arc_model.intersection_graph(model))


def warm_up() -> None:
    """Pay one-off import costs (scipy loads on the first APSP)."""
    ring = arc_model.intersection_graph(generator.gen_ring(4))
    arc_model.all_pairs_distances(ring)


def attach_reference(case: Case) -> None:
    """Distances from the benchmark's own reference, independent of arcroute.

    Arcs are expanded to their covered gaps; two arcs are adjacent when
    they share one.  Hop distances come from scipy's unweighted BFS.
    """
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import shortest_path

    model = case.model
    size = model.circle_size
    cover = np.zeros((model.n, size), dtype=np.float32)
    for i, (s, e) in enumerate(model.arcs):
        steps = (e - s) % size
        cover[i, (s + np.arange(steps)) % size] = 1.0
    adj = (cover @ cover.T) > 0
    np.fill_diagonal(adj, False)
    dist = shortest_path(csr_matrix(adj), method="D", unweighted=True,
                         directed=False)
    if not np.isfinite(dist).all():
        raise ValueError(f"{case.model_id}: intersection graph is disconnected")
    case.dist = dist.astype(np.int64)
    case.m = int(adj.sum()) // 2
    case.diameter = int(case.dist.max())
