"""Seeded perturbed-ring arc models: sparse and of large diameter.

Arc ``i`` starts at ring step ``i + u`` with ``u`` uniform in [0, 1) and
runs clockwise for a length drawn uniformly from [2, 4] ring steps.  Two
consecutive starts are less than 2 steps apart, so every arc reaches past
the start of the next one and the arcs cover the whole circle.  The 2n real
endpoints are then ranked to the integer positions ``0 .. 2n-1``.

Each arc meets the arcs starting up to about three steps ahead, so
m is about 2.5 n and the diameter about n / 5.  No arc dominates and no
two arcs overlap at both ends, which sends every vertex through the
separator / apex construction of the builder.
"""

from __future__ import annotations

import random

from arcroute import ArcModel, arc_model

MIN_STEPS = 2.0
MAX_STEPS = 4.0


def gen_sparse_ring(n: int, seed: int) -> ArcModel:
    """Perturbed ring of ``n`` arcs; the same seed gives the same model."""
    if n < 8:
        raise ValueError(f"sparse rings need at least 8 arcs, got {n}")
    rng = random.Random(seed)
    points: list[tuple[float, int, int]] = []  # (ring coordinate, arc, 0=start/1=end)
    for i in range(n):
        start = i + rng.random()
        end = start + rng.uniform(MIN_STEPS, MAX_STEPS)
        points.append((start % n, i, 0))
        points.append((end % n, i, 1))
    points.sort()
    arcs = [[0, 0] for _ in range(n)]
    for rank, (_, arc, side) in enumerate(points):
        arcs[arc][side] = rank
    return arc_model.validate_model(n, [(s, e) for s, e in arcs])
