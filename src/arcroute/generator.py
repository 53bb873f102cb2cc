"""Arc-model generators: structured families and seeded random models.

All generators emit valid, circle-covering models with distinct integer
endpoints, deterministically for a given seed.
"""

from __future__ import annotations

import random

from .arc_model import ArcModel, is_real, validate_model


def gen_ring(k: int) -> ArcModel:
    """Ring C_k (a triangle for k = 3): arc i spans positions 2i..2i+3."""
    if k < 3:
        raise ValueError(f"ring needs at least 3 vertices, got {k}")
    size = 2 * k
    return validate_model(k, [(2 * i, (2 * i + 3) % size) for i in range(k)])


def gen_wheel(k: int) -> ArcModel:
    """Wheel with k outer vertices (ids 0..k-1) and a hub (id k).

    The outer arcs form the ring on the low positions, with the last one
    wrapped so the cycle closes; the hub arc covers everything except one
    gap inside the last outer arc.
    """
    if k < 3:
        raise ValueError(f"wheel needs at least 3 outer vertices, got {k}")
    size = 2 * (k + 1)
    arcs = [(2 * i, 2 * i + 3) for i in range(k - 1)]
    arcs.append((2 * k - 2, 1))
    arcs.append((size - 1, size - 2))  # hub: all gaps but one
    return validate_model(k + 1, arcs)


def gen_complete(n: int) -> ArcModel:
    """Complete graph K_n: n long arcs, each covering over half the circle."""
    if n < 2:
        raise ValueError(f"complete graph needs at least 2 vertices, got {n}")
    size = 2 * n
    span = n + 1 if n % 2 == 0 else n + 2
    return validate_model(n, [(2 * i, (2 * i + span) % size) for i in range(n)])


def gen_perturbed_ring(n: int, seed: int) -> ArcModel:
    """Seeded perturbed ring: sparse, covering, of diameter about n / 5.

    Arc i starts at ring step i + u, u uniform in [0, 1), and runs 2 to 4
    steps clockwise; the 2n real endpoints are ranked to the integer
    positions.  Consecutive starts lie less than 2 steps apart, so the
    arcs cover the circle.  From n = 10 on no arc dominates (it meets at
    most the 8 arcs starting within 4 steps of it) and no two arcs overlap
    at both ends (together they span at most 8 steps), so the builder
    sends every vertex through its separator case; at n = 8 some seeds
    give a dominating arc.
    """
    if n < 8:
        raise ValueError(f"perturbed rings need at least 8 arcs, got {n}")
    rng = random.Random(seed)
    points = []  # (ring coordinate, arc, 0 for its start or 1 for its end)
    for i in range(n):
        start = i + rng.random()
        end = start + rng.uniform(2.0, 4.0)
        points.append((start % n, i, 0))
        points.append((end % n, i, 1))
    points.sort()
    arcs = [[0, 0] for _ in range(n)]
    for rank, (_, arc, side) in enumerate(points):
        arcs[arc][side] = rank
    return validate_model(n, arcs)


def gen_random(n: int, seed: int) -> ArcModel:
    """Seeded random covering model: pair up all 2n positions into arcs.

    Pairings and orientations are drawn until the arcs cover the circle.
    About 39 % of the draws cover at n = 3 and about 95 % at n = 8, so a
    model takes about 2.6 draws at n = 3 and fewer than 1.1 from n = 8 on.
    """
    if n < 3:
        raise ValueError(f"random models need at least 3 vertices, got {n}")
    rng = random.Random(seed)
    size = 2 * n
    while True:
        positions = list(range(size))
        rng.shuffle(positions)
        arcs = []
        for i in range(n):
            a, b = positions[2 * i], positions[2 * i + 1]
            arcs.append((a, b) if rng.getrandbits(1) else (b, a))
        model = validate_model(n, arcs)
        if is_real(model):
            return model
