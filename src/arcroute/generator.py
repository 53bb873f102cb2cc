"""Arc-model generators: structured families and seeded random models.

All generators emit valid, circle-covering models with distinct integer
endpoints, deterministically for a given seed.
"""

from __future__ import annotations

import random

import numpy as np

from .arc_model import ArcModel, gap_coverage, is_real, validate_model


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


def gen_random(n: int, seed: int) -> ArcModel:
    """Seeded random covering model: pair up all 2n positions into arcs.

    Pairings and orientations are drawn until the arcs cover the circle;
    after a bounded number of draws the last sample is repaired by
    re-pairing endpoints around uncovered gaps, which only ever grows
    coverage, so the result is always real.
    """
    if n < 3:
        raise ValueError(f"random models need at least 3 vertices, got {n}")
    rng = random.Random(seed)
    size = 2 * n
    last = None
    for _ in range(32):
        positions = list(range(size))
        rng.shuffle(positions)
        arcs = []
        for i in range(n):
            a, b = positions[2 * i], positions[2 * i + 1]
            arcs.append((a, b) if rng.getrandbits(1) else (b, a))
        model = validate_model(n, arcs)
        if is_real(model):
            return model
        last = arcs
    repaired = _grow_to_cover(last, n)
    model = validate_model(n, repaired)
    if not is_real(model):
        raise AssertionError("coverage repair failed to produce a real model")
    return model


def _grow_to_cover(arcs: list[tuple[int, int]], n: int) -> list[tuple[int, int]]:
    """Re-pair endpoints around uncovered gaps; coverage grows each step.

    An uncovered gap g has the arc ending at position g on its left and
    the arc starting at g+1 on its right; swapping those two endpoints
    yields two arcs that both cover g and keep all their old gaps.
    """
    size = 2 * n
    arcs = list(arcs)
    for _ in range(size + 1):
        model = validate_model(n, arcs)
        gap = _first_uncovered_gap(model)
        if gap is None:
            return arcs
        left = right = -1
        for i, (s, e) in enumerate(arcs):
            if e == gap:
                left = i
            if s == (gap + 1) % size:
                right = i
        if left == -1 or right == -1:
            raise AssertionError("uncovered gap without adjacent arc endpoints")
        if left == right:
            # one arc covers everything but this gap; flipping any other
            # arc covers the gap and loses nothing the big arc lacks
            other = 0 if left != 0 else 1
            s, e = arcs[other]
            arcs[other] = (e, s)
            continue
        sa, _ = arcs[left]
        _, eb = arcs[right]
        arcs[left] = (sa, (gap + 1) % size)
        arcs[right] = (gap, eb)
    raise AssertionError("coverage repair did not converge")


def _first_uncovered_gap(model: ArcModel) -> int | None:
    uncovered = np.flatnonzero(gap_coverage(model) == 0)
    return int(uncovered[0]) if len(uncovered) else None
