"""Seeded generation of random intersecting families for sweeps and tests."""

from __future__ import annotations

import random

from .bitfam import Family, family_from_masks, ksubset_masks


def random_intersecting_family(n: int, k: int, rng: random.Random) -> Family:
    """A random intersecting k-uniform family on [n].

    Greedily grows a maximal intersecting family along a shuffled candidate
    order, then keeps each member independently with probability 0.7 (always
    keeping at least one), so the output is intersecting but usually not
    maximal.
    """
    candidates = ksubset_masks(n, k).tolist()
    rng.shuffle(candidates)
    kept: list[int] = []
    for mask in candidates:
        if all(mask & other for other in kept):
            kept.append(mask)
    members = [m for m in kept if rng.random() < 0.7]
    if not members:
        members = [kept[0]]
    return family_from_masks(n, k, members)
