"""Seeded generation of random intersecting families for sweeps and tests."""

from __future__ import annotations

import functools
import random

from .bitfam import Family, family_from_masks, intersection_rows, ksubset_masks

# The intersection graph of the k-sets of [n] is kept for the last
# ROW_CACHE_TABLES (n, k) with at most ROW_CACHE_SETS k-sets (C(n,k)^2 / 8
# bytes each, 128 KiB at the limit); above it, only the rows of the kept
# sets are built.
ROW_CACHE_SETS = 1 << 10
ROW_CACHE_TABLES = 4


@functools.lru_cache(maxsize=ROW_CACHE_TABLES)
def _shared_rows(n: int, k: int) -> tuple[int, ...]:
    return tuple(intersection_rows(ksubset_masks(n, k)))


def random_intersecting_family(n: int, k: int, rng: random.Random) -> Family:
    """A random intersecting k-uniform family on [n].

    Greedily grows a maximal intersecting family along a shuffled candidate
    order, then keeps each member independently with probability 0.7 (always
    keeping at least one), so the output is intersecting but usually not
    maximal.  The greedy keeps a bitset of the k-sets meeting every kept
    set, cut by the intersection-graph row of each set it keeps.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got n={n}, k={k}")
    masks = ksubset_masks(n, k)
    order = list(range(masks.size))
    rng.shuffle(order)
    rows = _shared_rows(n, k) if masks.size <= ROW_CACHE_SETS else None
    alive = (1 << masks.size) - 1
    kept: list[int] = []
    for v in order:
        if alive >> v & 1:
            kept.append(v)
            alive &= rows[v] if rows is not None else intersection_rows(masks, masks[v : v + 1])[0]
    values = masks.tolist()
    members = [values[v] for v in kept if rng.random() < 0.7]
    if not members:
        members = [values[kept[0]]]
    return family_from_masks(n, k, members)
