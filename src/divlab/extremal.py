"""Exact maximum-diversity search over intersecting k-uniform families.

Vertices are the k-sets of [n]; pairwise-intersecting families are the
cliques of the intersection graph.  Since adding a set to an intersecting
family never decreases diversity, the maximum is attained on maximal
cliques, which both the oracle enumeration (pivoted Bron-Kerbosch) and the
branch-and-bound search exploit.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitfam import Family, family_from_masks, ksubset_masks, stats
from .constructions import build_hub_block_family, build_window_majority


@dataclass
class MaximalEnumeration:
    families: list[Family]
    complete: bool


@dataclass
class SearchResult:
    n: int
    k: int
    best_diversity: int
    witness: Family
    node_count: int
    complete: bool
    budget_seconds: float


def _intersection_graph(n: int, k: int) -> tuple[list[int], list[int]]:
    """k-set masks of [n] in lex order; adj[v] has bit w iff sets v != w intersect.

    Rows are built one vertex at a time, so no V x V temporary is made."""
    masks = ksubset_masks(n, k)
    adj = []
    for v, mv in enumerate(masks):
        row = (masks & mv) != 0
        row[v] = False
        adj.append(int.from_bytes(np.packbits(row, bitorder="little").tobytes(), "little"))
    return masks.tolist(), adj


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def enumerate_maximal_intersecting(
    n: int, k: int, cap: Optional[int] = None
) -> MaximalEnumeration:
    """All maximal intersecting k-uniform families on [n], via pivoted
    Bron-Kerbosch on the intersection graph.

    ``cap`` limits the output count; hitting it returns a partial list with
    complete=False.
    """
    masks, adj = _intersection_graph(n, k)
    nv = len(masks)
    out: list[list[int]] = []
    complete = True

    def expand(r: list[int], p: int, x: int) -> bool:
        nonlocal complete
        if cap is not None and len(out) >= cap:
            complete = False
            return False
        if p == 0 and x == 0:
            out.append(list(r))
            return True
        # pivot on the candidate covering most of P
        pivot = max(_iter_bits(p | x), key=lambda u: (adj[u] & p).bit_count())
        ext = p & ~adj[pivot]
        for v in _iter_bits(ext):
            bit = 1 << v
            r.append(v)
            if not expand(r, p & adj[v], x & adj[v]):
                r.pop()
                return False
            r.pop()
            p &= ~bit
            x |= bit
        return True

    expand([], (1 << nv) - 1 if nv else 0, 0)
    families = [
        family_from_masks(n, k, [masks[v] for v in clique]) for clique in out
    ]
    return MaximalEnumeration(families=families, complete=complete)


def _seed_incumbents(n: int, k: int) -> list[Family]:
    seeds = []
    if n >= 2 * k and k >= 2:
        seeds.append(build_hub_block_family(n, k, 2))
    for r in range(1, k):
        if 2 * r + 1 <= n:
            seeds.append(build_window_majority(n, k, r))
    return seeds


def max_diversity_search(
    n: int,
    k: int,
    budget_seconds: float = 60.0,
) -> SearchResult:
    """Branch-and-bound maximum of diversity over intersecting k-uniform families.

    Expansion follows Bron-Kerbosch (so only maximal families are completed)
    with the prune rule |current| + |candidates| - max_degree(current) <= best.
    Known constructions are fed in as incumbents.  If the time budget runs
    out the result is best-found with complete=False.
    """
    if k < 2 or n < 2 * k:
        raise ValueError(f"need k >= 2 and n >= 2k, got n={n}, k={k}")
    masks, adj = _intersection_graph(n, k)
    nv = len(masks)
    deadline = time.monotonic() + budget_seconds

    best = -1
    witness_masks: list[int] = []
    for fam in _seed_incumbents(n, k):
        d = stats(fam).diversity
        if d > best:
            best = d
            witness_masks = [int(m) for m in fam.members]

    node_count = 0
    complete = True
    degrees = [0] * n
    chosen: list[int] = []

    def evaluate() -> None:
        nonlocal best, witness_masks
        gamma = len(chosen) - (max(degrees) if chosen else 0)
        if gamma > best:
            best = gamma
            witness_masks = [masks[v] for v in chosen]

    def expand(p: int, x: int, max_deg: int) -> bool:
        nonlocal node_count, complete
        node_count += 1
        if node_count % 1024 == 0 and time.monotonic() > deadline:
            complete = False
            return False
        evaluate()
        if len(chosen) + p.bit_count() - max_deg <= best:
            return True  # cannot beat the incumbent below this node
        if p == 0:
            return True
        pivot = max(_iter_bits(p | x), key=lambda u: (adj[u] & p).bit_count())
        ext = p & ~adj[pivot]
        for v in _iter_bits(ext):
            bit = 1 << v
            chosen.append(v)
            new_max = max_deg
            for e in _iter_bits(masks[v]):
                degrees[e] += 1
                if degrees[e] > new_max:
                    new_max = degrees[e]
            ok = expand(p & adj[v], x & adj[v], new_max)
            chosen.pop()
            for e in _iter_bits(masks[v]):
                degrees[e] -= 1
            if not ok:
                return False
            p &= ~bit
            x |= bit
        return True

    expand((1 << nv) - 1 if nv else 0, 0, 0)
    witness = family_from_masks(n, k, witness_masks)
    return SearchResult(
        n=n,
        k=k,
        best_diversity=best,
        witness=witness,
        node_count=node_count,
        complete=complete,
        budget_seconds=budget_seconds,
    )
