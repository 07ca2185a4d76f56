"""Exact maximum-diversity search over intersecting k-uniform families.

Vertices are k-sets and two are adjacent when they intersect, so
intersecting families are cliques.  ``enumerate_maximal_intersecting`` is
the oracle: it lists every maximal clique on the k-sets of [n] (pivoted
Bron-Kerbosch).

``max_diversity_search`` searches only the part of the family that misses
its top element.  Relabel so that element 1 has the largest degree, and
write X(x) for the sets of X through x and X(~x) for those missing x.  Then
the diversity is gamma(F) = |F| - deg 1 = |B| for B = F(~1), an
intersecting family on [2..n].  So the maximum is the largest |B| over
cliques B of k-sets of [2..n] with |A(~x)| >= |B(x)| for every x >= 2,
where A is every k-set through 1 that meets all of B; the constraint says
deg 1 >= deg x.  Three facts make this exact and let it prune:

- A maximal A loses nothing: F(1) lies in A, and A u B is intersecting.
  Growing F(1) to A adds |A| - |F(1)| to deg 1 but at most that to deg x,
  since A(~x) contains F(1)(~x); so deg 1 stays the largest.
- A violation is monotone: adding a set to B shrinks A, hence every A(~x),
  and grows every B(x), so a broken constraint stays broken below.
- The root has one branch: a permutation of [2..n] moves any member of a
  nonempty B to {2..k+1} and maps A with it.

At n = 2k any two k-sets of [2..2k] meet, so the graph on B is complete and
only the degree constraints prune; such searches end on the time budget.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bitfam import MAX_GROUND, Family, family_from_masks, intersection_rows, ksubset_masks


@dataclass
class MaximalEnumeration:
    families: list[Family]
    complete: bool


@dataclass
class SearchResult:
    best_diversity: int
    witness: Family
    node_count: int
    complete: bool
    elapsed_s: float


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
    complete=False.  A negative cap is refused.
    """
    if not 1 <= n <= MAX_GROUND or not 0 <= k <= n:
        raise ValueError(f"need 1 <= n <= {MAX_GROUND} and 0 <= k <= n, got n={n}, k={k}")
    if cap is not None and cap < 0:
        raise ValueError(f"family cap {cap} is negative")
    masks = ksubset_masks(n, k)
    adj = intersection_rows(masks)
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
        # pivot on the first candidate covering most of P
        most, pivot, rest = -1, 0, p | x
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            covered = (adj[u] & p).bit_count()
            if covered > most:
                most, pivot = covered, u
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
    # the masks are distinct k-subsets of [n] by construction: one sort of
    # every clique's masks, by clique then mask, and each family a slice
    sizes = [len(clique) for clique in out]
    flat = masks[[v for clique in out for v in clique]]
    clique_of = np.repeat(np.arange(len(out)), sizes)
    flat = flat[np.lexsort((flat, clique_of))]
    ends = np.cumsum(sizes).tolist()
    families = [
        Family(n=n, k=k, members=flat[e - size : e]) for e, size in zip(ends, sizes)
    ]
    return MaximalEnumeration(families=families, complete=complete)


def max_diversity_search(n: int, k: int, budget_seconds: float) -> SearchResult:
    """Maximum diversity over intersecting k-uniform families on [n]: the
    largest clique B of k-sets of [2..n] with |A(~x)| >= |B(x)| for all x >= 2,
    A being every k-set through 1 that meets all of B (module docstring: a
    maximal A loses nothing).  B grows in lex order from the one root branch
    {2..k+1}; a candidate leaves P once adding it alone breaks a constraint
    (violations are monotone), and a node is cut when |B| + |P| <= best.  The
    witness is A u B, of diversity |B|.  Out of time, the result is best-found
    with complete=False, as at n = 2k, where every two B-sets meet.  A budget
    that is not > 0, NaN among them, is refused; an infinite one never ends.
    """
    if k < 2 or not 2 * k <= n <= MAX_GROUND:
        raise ValueError(f"need k >= 2 and 2k <= n <= {MAX_GROUND}, got n={n}, k={k}")
    if not budget_seconds > 0:
        raise ValueError(f"time budget {budget_seconds} is not > 0")
    start = time.monotonic()
    deadline = start + budget_seconds
    # B-sets are the k-sets of [2..n], A-sets those through 1; per B-set v the
    # B-sets and A-sets meeting it, and per x = 2..n the A-sets missing x
    b_masks = ksubset_masks(n - 1, k) << 1
    a_masks = (ksubset_masks(n - 1, k - 1) << 1) | 1
    points = np.left_shift(1, np.arange(1, n, dtype=np.int64))
    nb, all_a = len(b_masks), (1 << len(a_masks)) - 1
    adj = intersection_rows(b_masks)
    meet = intersection_rows(a_masks, b_masks)
    avoid = [all_a & ~row for row in intersection_rows(a_masks, points)]
    # element x = 2..n is index x - 2 in elems, count and avoid
    b_list = b_masks.tolist()
    elems = [[e - 1 for e in _iter_bits(b)] for b in b_list]
    count = [0] * (n - 1)
    chosen: list[int] = []
    best, best_b, best_a = 0, [], 0
    node_count = 0
    complete = True

    def fits(w: int, a: int) -> bool:
        # B + w leaves A the sets of A that meet w
        aw = a & meet[w]
        ew = elems[w]
        for x in range(n - 1):
            need = count[x] + (x in ew)
            if need and (aw & avoid[x]).bit_count() < need:
                return False
        return True

    def grow(v: int, p: int, a: int) -> bool:
        """Add B-set v to B, cut A to the sets meeting it and search the
        candidates p left after it; False once out of time."""
        nonlocal best, best_b, best_a, node_count, complete
        node_count += 1
        if node_count % 1024 == 0 and time.monotonic() > deadline:
            complete = False
            return False
        chosen.append(v)
        for x in elems[v]:
            count[x] += 1
        a &= meet[v]
        if len(chosen) > best:
            best, best_b, best_a = len(chosen), list(chosen), a
        cand = 0
        for w in _iter_bits(p & adj[v]):
            if fits(w, a):
                cand |= 1 << w
        ok = True
        while ok and cand and len(chosen) + cand.bit_count() > best:
            low = cand & -cand
            cand ^= low
            ok = grow(low.bit_length() - 1, cand, a)
        chosen.pop()
        for x in elems[v]:
            count[x] -= 1
        return ok

    grow(0, (1 << nb) - 2, all_a)
    a_list = a_masks.tolist()
    witness = family_from_masks(
        n, k, [b_list[v] for v in best_b] + [a_list[i] for i in _iter_bits(best_a)]
    )
    return SearchResult(
        best_diversity=best,
        witness=witness,
        node_count=node_count,
        complete=complete,
        elapsed_s=time.monotonic() - start,
    )
