"""Exact binomial arithmetic and exhaustive checks of the size/diversity bounds.

Everything here is exact integer arithmetic; binomials outside the usual
range evaluate to 0 so the bound formulas can be instantiated verbatim.
The lemma sweep runs exactly in int64: m <= 63 (lex_partner_maxima's cap)
and m > (weight+1)*max(a, b) bound the weight by 62, so every term and slack
is at most C(63, 31) < 2^60 in magnitude (tests/test_bounds.py checks it).
The decomposition around the center {1,2,3} lives here with the diversity
chain it feeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .bitfam import Family, are_cross_intersecting, family_from_masks, is_t_intersecting, stats
from .report import Report
from .shiftlex import lex_partner_maxima


def binom(n: int, k: int) -> int:
    """Exact C(n, k); zero when k < 0 or k > n."""
    if n < 0:
        raise ValueError(f"binom needs n >= 0, got n={n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def diversity_bound(n: int, k: int) -> int:
    """C(n-3, k-2), the diversity of the two-out-of-three family, for
    intersecting k-uniform families on [n].

    Frankl conjectured it is the maximum diversity for n > 3k, and the paper
    proves that for n >= ck.  It fails just above 3k: the lift of the T6
    junta to (19, 6) is intersecting with diversity 1,833 > C(16, 4) = 1,820
    (tests/test_documented_numbers.py).
    """
    if n < 3 or k < 2:
        raise ValueError(f"need n >= 3 and k >= 2, got n={n}, k={k}")
    return binom(n - 3, k - 2)


def intersecting_size_bound(n: int, k: int, u: int) -> int:
    """Size bound C(n-1,k-1) + C(n-u-1,n-k-1) - C(n-u-1,k-1) for intersecting
    families whose diversity reaches C(n-u-1, n-k-1); integer u only."""
    if not 3 <= u <= k:
        raise ValueError(f"need integer 3 <= u <= k, got u={u}, k={k}")
    if n <= 2 * k:
        raise ValueError(f"need n > 2k, got n={n}, k={k}")
    return binom(n - 1, k - 1) + binom(n - u - 1, n - k - 1) - binom(n - u - 1, k - 1)


@dataclass
class CrossBoundReport:
    """Result of one cross-intersecting weighted-size sweep.

    For every partner size s = 0..swept_max, a_max[s] is the largest lex
    prefix of a-sets cross-intersecting the lex s-segment of b-sets, and
    slack[s] = C(m, a) - (a_max[s] + weight * s); the bound holds where the
    slack is nonnegative.  violations lists the sizes whose slack is negative.
    """

    b_cap: int
    a_max: np.ndarray
    slack: np.ndarray

    @property
    def swept_max(self) -> int:
        return self.slack.size - 1

    @property
    def worst_slack(self) -> int:
        return int(self.slack.min())

    @property
    def violations(self) -> list[int]:
        return np.flatnonzero(self.slack < 0).tolist()

    @property
    def ok(self) -> bool:
        return self.worst_slack >= 0


def verify_cross_weighted_bound(m: int, a: int, b: int, weight: int) -> CrossBoundReport:
    """Sweep |B| from 0 to C(m-(b-a+1), a-1) and check |A|max + weight*|B| <= C(m,a).

    |A|max is the longest lex prefix of a-sets cross-intersecting the lex
    segment of b-sets.  The first a-set disjoint from a b-set B is the a
    least elements outside B, so |A|max for segment size s is the least lex
    rank of those a-sets over the first s b-sets (shiftlex.lex_partner_maxima).
    Weights below 1 are refused: |A|max <= C(m, a) makes the bound trivially
    true there, so such a sweep would pass without testing the lemma.
    """
    if weight < 1:
        raise ValueError(f"weight must be >= 1, got {weight}")
    if m <= (weight + 1) * max(a, b):
        raise ValueError(
            f"hypothesis violated: need m > (weight+1)*max(a,b) = {(weight + 1) * max(a, b)}, got m={m}"
        )
    b_cap = binom(m - (b - a + 1), a - 1)
    a_max = lex_partner_maxima(min(b_cap, binom(m, b)), a, b, m)
    slack = binom(m, a) - a_max - weight * np.arange(a_max.size, dtype=np.int64)
    return CrossBoundReport(b_cap=b_cap, a_max=a_max, slack=slack)


def admissible_cross_bound_tuples(
    m_max: int, a_max: int, b_max: int, weights: Iterable[int]
) -> list[tuple[int, int, int, int]]:
    """All (m, a, b, weight) satisfying the sweep hypothesis m > (weight+1)*max(a,b)."""
    tuples = []
    for weight in weights:
        for a in range(1, a_max + 1):
            for b in range(1, b_max + 1):
                for m in range((weight + 1) * max(a, b) + 1, m_max + 1):
                    tuples.append((m, a, b, weight))
    return sorted(tuples)


def cross_bound_sweep(
    m_max: int, a_max: int, b_max: int, weights: Iterable[int]
) -> list[dict]:
    """One row per admissible (m, a, b, weight): the cap, the swept range,
    the worst slack and the violation count of verify_cross_weighted_bound."""
    rows = []
    for m, a, b, w in admissible_cross_bound_tuples(m_max, a_max, b_max, weights):
        rep = verify_cross_weighted_bound(m, a, b, w)
        rows.append(
            {
                "m": m,
                "a": a,
                "b": b,
                "weight": w,
                "b_cap": rep.b_cap,
                "swept_max": rep.swept_max,
                "worst_slack": rep.worst_slack,
                "violations": len(rep.violations),
            }
        )
    return rows


@dataclass(eq=False)
class TriangleDecomposition:
    """Split of a k-uniform intersecting family around the center {1,2,3}.

    ``fi[i-1]`` holds the members whose center trace is exactly {i}.  The
    largest of the three (ties to the smallest index) drives the bound:
    ``g`` collects the tails of members tracing the opposite pair, ``h1``
    the tails of the largest fi, ``h2`` the members avoiding the center.
    Tails are relabeled from [4, n] down to [1, n-3], in a ground set of
    max(n-3, k) points so every uniformity fits (h2 is empty if n < k+3).
    """

    fi: tuple[Family, Family, Family]
    g: Family
    h1: Family
    h2: Family
    largest_fi_index: int


def triangle_decompose(fam: Family) -> TriangleDecomposition:
    """Decompose an intersecting k-uniform family around the center {1,2,3}."""
    if fam.k is None or fam.k < 2:
        raise ValueError("decomposition needs a k-uniform family with k >= 2")
    if fam.n < 4:
        raise ValueError("decomposition needs ground set size >= 4")
    if not is_t_intersecting(fam, 1):
        raise ValueError("decomposition is defined for intersecting families only")
    traces = fam.members & 0b111
    fi_masks = [fam.members[traces == (1 << i)] for i in range(3)]
    sizes = [arr.size for arr in fi_masks]
    largest = max(range(3), key=lambda i: (sizes[i], -i))  # ties to smallest index
    pair_mask = 0b111 ^ (1 << largest)
    n_tail = max(fam.n - 3, fam.k)
    g = family_from_masks(n_tail, fam.k - 2, fam.members[traces == pair_mask] >> 3, presorted=True)
    h1 = family_from_masks(n_tail, fam.k - 1, fi_masks[largest] >> 3, presorted=True)
    h2 = family_from_masks(n_tail, fam.k, fam.members[traces == 0] >> 3, presorted=True)
    fi = tuple(family_from_masks(fam.n, fam.k, arr, presorted=True) for arr in fi_masks)
    return TriangleDecomposition(fi=fi, g=g, h1=h1, h2=h2, largest_fi_index=largest + 1)


def verify_triangle_chain(fam: Family) -> Report:
    """Decompose around the center {1,2,3} and evaluate the diversity chain.

    Asserted: gamma <= |g| + 2|h1| + |h2| and the two cross-intersecting
    pairs, which hold for every intersecting uniform family.  The two
    refinement inequalities |g| + 4|h1| <= C(n-3,k-2) and
    |g| + 2|h2| <= C(n-3,k-2) are theorems only when the ground set is much
    larger than k, so their truth values are recorded without assertion.
    """
    report = Report(
        command="triangle-chain",
        parameters={"n": fam.n, "k": fam.k, "size": len(fam)},
    )
    dec = triangle_decompose(fam)
    bound = diversity_bound(fam.n, fam.k)
    g, h1, h2 = len(dec.g), len(dec.h1), len(dec.h2)
    gamma, chain_bound = stats(fam).diversity, g + 2 * h1 + h2
    report.add_table(
        "rows",
        [
            {
                "gamma": gamma,
                "g": g,
                "h1": h1,
                "h2": h2,
                "largest_fi_index": dec.largest_fi_index,
                "chain_bound": chain_bound,
                "diversity_bound": bound,
                "refinement_h1_lhs": g + 4 * h1,
                "refinement_h1_holds": g + 4 * h1 <= bound,
                "refinement_h2_lhs": g + 2 * h2,
                "refinement_h2_holds": g + 2 * h2 <= bound,
                "gamma_within_bound": gamma <= bound,
            }
        ],
    )
    report.check("chain_gamma_le_g_2h1_h2", True, gamma <= chain_bound)
    report.check("g_h1_cross_intersecting", True, are_cross_intersecting(dec.g, dec.h1))
    report.check("g_h2_cross_intersecting", True, are_cross_intersecting(dec.g, dec.h2))
    report.note(
        "refinement inequalities recorded only: they are theorems in the large ground set regime"
    )
    return report.finish()
