"""Exact biased-measure analysis over a junta center.

All quantities are computed from the defining family on the center cube
(at most 2^25 points).  Every value is one exact rational: a float bias is
taken at its exact binary value, so ``float()`` of a result is correctly
rounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

import numpy as np

from .constructions import (
    JuntaSpec,
    build_majority_defining,
    build_run_dominance_defining,
)
from .report import Report


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences and their sum at one bias."""

    per_coordinate: tuple[Fraction, ...]
    total: Fraction


def _check_bias(p) -> Fraction:
    if not 0 < p < 1:
        raise ValueError(f"bias {p} outside (0, 1)")
    return Fraction(p)


@lru_cache(maxsize=4)
def _popcounts(j: int) -> np.ndarray:
    w = np.bitwise_count(np.arange(1 << j, dtype=np.uint32)).astype(np.uint8)
    w.setflags(write=False)
    return w


def _measure_from_weight_counts(counts: Sequence[int], j: int, p) -> Fraction:
    """Sum of counts[w] * p^w * (1-p)^(j-w), exactly: with p = a/b, one
    integer numerator over b^j."""
    p = _check_bias(p)
    a, b = p.numerator, p.denominator
    num = sum(int(c) * a**w * (b - a) ** (j - w) for w, c in enumerate(counts) if c)
    return Fraction(num, b**j)


def _weight_counts_of_masks(masks: np.ndarray, j: int) -> np.ndarray:
    return np.bincount(
        np.bitwise_count(masks.astype(np.uint64)).astype(np.int64), minlength=j + 1
    )


# bit i of _LOW[b] is set iff bit b of i is clear, for in-word indices i < 64
_LOW = tuple(np.uint64(sum(1 << i for i in range(64) if not i >> b & 1)) for b in range(6))


def _packed(table: np.ndarray) -> tuple[np.ndarray, int]:
    """The 2^j-point table as little-endian words, point m at bit m % 64 of
    word m // 64 (a table under 64 points is one zero-padded word), and j."""
    j = int(table.size).bit_length() - 1
    packed = np.packbits(table, bitorder="little")
    return np.pad(packed, (0, -packed.size % 8)).view("<u8"), j


def _up_closure(words: np.ndarray, j: int) -> np.ndarray:
    """Packed superset closure: bit m is set iff some member is contained in m."""
    up = words.copy()
    for b in range(min(j, 6)):
        up |= (up & _LOW[b]) << np.uint64(1 << b)
    for b in range(6, j):
        v = up.reshape(-1, 2, 1 << (b - 6))
        v[:, 1, :] |= v[:, 0, :]
    return up


def is_up_closed_table(table: np.ndarray) -> bool:
    """True iff the dense family table is closed under adding elements."""
    words, j = _packed(table)
    return np.array_equal(_up_closure(words, j), words)


def is_intersecting_table(table: np.ndarray) -> bool:
    """True iff no two (not necessarily distinct) members are disjoint,
    with the single-member family {{}} vacuously intersecting."""
    if table[0] and np.count_nonzero(table) == 1:
        return True
    words, j = _packed(table)
    # no member may lie in the complement 2^j-1-m of a member m.  The
    # complement reverses the word order and the bits of each word, which
    # leaves a table under 64 points in the top 2^j bits of its word
    comp = _up_closure(words, j)[::-1]
    for b in range(6):
        s = np.uint64(1 << b)
        comp = ((comp & _LOW[b]) << s) | ((comp >> s) & _LOW[b])
    comp >>= np.uint64(max(0, 64 - (1 << j)))
    return not bool(np.any(words & comp))


def spec_is_up_closed(spec: JuntaSpec) -> bool:
    return is_up_closed_table(spec.membership_table())


def spec_is_intersecting(spec: JuntaSpec) -> bool:
    return is_intersecting_table(spec.membership_table())


def biased_measure(spec: JuntaSpec, p) -> Fraction:
    """Total bias-p measure of the defining family on its center cube."""
    j = spec.center_size
    counts = _weight_counts_of_masks(spec.defining.members, j)
    return _measure_from_weight_counts(counts, j, p)


def _pivotal_counts(table: np.ndarray, j: int, b: int) -> np.ndarray:
    """Weight histogram of the points whose membership flips with coordinate
    b, read against the table reindexed with bit b flipped.  Independent of
    the bias."""
    flipped = table.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(-1)
    return np.bincount(_popcounts(j)[table != flipped].astype(np.int64), minlength=j + 1)


def coordinate_influence(spec: JuntaSpec, i: int, p) -> Fraction:
    """Influence of coordinate i at bias p: the measure of the points whose
    membership flips with the coordinate."""
    j = spec.center_size
    if not 1 <= i <= j:
        raise ValueError(f"coordinate {i} outside center [1, {j}]")
    counts = _pivotal_counts(spec.membership_table(), j, i - 1)
    return _measure_from_weight_counts(counts, j, p)


def total_influence(spec: JuntaSpec, p) -> InfluenceProfile:
    """All coordinate influences and their sum."""
    j = spec.center_size
    table = spec.membership_table()
    per = [_measure_from_weight_counts(_pivotal_counts(table, j, b), j, p) for b in range(j)]
    return InfluenceProfile(per_coordinate=tuple(per), total=sum(per, Fraction(0)))


def biased_diversity(spec: JuntaSpec, p) -> Fraction:
    """Minimum over coordinates of the measure of members avoiding the coordinate."""
    j = spec.center_size
    members = spec.defining.members
    candidates = []
    for i in range(j):
        bit = np.int64(1 << i)
        counts = _weight_counts_of_masks(members[(members & bit) == 0], j)
        candidates.append(_measure_from_weight_counts(counts, j, p))
    return min(candidates)


def russo_check(spec: JuntaSpec, p0: float, h: float) -> Report:
    """Compare the centered finite difference of p -> mu_p against the total
    influence at p0; the two agree for upward-closed families.  Both are
    exact at the binary values of p0 and h, and rounded once for the row."""
    if not 0.0 < p0 - h < p0 + h < 1.0:
        raise ValueError(f"need 0 < p0-h < p0+h < 1, got p0={p0}, h={h}")
    report = Report(
        command="russo-check",
        parameters={"center_size": spec.center_size, "p0": p0, "h": h},
    )
    if not spec_is_up_closed(spec):
        raise ValueError("derivative identity needs an upward-closed family")
    j = spec.center_size
    counts = _weight_counts_of_masks(spec.defining.members, j)
    pf, hf = Fraction(p0), Fraction(h)
    mu_plus = _measure_from_weight_counts(counts, j, pf + hf)
    mu_minus = _measure_from_weight_counts(counts, j, pf - hf)
    derivative = (mu_plus - mu_minus) / (2 * hf)
    influence = total_influence(spec, pf).total
    abs_gap = abs(derivative - influence)
    # zero total influence means a constant family, whose difference is 0 too
    rel_gap = abs_gap / influence if influence else abs_gap
    report.add_table(
        "rows",
        [
            {
                "p0": p0,
                "h": h,
                "finite_difference": float(derivative),
                "total_influence": float(influence),
                "abs_gap": float(abs_gap),
                "rel_gap": float(rel_gap),
            }
        ],
    )
    return report.finish()


def default_bias_rule(r: int) -> Fraction:
    """Table bias max(1/4, 1/2 - 1/r), recorded with every report."""
    return max(Fraction(1, 4), Fraction(1, 2) - Fraction(1, r))


def counterexample_table(r_values: Sequence[int]) -> Report:
    """Side-by-side biased diversity and influence of the run-dominance and
    window-majority juntas on (2r+1)-centers, at bias max(1/4, 1/2 - 1/r).

    The ``rows`` table holds the float values and the influence ``ratio``,
    two rows per r; it is the one table in the CSV.  The ``exact_values``
    table holds the same quantities but ``ratio`` as exact rationals; it is
    JSON-only.

    The table asserts nothing; the decay of the influence ratio at bias 1/2
    is checked by criterion 07.  The separation of the two juntas is not
    only asymptotic: lifted to k-sets at (n, k) = (17, 8), the r = 5
    run-dominance junta is intersecting with diversity 4005, while the best
    window-majority family J_r has 3985 (r = 4) and the two-out-of-three
    family has 3003 (``lift_junta`` + ``stats``, ``build_window_majority``).
    """
    r_values = sorted(set(int(r) for r in r_values))
    if not r_values or r_values[0] < 2 or r_values[-1] > 12:
        raise ValueError(f"r values {r_values} outside [2, 12]")
    report = Report(
        command="counterexample-table",
        parameters={"r_values": r_values, "p_rule": "max(1/4, 1/2 - 1/r)"},
    )
    rows = []
    exact_rows = []
    for r in r_values:
        p = default_bias_rule(r)
        pa = float(p)
        per_family = {}
        for name, spec in (
            ("run_dominance", build_run_dominance_defining(r)),
            ("window_majority", build_majority_defining(r)),
        ):
            mu = biased_measure(spec, p)
            gp = biased_diversity(spec, p)
            per_family[name] = (mu, gp, total_influence(spec, p).total)
        inf_ratio = (
            float(per_family["run_dominance"][2]) / float(per_family["window_majority"][2])
        )
        for name, (mu, gp, inf_p) in per_family.items():
            deficit = (1.0 - pa) / 2.0 - float(gp)
            rows.append(
                {
                    "r": r,
                    "p": pa,
                    "family": name,
                    "mu": float(mu),
                    "gamma_p": float(gp),
                    "deficit": deficit,
                    "total_influence": float(inf_p),
                    "ratio": inf_ratio,
                }
            )
            exact_rows.append(
                {
                    "r": r,
                    "p": p,
                    "family": name,
                    "mu": mu,
                    "gamma_p": gp,
                    "deficit": (1 - p) / 2 - gp,
                    "total_influence": inf_p,
                }
            )
    report.add_table("rows", rows)
    report.add_table("exact_values", exact_rows, csv=False)
    return report.finish()
