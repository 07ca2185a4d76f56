"""Exact biased-measure analysis over a junta center.

All quantities are computed from the defining family on the center cube
(at most 2^25 points).  When the bias p is a Fraction every value is an
exact rational; float biases get compensated floating-point sums.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .constructions import (
    JuntaSpec,
    build_majority_defining,
    build_run_dominance_defining,
)
from .report import Report

Bias = Union[Fraction, float]


@dataclass(frozen=True)
class BiasedMeasure:
    """A probability under the product bias; exact when the bias is rational."""

    exact: Optional[Fraction]
    approx: float

    @property
    def value(self) -> float:
        return self.approx

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"BiasedMeasure({self.exact} ~ {self.approx:.6g})"
        return f"BiasedMeasure({self.approx:.6g})"


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences and their sum at one bias."""

    per_coordinate: tuple[BiasedMeasure, ...]
    total: BiasedMeasure
    p: Bias


def _check_bias(p: Bias) -> tuple[Optional[Fraction], float]:
    if isinstance(p, Fraction):
        if not 0 < p < 1:
            raise ValueError(f"bias {p} outside (0, 1)")
        return p, float(p)
    if isinstance(p, float):
        if not 0.0 < p < 1.0:
            raise ValueError(f"bias {p} outside (0, 1)")
        return None, p
    raise TypeError(f"bias must be Fraction or float, got {type(p).__name__}")


@lru_cache(maxsize=4)
def _popcounts(j: int) -> np.ndarray:
    w = np.bitwise_count(np.arange(1 << j, dtype=np.uint32)).astype(np.uint8)
    w.setflags(write=False)
    return w


def _measure_from_weight_counts(counts: Sequence[int], j: int, p: Bias) -> BiasedMeasure:
    """Sum of counts[w] * p^w * (1-p)^(j-w), exact for rational p."""
    pf, pa = _check_bias(p)
    approx = math.fsum(
        int(c) * pa**w * (1.0 - pa) ** (j - w) for w, c in enumerate(counts) if c
    )
    if pf is None:
        return BiasedMeasure(exact=None, approx=approx)
    q = 1 - pf
    exact = sum(int(c) * pf**w * q ** (j - w) for w, c in enumerate(counts) if c)
    exact = Fraction(exact)
    return BiasedMeasure(exact=exact, approx=float(exact))


def _weight_counts_of_masks(masks: np.ndarray, j: int) -> np.ndarray:
    return np.bincount(
        np.bitwise_count(masks.astype(np.uint64)).astype(np.int64), minlength=j + 1
    )


def is_up_closed_table(table: np.ndarray) -> bool:
    """True iff the dense family table is closed under adding elements."""
    j = int(table.size).bit_length() - 1
    for b in range(j):
        v = table.reshape(-1, 2, 1 << b)
        if bool(np.any(v[:, 0, :] & ~v[:, 1, :])):
            return False
    return True


def is_intersecting_table(table: np.ndarray) -> bool:
    """True iff no two (not necessarily distinct) members are disjoint,
    with the single-member family {{}} vacuously intersecting."""
    if table[0] and int(table.sum()) == 1:
        return True
    j = int(table.size).bit_length() - 1
    has_subset = table.copy()
    for b in range(j):
        v = has_subset.reshape(-1, 2, 1 << b)
        v[:, 1, :] |= v[:, 0, :]
    # has_subset[m]: some member is contained in m; reversing indexes complements
    return not bool(np.any(table & has_subset[::-1]))


def spec_is_up_closed(spec: JuntaSpec) -> bool:
    return is_up_closed_table(spec.membership_table())


def spec_is_intersecting(spec: JuntaSpec) -> bool:
    return is_intersecting_table(spec.membership_table())


def biased_measure(spec: JuntaSpec, p: Bias) -> BiasedMeasure:
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


def _influence_profile(counts_by_coord: list[np.ndarray], j: int, p: Bias) -> InfluenceProfile:
    """Coordinate influences from their pivotal weight histograms, and their sum."""
    per = [_measure_from_weight_counts(c, j, p) for c in counts_by_coord]
    pf, _ = _check_bias(p)
    if pf is not None:
        total_exact = sum((m.exact for m in per), Fraction(0))
        total = BiasedMeasure(exact=total_exact, approx=float(total_exact))
    else:
        total = BiasedMeasure(exact=None, approx=math.fsum(m.approx for m in per))
    return InfluenceProfile(per_coordinate=tuple(per), total=total, p=p)


def coordinate_influence(
    spec: JuntaSpec, i: int, p: Bias, mode: str = "general"
) -> BiasedMeasure:
    """Influence of coordinate i at bias p.

    'general' measures the set of points whose membership flips with the
    coordinate.  'monotone' uses the up-set identity
    p^-1 mu(members with i) - (1-p)^-1 mu(members without i) and requires an
    upward-closed defining family; the two agree exactly on up-sets.
    """
    j = spec.center_size
    if not 1 <= i <= j:
        raise ValueError(f"coordinate {i} outside center [1, {j}]")
    if mode == "general":
        counts = _pivotal_counts(spec.membership_table(), j, i - 1)
        return _measure_from_weight_counts(counts, j, p)
    if mode == "monotone":
        if not spec_is_up_closed(spec):
            raise ValueError("monotone influence mode needs an upward-closed family")
        pf, pa = _check_bias(p)
        members = spec.defining.members
        bit = np.int64(1 << (i - 1))
        with_i = _weight_counts_of_masks(members[(members & bit) != 0], j)
        without_i = _weight_counts_of_masks(members[(members & bit) == 0], j)
        mu_with = _measure_from_weight_counts(with_i, j, p)
        mu_without = _measure_from_weight_counts(without_i, j, p)
        approx = mu_with.approx / pa - mu_without.approx / (1.0 - pa)
        if pf is None:
            return BiasedMeasure(exact=None, approx=approx)
        exact = mu_with.exact / pf - mu_without.exact / (1 - pf)
        return BiasedMeasure(exact=exact, approx=float(exact))
    raise ValueError(f"unknown influence mode {mode!r}")


def total_influence(spec: JuntaSpec, p: Bias) -> InfluenceProfile:
    """All coordinate influences (general mode) and their sum."""
    j = spec.center_size
    table = spec.membership_table()
    return _influence_profile([_pivotal_counts(table, j, b) for b in range(j)], j, p)


def biased_diversity(spec: JuntaSpec, p: Bias) -> BiasedMeasure:
    """Minimum over coordinates of the measure of members avoiding the coordinate."""
    j = spec.center_size
    members = spec.defining.members
    pf, _ = _check_bias(p)
    candidates = []
    for i in range(j):
        bit = np.int64(1 << i)
        counts = _weight_counts_of_masks(members[(members & bit) == 0], j)
        candidates.append(_measure_from_weight_counts(counts, j, p))
    if pf is not None:
        return min(candidates, key=lambda m: m.exact)
    return min(candidates, key=lambda m: m.approx)


def russo_check(spec: JuntaSpec, p0: float, h: float) -> Report:
    """Compare the centered finite difference of p -> mu_p against the total
    influence at p0; the two agree for upward-closed families."""
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
    mu_plus = _measure_from_weight_counts(counts, j, p0 + h).approx
    mu_minus = _measure_from_weight_counts(counts, j, p0 - h).approx
    derivative = (mu_plus - mu_minus) / (2.0 * h)
    influence = total_influence(spec, float(p0)).total.approx
    abs_gap = abs(derivative - influence)
    rel_gap = abs_gap / max(abs(influence), 1e-300)
    report.add_table(
        "rows",
        [
            {
                "p0": p0,
                "h": h,
                "finite_difference": derivative,
                "total_influence": influence,
                "abs_gap": abs_gap,
                "rel_gap": rel_gap,
            }
        ],
    )
    return report.finish()


def default_bias_rule(r: int) -> Fraction:
    """Table bias max(1/4, 1/2 - 1/r), recorded with every report."""
    return max(Fraction(1, 4), Fraction(1, 2) - Fraction(1, r))


def counterexample_table(
    r_values: Sequence[int],
    p_rule: Optional[Callable[[int], Bias]] = None,
) -> Report:
    """Side-by-side biased diversity and influence of the run-dominance and
    window-majority juntas on (2r+1)-centers.

    The ``rows`` table holds the float values and the influence ``ratio``,
    two rows per r; it is the one table in the CSV.  The ``exact_values``
    table holds the same quantities but ``ratio`` as exact rationals, for
    rational biases only; it is JSON-only.

    No inequality between the diversity columns is asserted (the separation
    is asymptotic); the asserted trend is the decay of the influence ratio
    at bias 1/2 - strictly below center size 9, where the two juntas first
    differ, and non-increasing everywhere.
    """
    r_values = sorted(set(int(r) for r in r_values))
    if not r_values or r_values[0] < 2 or r_values[-1] > 12:
        raise ValueError(f"r values {r_values} outside [2, 12]")
    rule = p_rule if p_rule is not None else default_bias_rule
    report = Report(
        command="counterexample-table",
        parameters={"r_values": r_values, "p_rule": "max(1/4, 1/2 - 1/r)" if p_rule is None else "custom"},
    )
    half = Fraction(1, 2)
    rows = []
    exact_rows = []
    ratio_half: dict[int, Fraction] = {}
    for r in r_values:
        p = rule(r)
        pf, pa = _check_bias(p)
        specs = {
            "run_dominance": build_run_dominance_defining(r),
            "window_majority": build_majority_defining(r),
        }
        per_family = {}
        for name, spec in specs.items():
            j = spec.center_size
            table = spec.membership_table()
            counts_by_coord = [_pivotal_counts(table, j, b) for b in range(j)]
            mu = biased_measure(spec, p)
            gp = biased_diversity(spec, p)
            inf_p = _influence_profile(counts_by_coord, j, p).total
            inf_half = _influence_profile(counts_by_coord, j, half).total
            per_family[name] = (mu, gp, inf_p, inf_half)
        inf_ratio = (
            per_family["run_dominance"][2].approx / per_family["window_majority"][2].approx
        )
        ratio_half[r] = (
            per_family["run_dominance"][3].exact / per_family["window_majority"][3].exact
        )
        for name in ("run_dominance", "window_majority"):
            mu, gp, inf_p, _ = per_family[name]
            deficit = (1.0 - pa) / 2.0 - gp.approx
            rows.append(
                {
                    "r": r,
                    "p": pa,
                    "family": name,
                    "mu": mu.approx,
                    "gamma_p": gp.approx,
                    "deficit": deficit,
                    "total_influence": inf_p.approx,
                    "ratio": inf_ratio,
                }
            )
            if pf is not None:
                exact_rows.append(
                    {
                        "r": r,
                        "p": pf,
                        "family": name,
                        "mu": mu.exact,
                        "gamma_p": gp.exact,
                        "deficit": (1 - pf) / 2 - gp.exact,
                        "total_influence": inf_p.exact,
                    }
                )
    report.add_table("rows", rows)
    if exact_rows:
        report.add_table("exact_values", exact_rows, csv=False)
    pairs = list(zip(r_values, r_values[1:]))
    for lo, hi in pairs:
        report.check(
            f"influence_ratio_nonincreasing_r{lo}_to_r{hi}",
            True,
            ratio_half[hi] <= ratio_half[lo],
        )
        if lo >= 4:
            report.check(
                f"influence_ratio_strictly_decreasing_r{lo}_to_r{hi}",
                True,
                ratio_half[hi] < ratio_half[lo],
            )
    equal_rs = [r for r in r_values if r <= 4]
    if len(equal_rs) >= 2:
        report.note(
            "ratio at bias 1/2 equals 1 exactly for r <= 4 (the juntas coincide with "
            "majority there), so strict decay starts at r = 4 -> 5"
        )
    return report.finish()
