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
from typing import Optional, Sequence, Union

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

    def __repr__(self) -> str:
        if self.exact is not None:
            return f"BiasedMeasure({self.exact} ~ {self.approx:.6g})"
        return f"BiasedMeasure({self.approx:.6g})"


@dataclass(frozen=True)
class InfluenceProfile:
    """Per-coordinate influences and their sum at one bias."""

    per_coordinate: tuple[BiasedMeasure, ...]
    total: BiasedMeasure


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
    if pf is None:
        approx = math.fsum(
            int(c) * pa**w * (1.0 - pa) ** (j - w) for w, c in enumerate(counts) if c
        )
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
    per = [_measure_from_weight_counts(_pivotal_counts(table, j, b), j, p) for b in range(j)]
    pf, _ = _check_bias(p)
    if pf is not None:
        total_exact = sum((m.exact for m in per), Fraction(0))
        total = BiasedMeasure(exact=total_exact, approx=float(total_exact))
    else:
        total = BiasedMeasure(exact=None, approx=math.fsum(m.approx for m in per))
    return InfluenceProfile(per_coordinate=tuple(per), total=total)


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
            per_family["run_dominance"][2].approx / per_family["window_majority"][2].approx
        )
        for name, (mu, gp, inf_p) in per_family.items():
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
            exact_rows.append(
                {
                    "r": r,
                    "p": p,
                    "family": name,
                    "mu": mu.exact,
                    "gamma_p": gp.exact,
                    "deficit": (1 - p) / 2 - gp.exact,
                    "total_influence": inf_p.exact,
                }
            )
    report.add_table("rows", rows)
    report.add_table("exact_values", exact_rows, csv=False)
    return report.finish()
