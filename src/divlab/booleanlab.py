"""Exact biased-measure analysis over a junta center.

A junta spec is its membership table on the center cube (at most
2^MAX_TABLE_N points, bitfam's cap), and every quantity is read from that
table.  Every value is one exact rational: a float bias is taken at its
exact binary value, so ``float()`` of a result is correctly rounded.

Measures, influences and the biased diversity are read off weight
histograms of the table packed as the bitfam module lays it out, and the
dense up-closure and intersection checks run on the same packed words.
Both verdicts of a spec come from one up-closure; a weak-keyed memo keeps
the two booleans, and no table, while the spec lives.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .bitfam import flip, pack_table, reverse_closure, up_closure, weight_histogram, without
from .constructions import (
    MAX_R,
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


def _measure_from_weight_counts(counts: Sequence[int], j: int, p) -> Fraction:
    """Sum of counts[w] * p^w * (1-p)^(j-w), exactly: with p = a/b, one
    integer numerator over b^j."""
    p = _check_bias(p)
    a, b = p.numerator, p.denominator
    num = sum(int(c) * a**w * (b - a) ** (j - w) for w, c in enumerate(counts) if c)
    return Fraction(num, b**j)


def _table_verdicts(table: np.ndarray) -> tuple[bool, bool]:
    """Whether the dense family table is intersecting and whether it is
    up-closed, from one up-closure: up-closed iff the closure is the table,
    intersecting iff the table is {{}} or misses the reversed closure."""
    words, j = pack_table(table)
    up = up_closure(words, j)
    up_closed = bool(np.array_equal(up, words))
    if table[0] and np.count_nonzero(table) == 1:
        return True, up_closed
    return not np.any(words & reverse_closure(up, j)), up_closed


def is_up_closed_table(table: np.ndarray) -> bool:
    """True iff the dense family table is closed under adding elements."""
    return _table_verdicts(table)[1]


def is_intersecting_table(table: np.ndarray) -> bool:
    """True iff no two (not necessarily distinct) members are disjoint,
    with the single-member family {{}} vacuously intersecting."""
    return _table_verdicts(table)[0]


_VERDICTS: weakref.WeakKeyDictionary[JuntaSpec, tuple[bool, bool]] = weakref.WeakKeyDictionary()


def _spec_verdicts(spec: JuntaSpec) -> tuple[bool, bool]:
    """``_table_verdicts`` of the spec's read-only table, kept while the spec lives."""
    if spec not in _VERDICTS:
        _VERDICTS[spec] = _table_verdicts(spec.membership_table())
    return _VERDICTS[spec]


def spec_is_up_closed(spec: JuntaSpec) -> bool:
    return _spec_verdicts(spec)[1]


def spec_is_intersecting(spec: JuntaSpec) -> bool:
    return _spec_verdicts(spec)[0]


def weight_counts(spec: JuntaSpec) -> np.ndarray:
    """Entry w is the number of members of weight w on the center cube."""
    return weight_histogram(*pack_table(spec.membership_table()))


def biased_measure(spec: JuntaSpec, p) -> Fraction:
    """Total bias-p measure of the defining family on its center cube."""
    return _measure_from_weight_counts(weight_counts(spec), spec.center_size, p)


def measure_derivative(spec: JuntaSpec, p) -> Fraction:
    """Exact derivative in p of the bias-p measure, q = 1-p.

    d/dp p^w q^(j-w) = w p^(w-1) q^(j-w) - (j-w) p^w q^(j-w-1), so the
    derivative of sum c[w] p^w q^(j-w) is the measure-shaped polynomial
    sum d[v] p^v q^(j-1-v) with d[v] = (v+1) c[v+1] - (j-v) c[v]: with
    p = a/b, one integer numerator over b^(j-1).  By Russo's lemma it equals
    the total influence when the family is closed upward.
    """
    c = weight_counts(spec)
    j = spec.center_size
    d = [(v + 1) * c[v + 1] - (j - v) * c[v] for v in range(j)]
    return _measure_from_weight_counts(d, j - 1, p)


def _is_cyclic(table: np.ndarray) -> bool:
    """True iff the table is invariant under rotating the coordinates:
    T[m] = T[rot(m)], with rot moving bit 0 of m to the top: the even
    point 2a rotates to a and the odd point 2a+1 to a + 2^(j-1)."""
    half = table.size // 2
    return np.array_equal(table[::2], table[:half]) and np.array_equal(table[1::2], table[half:])


def _coordinates(table: np.ndarray, j: int) -> range:
    """The coordinates whose values need computing: coordinate 1 alone
    stands for all of a cyclic table's."""
    return range(1 if _is_cyclic(table) else j)


def _prepared(spec: JuntaSpec) -> tuple[np.ndarray, int, range]:
    """The spec's packed table, its center size and the coordinates whose
    values need computing, shared by the quantities read from one spec."""
    table = spec.membership_table()
    words, j = pack_table(table)
    return words, j, _coordinates(table, j)


def _influences(words: np.ndarray, j: int, coordinates: range, p) -> list[Fraction]:
    """The influence of every coordinate: a cyclic table's one value j times."""
    pivotal = (weight_histogram(words ^ flip(words, b), j) for b in coordinates)
    per = [_measure_from_weight_counts(counts, j, p) for counts in pivotal]
    return per * (j // len(per))


def total_influence(spec: JuntaSpec, p) -> InfluenceProfile:
    """All coordinate influences and their sum; ``per_coordinate[i - 1]`` is
    the influence of coordinate i at bias p, the measure of the points whose
    membership flips with the coordinate.  A cyclic table's coordinates
    share one influence, computed once."""
    per = _influences(*_prepared(spec), p)
    return InfluenceProfile(per_coordinate=tuple(per), total=sum(per, Fraction(0)))


def _diversity(words: np.ndarray, j: int, coordinates: range, p) -> Fraction:
    return min(
        _measure_from_weight_counts(weight_histogram(without(words, b), j), j, p)
        for b in coordinates
    )


def biased_diversity(spec: JuntaSpec, p) -> Fraction:
    """Minimum over coordinates of the measure of members avoiding the
    coordinate; for a cyclic table, the measure avoiding coordinate 1."""
    return _diversity(*_prepared(spec), p)


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
    if not r_values or r_values[0] < 2 or r_values[-1] > MAX_R:
        raise ValueError(f"r values {r_values} outside [2, {MAX_R}]")
    report = Report(
        command="counterexample-table",
        parameters={"r_values": r_values, "p_rule": "max(1/4, 1/2 - 1/r)"},
    )
    rows = []
    exact_rows = []
    for r in r_values:
        p = default_bias_rule(r)
        pair = []
        for name, spec in (
            ("run_dominance", build_run_dominance_defining(r)),
            ("window_majority", build_majority_defining(r)),
        ):
            words, j, coordinates = _prepared(spec)  # one packing, one cyclic test
            gp = _diversity(words, j, coordinates, p)
            pair.append(
                {
                    "r": r,
                    "p": p,
                    "family": name,
                    "mu": _measure_from_weight_counts(weight_histogram(words, j), j, p),
                    "gamma_p": gp,
                    "deficit": (1 - p) / 2 - gp,
                    "total_influence": sum(_influences(words, j, coordinates, p), Fraction(0)),
                }
            )
        exact_rows += pair
        inf_ratio = float(pair[0]["total_influence"]) / float(pair[1]["total_influence"])
        for exact in pair:
            row = {c: float(v) if isinstance(v, Fraction) else v for c, v in exact.items()}
            # float() of the exact deficit can differ from this in the last digit
            row["deficit"] = (1.0 - row["p"]) / 2.0 - row["gamma_p"]
            rows.append({**row, "ratio": inf_ratio})
    report.add_table("rows", rows)
    report.add_table("exact_values", exact_rows, csv=False)
    return report.finish()
