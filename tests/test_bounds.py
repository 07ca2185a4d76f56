from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab.bitfam import make_family, stats
from divlab.bounds import (
    CrossBoundReport,
    admissible_cross_bound_tuples,
    binom,
    diversity_bound,
    intersecting_size_bound,
    verify_cross_weighted_bound,
    verify_triangle_chain,
)
from divlab.constructions import build_hub_block_family, fano_plane, star

from oracles import pascal_binom


def test_binom_examples():
    assert binom(7, 3) == 35
    assert binom(9, 0) == 1
    assert binom(5, 7) == 0
    assert binom(5, -1) == 0
    # frozen from the Pascal-recurrence oracle
    assert pascal_binom(64, 32) == 1832624140942590534
    assert binom(64, 32) == 1832624140942590534
    with pytest.raises(ValueError):
        binom(-1, 0)


@given(st.integers(0, 80), st.integers(0, 80))
@settings(max_examples=200)
def test_binom_pascal_recurrence(n, k):
    if 0 <= k <= n and n >= 1:
        assert binom(n, k) == binom(n - 1, k - 1) + binom(n - 1, k)


def test_size_identity_grid():
    # C(n-1,k-1) + C(n-4,k-3) - C(n-4,k-1) == 3C(n-3,k-2) + C(n-3,k-3), exactly
    for n in range(5, 41):
        for k in range(3, n // 2 + 1):
            lhs = binom(n - 1, k - 1) + binom(n - 4, k - 3) - binom(n - 4, k - 1)
            rhs = 3 * binom(n - 3, k - 2) + binom(n - 3, k - 3)
            assert lhs == rhs, (n, k)


def test_intersecting_size_bound_values():
    assert intersecting_size_bound(10, 4, 3) == 70
    assert intersecting_size_bound(10, 4, 4) == 84 + 1 - 10
    # formula instantiation at u=k, n=2k+1
    k = 5
    assert intersecting_size_bound(2 * k + 1, k, k) == binom(2 * k, k - 1) + binom(
        k, k
    ) - binom(k, k - 1)
    with pytest.raises(ValueError):
        intersecting_size_bound(10, 4, 2)
    with pytest.raises(ValueError):
        intersecting_size_bound(8, 4, 3)  # needs n > 2k


def test_diversity_bound_values():
    assert diversity_bound(10, 3) == 7
    assert diversity_bound(7, 3) == 4
    with pytest.raises(ValueError):
        diversity_bound(2, 2)


@pytest.mark.parametrize("n", range(5, 16))
def test_diversity_bound_matches_two_of_three(n):
    for k in range(2, min(6, (n - 1) // 2) + 1):
        fam = build_hub_block_family(n, k, 2)
        assert stats(fam).diversity == diversity_bound(n, k)


def test_cross_weighted_bound_10_2_3_2():
    rep = verify_cross_weighted_bound(10, 2, 3, 2)
    assert rep.ok and rep.b_cap == 8 and rep.swept_max == 8
    assert rep.a_max.size == rep.slack.size == 9  # partner sizes 0..8
    # at s = 8: a_max 17, lhs 17 + 2*8 = 33, rhs C(10, 2) = 45
    assert rep.a_max[8] == 17 and rep.slack[8] == 45 - 33


def test_cross_bound_report_reads_its_slack():
    rep = CrossBoundReport(b_cap=3, a_max=np.array([6, 4, 3, 3]), slack=np.array([0, -1, 2, -3]))
    assert rep.swept_max == 3 and rep.worst_slack == -3
    assert rep.violations == [1, 3] and not rep.ok
    rep = CrossBoundReport(b_cap=1, a_max=np.array([6, 5]), slack=np.array([0, 1]))
    assert rep.violations == [] and rep.worst_slack == 0 and rep.ok


def test_cross_bound_terms_fit_int64_up_to_m_63():
    # the sweep's int64 arithmetic is exact: every term is at most C(63, 31)
    for m, a, b, w in admissible_cross_bound_tuples(63, 63, 63, range(1, 63)):
        swept_max = min(binom(m - (b - a + 1), a - 1), binom(m, b))
        assert w * swept_max <= binom(m, a) <= binom(63, 31) < 2**60


def test_cross_weighted_bound_12_3_3_2():
    assert verify_cross_weighted_bound(12, 3, 3, 2).ok


def test_cross_weighted_bound_hypothesis_guard():
    with pytest.raises(ValueError, match="hypothesis"):
        verify_cross_weighted_bound(9, 2, 3, 2)  # m = (weight+1)*max(a,b)
    for weight in (0, -1):  # the bound holds trivially for weight < 1
        with pytest.raises(ValueError, match="weight must be >= 1"):
            verify_cross_weighted_bound(10, 2, 3, weight)


def test_cross_weighted_bound_b_less_than_a_branch():
    rep = verify_cross_weighted_bound(10, 2, 1, 2)
    # cap formula argument exceeds m; the sweep clamps to C(m, b)
    assert rep.b_cap == binom(10, 1)
    assert rep.swept_max == 10
    assert rep.ok


def test_worst_slack_nonincreasing_in_weight():
    # tuples admissible at both weights
    for m, a, b in [(13, 2, 3), (13, 3, 3), (9, 2, 2)]:
        r2 = verify_cross_weighted_bound(m, a, b, 2)
        r3 = verify_cross_weighted_bound(m, a, b, 3)
        assert r3.worst_slack <= r2.worst_slack


def test_admissible_tuples_hypothesis():
    tuples = admissible_cross_bound_tuples(14, 4, 4, (2, 3))
    assert all(m > (w + 1) * max(a, b) for m, a, b, w in tuples)
    assert (13, 4, 4, 2) in tuples
    assert (16, 4, 4, 3) not in tuples  # beyond m_max


def test_triangle_chain_two_of_three_12_3():
    rep = verify_triangle_chain(build_hub_block_family(12, 3, 2))
    assert rep.ok
    row = rep.tables["rows"][0]
    assert row["g"] == 9 and row["h1"] == 0 and row["h2"] == 0
    assert row["gamma"] == row["chain_bound"] == 9  # gamma is |g|: the chain is tight
    assert row["refinement_h1_holds"] and row["refinement_h2_holds"]
    assert row["gamma_within_bound"]


def test_triangle_chain_star():
    rep = verify_triangle_chain(star(12, 3))
    assert rep.ok
    assert rep.tables["rows"][0]["gamma"] == 0
    # a star off the centre: three trace classes of 3, gamma still 0
    star5 = make_family(7, 3, [s for s in combinations(range(1, 8), 3) if 5 in s])
    rep = verify_triangle_chain(star5)
    assert rep.ok
    assert rep.tables["rows"][0]["gamma"] == 0


def test_triangle_chain_fano_records_without_asserting():
    rep = verify_triangle_chain(fano_plane())
    assert rep.ok  # the chain and cross checks hold; refinements are data
    row = rep.tables["rows"][0]
    assert row["gamma"] == 4 and row["diversity_bound"] == 4
    assert row["chain_bound"] == 4  # 0 + 2*2 + 0: the chain is tight here
