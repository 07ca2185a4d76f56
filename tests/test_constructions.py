import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import booleanlab as bl
from divlab import runstat
from divlab.bitfam import (
    elements_of_mask,
    family_from_masks,
    is_t_intersecting,
    make_family,
    stats,
)
from divlab.bounds import triangle_decompose
from divlab.constructions import (
    JuntaSpec,
    build_dictator_defining,
    build_hub_block_family,
    build_majority_defining,
    build_run_dominance_defining,
    build_run_dominance_family,
    build_window_majority,
    fano_plane,
    full_uniform_family,
    lift_junta,
    star,
)
from divlab.errors import ResourceCapError

from oracles import all_ksets, family_as_sets, lift_by_filter, pascal_binom


def hub_block_oracle(n, k, u):
    """Literal filter: contains the whole block {2..u+1}, or 1 plus a block hit."""
    block = set(range(2, u + 2))
    return {
        s
        for s in all_ksets(n, k)
        if block <= s or (1 in s and s & block)
    }


def window_majority_oracle(n, k, r):
    window = set(range(1, 2 * r + 2))
    return {s for s in all_ksets(n, k) if len(s & window) >= r + 1}


@pytest.mark.parametrize("n,k,u", [(7, 3, 2), (8, 3, 2), (10, 4, 3), (10, 4, 4), (8, 4, 2)])
def test_hub_block_matches_filter_oracle(n, k, u):
    fam = build_hub_block_family(n, k, u)
    assert set(family_as_sets(fam)) == hub_block_oracle(n, k, u)


def test_hub_block_7_3_2():
    fam = build_hub_block_family(7, 3, 2)
    assert len(fam) == 13
    assert stats(fam).diversity == 4
    # same size as the u=3 variant at these parameters
    assert len(build_hub_block_family(7, 3, 3)) == 13


def test_hub_block_10_4_3_size():
    fam = build_hub_block_family(10, 4, 3)
    assert len(fam) == 70
    assert 70 == pascal_binom(9, 3) + pascal_binom(6, 1) - pascal_binom(6, 3)


def test_hub_block_boundary_u_equals_k():
    fam = build_hub_block_family(8, 4, 4)  # n = 2k
    assert is_t_intersecting(fam, 1)


@pytest.mark.parametrize("n,k,u", [(7, 3, 1), (7, 3, 4), (5, 3, 2)])
def test_hub_block_rejects_bad_parameters(n, k, u):
    with pytest.raises(ValueError):
        build_hub_block_family(n, k, u)


@pytest.mark.parametrize("n,k,r", [(7, 3, 1), (7, 3, 2), (5, 2, 1), (9, 4, 2), (10, 4, 3)])
def test_window_majority_matches_filter_oracle(n, k, r):
    fam = build_window_majority(n, k, r)
    assert set(family_as_sets(fam)) == window_majority_oracle(n, k, r)
    assert is_t_intersecting(fam, 1)


def test_window_majority_examples():
    assert build_window_majority(7, 3, 1) == build_hub_block_family(7, 3, 2)
    d2 = build_window_majority(7, 3, 2)
    assert set(family_as_sets(d2)) == set(all_ksets(5, 3))  # all 3-subsets of [5]
    assert len(d2) == 10 and stats(d2).diversity == 4
    assert build_window_majority(5, 2, 1) == make_family(5, 2, [{1, 2}, {1, 3}, {2, 3}])


def test_window_majority_rejects_bad_parameters():
    with pytest.raises(ValueError):
        build_window_majority(7, 3, 3)  # r > k-1
    with pytest.raises(ValueError):
        build_window_majority(4, 3, 2)  # window exceeds ground set


def test_run_dominance_r1_is_majority_on_3():
    spec = build_run_dominance_defining(1)
    assert [tuple(s) for s in spec.defining.member_sets()] == [
        (1, 2),
        (1, 3),
        (2, 3),
        (1, 2, 3),
    ]


@pytest.mark.parametrize("r", range(1, 7))
def test_run_dominance_count_and_structure(r):
    spec = build_run_dominance_defining(r)
    assert len(spec.defining) == 1 << (2 * r)
    assert bl.spec_is_intersecting(spec)
    assert bl.spec_is_up_closed(spec)


@pytest.mark.parametrize("r", range(1, 7))
def test_run_dominance_complement_exclusive(r):
    table = spec_table = build_run_dominance_defining(r).membership_table()
    full = len(table) - 1
    flipped = table[::-1]  # index m -> full - m = complement of m
    assert bool(np.all(table ^ flipped))  # exactly one of each complement pair


def test_membership_table_is_read_only_and_built_once():
    spec = build_run_dominance_defining(3)
    table = spec.membership_table()
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0] = True
    assert spec.membership_table() is table
    bl.spec_is_up_closed(spec)
    bl.total_influence(spec, 0.5)
    assert spec.membership_table() is table
    assert np.array_equal(np.flatnonzero(table), spec.defining.members)


@pytest.mark.parametrize("r", [1, 5])
def test_run_dominance_spec_shares_the_scan_table(r):
    assert build_run_dominance_defining(r).membership_table() is runstat.in_t_table(2 * r + 1)


def test_defining_equals_the_validated_construction():
    specs = [build_run_dominance_defining(r) for r in range(1, 7)]
    specs += [build_majority_defining(3), build_dictator_defining(5)]
    specs.append(JuntaSpec(np.zeros(16, dtype=bool)))
    for spec in specs:
        members = np.flatnonzero(spec.membership_table())
        assert spec.defining == family_from_masks(spec.center_size, None, members)


def test_junta_spec_copies_a_writable_table():
    table = np.zeros(8, dtype=bool)
    spec = JuntaSpec(table)
    table[7] = True
    assert spec.center_size == 3
    assert not spec.membership_table().any()
    assert not spec.membership_table().flags.writeable


def test_run_dominance_majority_boundary():
    # coincides with majority up to window parameter 4, differs at 5
    for r in (1, 2, 3, 4):
        assert build_run_dominance_defining(r).defining == build_majority_defining(r).defining
    t5 = build_run_dominance_defining(5)
    assert t5.defining != build_majority_defining(5).defining
    witness = int("11110001000"[::-1], 2)  # ones-runs (4,1) beat zeros-runs (3,3)
    assert witness in t5.defining
    assert bin(witness).count("1") == 5  # below majority weight 6


def test_run_dominance_rejects_out_of_range():
    with pytest.raises(ValueError):
        build_run_dominance_defining(0)
    with pytest.raises(ValueError):
        build_run_dominance_defining(13)


def test_junta_spec_validation():
    with pytest.raises(ValueError, match="bool"):
        JuntaSpec(np.zeros(8, dtype=np.int64))
    with pytest.raises(ValueError, match="bool"):
        JuntaSpec(np.zeros((2, 4), dtype=bool))
    with pytest.raises(ValueError, match="2\\^j"):
        JuntaSpec(np.zeros(6, dtype=bool))
    with pytest.raises(ValueError, match="2\\^j"):
        JuntaSpec(np.zeros(1, dtype=bool))  # j = 0


def hub_block_table(u):
    """The hub-block rule on the centre [u+1], from element sets."""
    block = set(range(2, u + 2))
    traces = (set(elements_of_mask(m)) for m in range(1 << (u + 1)))
    return np.array([block <= t or (1 in t and bool(t & block)) for t in traces])


def majority_table(r):
    return np.array([bin(m).count("1") >= r + 1 for m in range(1 << (2 * r + 1))])


_LIFT_TABLES = [runstat.in_t_table(2 * r + 1) for r in range(1, 5)] + [
    table
    for c in range(1, 7)
    for table in (
        np.zeros(1 << c, bool),
        np.ones(1 << c, bool),
        np.random.default_rng(c).random(1 << c) < 0.5,
    )
]


@pytest.mark.parametrize("n", range(1, 17))
def test_lifts_equal_filter_oracle(n):
    # every k, every admissible u and r, run dominance r <= 4 (as a spec and
    # through its builder), the star, and the all-False, all-True and mixed
    # tables on centres of 1..6 elements
    for k in range(n + 1):
        for table in _LIFT_TABLES:
            if table.size <= 1 << n:
                assert lift_junta(JuntaSpec(table), n, k) == lift_by_filter(table, n, k)
        for r in range(1, min(4, (n - 1) // 2) + 1):
            want = lift_by_filter(runstat.in_t_table(2 * r + 1), n, k)
            assert build_run_dominance_family(n, k, r) == want
        assert star(n, k) == lift_by_filter(np.array([False, True]), n, k)
        for u in range(2, k + 1) if n >= 2 * k else ():
            assert build_hub_block_family(n, k, u) == lift_by_filter(hub_block_table(u), n, k)
        for r in range(1, min(k - 1, (n - 1) // 2) + 1):
            assert build_window_majority(n, k, r) == lift_by_filter(majority_table(r), n, k)


@pytest.mark.parametrize("n,k", [(64, 3), (6, 7), (6, -1)])
def test_lifts_refuse_ground_set_and_uniformity_out_of_range(n, k):
    with pytest.raises(ValueError):
        lift_junta(build_run_dominance_defining(1), n, k)
    with pytest.raises(ValueError):
        build_hub_block_family(n, k, 2)
    with pytest.raises(ValueError):
        build_window_majority(n, k, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: lift_junta(build_run_dominance_defining(3), 26, 8),
        lambda: build_hub_block_family(26, 8, 3),
    ],
    ids=["run-dominance-lift", "hub-block"],
)
def test_lift_peaks_near_its_output(build):
    build()  # the first call fills the run-profile table cache
    tracemalloc.start()
    try:
        members = build().members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * members.nbytes + 2**20


def test_full_family_peaks_near_its_output():
    """The k-set enumeration is sorted in place and validated through a view,
    so the only copy is the output itself."""
    full_uniform_family(26, 8)
    tracemalloc.start()
    try:
        members = full_uniform_family(26, 8).members
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * members.nbytes + 2**20


def test_lift_empty_and_full():
    empty = JuntaSpec(np.zeros(8, dtype=bool))
    assert len(lift_junta(empty, 6, 3)) == 0
    all_traces = JuntaSpec(np.ones(2, dtype=bool))
    assert lift_junta(all_traces, 5, 2) == full_uniform_family(5, 2)


def test_lift_cap_refused():
    spec = build_majority_defining(1)
    with pytest.raises(ResourceCapError):
        lift_junta(spec, 40, 20)
    with pytest.raises(ResourceCapError):  # C(40, 10) > 2^26, but no part is that large
        lift_junta(JuntaSpec(np.zeros(1 << 20, dtype=bool)), 40, 10)
    with pytest.raises(ResourceCapError):
        build_hub_block_family(40, 20, 3)
    with pytest.raises(ResourceCapError):
        build_window_majority(40, 20, 13)  # r = 13 has no majority table
    with pytest.raises(ResourceCapError):
        build_run_dominance_family(40, 20, 13)  # nor a run-dominance table


def test_dictator_defining():
    spec = build_dictator_defining(4)
    assert len(spec.defining) == 1 << 3
    assert all(1 in s for s in spec.defining.member_sets())


def test_triangle_decompose_two_of_three():
    dec = triangle_decompose(build_hub_block_family(7, 3, 2))
    assert [len(f) for f in dec.fi] == [0, 0, 0]
    assert len(dec.h2) == 0
    assert len(dec.g) == 4


def star_of_5():
    """The 3-sets of [7] through element 5."""
    return make_family(7, 3, [s for s in all_ksets(7, 3) if 5 in s])


def test_triangle_decompose_star_of_5():
    dec = triangle_decompose(star_of_5())
    # members tracing {2,3} are exactly {2,3,5}; its tail {5} relabels to {2}
    assert dec.g.member_sets() == [(2,)]
    assert dec.largest_fi_index == 1  # all three trace classes tie at size 3
    assert len(dec.h1) == 3 and len(dec.h2) == 3


def test_triangle_decompose_fano():
    dec = triangle_decompose(fano_plane())
    # two lines through each centre point alone, none through a pair alone
    assert [len(f) for f in dec.fi] == [2, 2, 2] and dec.largest_fi_index == 1
    assert (len(dec.g), len(dec.h1), len(dec.h2)) == (0, 2, 0)


def test_triangle_decompose_uniformities():
    dec = triangle_decompose(build_window_majority(9, 4, 2))
    assert dec.g.k == 2 and dec.h1.k == 3 and dec.h2.k == 4
    assert dec.g.n == dec.h1.n == dec.h2.n == 6
    assert len(dec.h1) == len(dec.fi[dec.largest_fi_index - 1])


def tails_by_scan(sets, trace):
    """The members whose centre trace is ``trace``, less the centre, relabeled
    from [4, n] down to [1, n-3]."""
    return sorted(tuple(e - 3 for e in sorted(s) if e > 3) for s in sets if s & {1, 2, 3} == trace)


@pytest.mark.parametrize("n", range(4, 8))
def test_triangle_decompose_small_ground_sets(n):
    # at n < k + 3 no k-set avoids the centre, so h2 is empty, and every tail
    # family lives on max(n - 3, k) points, where its uniformity fits
    for k in range(2, n + 1):
        two_of_three = [s for s in all_ksets(n, k) if len(s & {1, 2, 3}) >= 2]
        for fam in (star(n, k), make_family(n, k, two_of_three)):
            dec = triangle_decompose(fam)
            assert dec.g.n == dec.h1.n == dec.h2.n == max(n - 3, k)
            sets, largest = family_as_sets(fam), dec.largest_fi_index
            assert sorted(dec.g.member_sets()) == tails_by_scan(sets, {1, 2, 3} - {largest})
            assert sorted(dec.h1.member_sets()) == tails_by_scan(sets, {largest})
            assert sorted(dec.h2.member_sets()) == tails_by_scan(sets, set())


def test_triangle_decompose_rejects_non_intersecting():
    fam = make_family(6, 3, [{1, 2, 3}, {4, 5, 6}])
    with pytest.raises(ValueError, match="intersecting"):
        triangle_decompose(fam)
    with pytest.raises(ValueError, match="k >= 2"):
        triangle_decompose(make_family(5, 1, [{1}]))


@given(st.integers(2, 5), st.integers(0, 2**20 - 1))
@settings(max_examples=60)
def test_lift_membership_rule(r, raw):
    # lifting preserves the defining rule trace-for-trace
    n, k = 2 * r + 2, r + 1
    spec = build_majority_defining(r)
    fam = lift_junta(spec, n, k)
    jmask = (1 << spec.center_size) - 1
    table = spec.membership_table()
    for m in fam:
        assert table[m & jmask]


@pytest.mark.parametrize("r", range(1, 11))
def test_majority_table_is_the_popcount_rule(r):
    table = build_majority_defining(r).membership_table()
    points = range(1 << (2 * r + 1))
    assert table.tolist() == [bin(m).count("1") >= r + 1 for m in points]
    assert not table.flags.writeable


def test_majority_table_build_peaks_near_its_size():
    build_majority_defining(10)
    tracemalloc.start()
    try:
        spec = build_majority_defining(10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= spec.table.nbytes + 2**20
