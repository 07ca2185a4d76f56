import math
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import bitfam
from divlab.bitfam import (
    KSUBSET_CACHE_SETS,
    MAX_TABLE_N,
    PAIR_BLOCK,
    PAIRWISE_CHECK_CAP,
    Family,
    are_cross_intersecting,
    elements_of_mask,
    family_from_masks,
    family_from_text,
    family_to_text,
    is_t_intersecting,
    ksubset_masks,
    make_family,
    mask_from_elements,
    stats,
)
from divlab.constructions import build_hub_block_family, full_uniform_family
from divlab.errors import ResourceCapError

from conftest import small_families
from oracles import (
    all_ksets,
    cross_intersecting,
    degrees_by_scan,
    diversity_by_scan,
    family_as_sets,
    family_from_text_by_lines,
    family_text_by_elements,
    pairwise_t_intersecting,
    tables_meet_by_points,
)

FANO_LINES = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7), (3, 4, 7), (3, 5, 6)]


def test_mask_round_trip():
    assert mask_from_elements([1, 3, 5], 7) == 0b10101
    assert elements_of_mask(0b10101) == (1, 3, 5)


def test_make_family_triangle():
    fam = make_family(3, 2, [{1, 2}, {1, 3}, {2, 3}])
    assert fam.member_sets() == [(1, 2), (1, 3), (2, 3)]
    assert len(fam) == 3


def test_make_family_dedups():
    fam = make_family(4, 2, [{1, 2}, {1, 2}])
    assert len(fam) == 1


def test_make_family_two_of_three_count():
    # independent count: sets with >= 2 elements of {1,2,3} among 3-sets of [7]
    sets = [s for s in all_ksets(7, 3) if len(s & {1, 2, 3}) >= 2]
    assert len(sets) == 13  # 3 * C(4,1) + 1
    fam = make_family(7, 3, sets)
    assert len(fam) == 13


@pytest.mark.parametrize(
    "n,k,sets,err",
    [
        (7, 3, [{1, 2, 8}], "outside"),
        (7, 3, [{1, 2}], "cardinality"),
        (0, None, [], "ground set"),
        (64, None, [], "ground set"),
    ],
)
def test_make_family_errors(n, k, sets, err):
    with pytest.raises(ValueError, match=err):
        make_family(n, k, sets)


def test_family_from_masks_names_the_set_of_the_wrong_cardinality():
    # both entry points give the one message, from family_from_masks
    want = r"set \[1, 2\] has cardinality 2, expected k=3"
    with pytest.raises(ValueError, match=want):
        make_family(7, 3, [{1, 2, 4}, {1, 2}])
    with pytest.raises(ValueError, match=want):
        family_from_masks(7, 3, [0b1011, 0b11])


@pytest.mark.parametrize("n", [0, 3, 6, 7, 10])
def test_packed_tables_hold_point_m_at_bit_m_mod_64_of_word_m_div_64(n):
    rng = np.random.default_rng(n)
    table = rng.random(1 << n) < 0.4
    points = np.flatnonzero(table)
    words, j = bitfam.pack_table(table)
    assert j == n and words.size == max(1, (1 << n) // 64)
    for m in range(1 << n):
        assert bool(int(words[m // 64]) >> (m % 64) & 1) == table[m]
    assert np.array_equal(bitfam.pack_members(points, n), words)
    assert np.array_equal(bitfam.unpack(words), points)
    for b in range(n):
        assert np.array_equal(bitfam.unpack(bitfam.flip(words, b)), np.sort(points ^ (1 << b)))
        assert np.array_equal(bitfam.unpack(bitfam.without(words, b)), points[points >> b & 1 == 0])


def _random_table(rng, j):
    """Points above half weight with one density, the rest with a lower one,
    so that pairs of these tables both meet and fail to."""
    heavy = np.bitwise_count(np.arange(1 << j)) * 2 > j
    return rng.random(1 << j) < np.where(heavy, rng.random(), rng.choice([0.0, 0.02, 0.1]))


def test_tables_meet_is_every_pair_of_points_meeting():
    pairs = [(a, b) for j in range(3) for a in product([False, True], repeat=1 << j)
             for b in product([False, True], repeat=1 << j)]
    rng = np.random.default_rng(5)
    for j in range(3, 9):  # the packed tables cross from one word to several at j = 6
        for _ in range(40):
            a = _random_table(rng, j)
            pairs += [(a, _random_table(rng, j)), (a, a)]
    outcomes = Counter()
    for a, b in pairs:
        (wa, j), (wb, _) = bitfam.pack_table(np.array(a)), bitfam.pack_table(np.array(b))
        want = tables_meet_by_points(np.flatnonzero(a).tolist(), np.flatnonzero(b).tolist())
        assert bitfam.tables_meet(wa, wb, j) == want, (j, np.flatnonzero(a), np.flatnonzero(b))
        outcomes[j, want] += 1
    assert all(outcomes[j, True] and outcomes[j, False] for j in range(9))


def test_is_t_intersecting_examples():
    tri = make_family(3, 2, [{1, 2}, {1, 3}, {2, 3}])
    assert is_t_intersecting(tri, 1)
    disj = make_family(4, 2, [{1, 2}, {3, 4}])
    assert not is_t_intersecting(disj, 1)


def test_window_majority_restriction_is_2_intersecting():
    # members of the r=2 window-majority family on (7,3) avoiding element 1
    sets = [
        s for s in all_ksets(7, 3) if len(s & {1, 2, 3, 4, 5}) >= 3 and 1 not in s
    ]
    fam = make_family(7, 3, sets)
    assert is_t_intersecting(fam, 2)
    assert pairwise_t_intersecting(family_as_sets(fam), 2)


def test_pairwise_cap_refused():
    # past MAX_TABLE_N, 2^16 members make 2^31 - 2^15 pairs and are scanned
    # (the sets {1} and {2} fail the first row block), 2^16 + 1 make
    # 2^31 + 2^15 and are refused, whatever t
    n = MAX_TABLE_N + 1
    masks = np.arange(1, (1 << 16) + 2, dtype=np.int64)
    assert not is_t_intersecting(family_from_masks(n, None, masks[:-1]), 1)
    for t in (1, 2):
        with pytest.raises(ResourceCapError, match=r"2147516416 > 2\^31 member pairs"):
            is_t_intersecting(family_from_masks(n, None, masks), t)
    # |A|*|B| pairs on 30 points: 2^31 are scanned (the empty set in A
    # fails the first row block), 2^32 are refused
    a = family_from_masks(30, None, np.arange(1 << 16, dtype=np.int64))
    b = family_from_masks(30, None, np.arange(1 << 15, dtype=np.int64) << 15)
    c = family_from_masks(30, None, np.arange(1 << 16, dtype=np.int64) << 14)
    assert len(a) * len(b) == PAIRWISE_CHECK_CAP
    assert not are_cross_intersecting(a, b) and not are_cross_intersecting(b, a)
    with pytest.raises(ResourceCapError, match=r"4294967296 > 2\^31 member pairs"):
        are_cross_intersecting(a, c)


def test_large_families_on_the_packed_table_are_not_refused(monkeypatch):
    # past 65,536 members on n <= MAX_TABLE_N points, the t = 1 check runs
    # on the packed table alone: no member pair is scanned
    monkeypatch.setattr(bitfam, "_pairs_meet", _refuse)
    hub = build_hub_block_family(22, 8, 2)
    full = full_uniform_family(22, 7)
    assert (len(hub), len(full)) == (93024, 170544)
    assert is_t_intersecting(hub, 1)
    assert not is_t_intersecting(full, 1)
    assert not are_cross_intersecting(hub, full)


def _refuse(*args):
    raise AssertionError("the other side of the packed-check switch ran")


def _switch_size(n):
    """The least m with 2^n <= m(m-1)/2: from m members on, a t = 1 check
    on n <= MAX_TABLE_N points runs on the packed table."""
    return next(m for m in range(2, 1 << 14) if 1 << n <= m * (m - 1) // 2)


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 12, MAX_TABLE_N, MAX_TABLE_N + 1])
def test_packed_and_pairwise_checks_agree_at_the_switch(monkeypatch, n):
    # m - 1 and m members either side of 2^n = m(m-1)/2: sets through
    # element 1 (intersecting), the same with their last member swapped for
    # {n} or for the empty set (neither meets the member {1}), and the
    # empty set with m - 1 sets through 1.  The kernel of the other side is
    # made to fail, so a moved switch shows.
    m = _switch_size(n)
    verdicts = set()
    for size in (m - 1, m):
        through_one = [1 | r << 1 for r in range(min(size, 1 << (n - 1)))]
        cases = [
            through_one,
            through_one[:-1] + [1 << (n - 1)],
            through_one[:-1] + [0],
            [0] + through_one[: size - 1],
        ]
        for masks in cases:
            fam = family_from_masks(n, None, masks)
            packed = n <= MAX_TABLE_N and len(fam) >= m
            with monkeypatch.context() as mp:
                mp.setattr(bitfam, "_pairs_meet" if packed else "tables_meet", _refuse)
                got = is_t_intersecting(fam, 1)
            if n <= 12:
                assert got == pairwise_t_intersecting(family_as_sets(fam), 1)
            else:
                assert got == (masks is through_one)
            verdicts.add((packed, got))
    # an intersecting family on [n] has at most 2^(n-1) members
    sides = {False, True} if n <= MAX_TABLE_N else {False}
    assert {packed for packed, _ in verdicts} == sides
    if n >= 4:
        assert verdicts == {(packed, got) for packed in sides for got in (True, False)}
    # two families either side of 2^n = |A|*|B|: |B| = 2^(n - n//2) sets
    # through element 1, and 2^(n//2) - 1 or 2^(n//2) such sets in A, as
    # they are or with the last member of A or B swapped for {n} (which
    # misses the member {1} of the other), or with the empty set in A
    b_masks = [1 | r << 1 for r in range(1 << (n - n // 2))]
    verdicts = set()
    for size in ((1 << n // 2) - 1, 1 << n // 2):
        a_masks = b_masks[:size]
        cases = [
            (a_masks, b_masks),
            (a_masks[:-1] + [1 << (n - 1)], b_masks),
            (a_masks, b_masks[:-1] + [1 << (n - 1)]),
            ([0] + a_masks[1:], b_masks),
        ]
        for masks, other in cases:
            fam, cross = family_from_masks(n, None, masks), family_from_masks(n, None, other)
            packed = n <= MAX_TABLE_N and len(fam) * len(cross) >= 1 << n
            with monkeypatch.context() as mp:
                mp.setattr(bitfam, "_pairs_meet" if packed else "tables_meet", _refuse)
                got = are_cross_intersecting(fam, cross)
                assert are_cross_intersecting(cross, fam) == got
            if n <= 12:
                assert got == cross_intersecting(family_as_sets(fam), family_as_sets(cross))
            else:
                assert got == (masks is a_masks and other is b_masks)
            verdicts.add((packed, got))
    assert verdicts == {(packed, got) for packed in sides for got in (True, False)}


def test_empty_set_families_are_checked_like_the_pairwise_scan():
    for n in (1, 3, 6):
        assert is_t_intersecting(family_from_masks(n, None, [0]))  # {{}} is vacuous
        assert not is_t_intersecting(family_from_masks(n, None, [0, 1]))  # {{}, {1}}
        # {{}} plus every other subset of [n]: m(m-1)/2 >= 2^n from n = 2 on
        assert not is_t_intersecting(family_from_masks(n, None, range(1 << n)))


def _fat_family():
    """The 7- to 11-subsets of [11] on the ground set [13]: 562 members,
    pairwise meeting in at least 3 elements, so a pairwise check needs more
    than one row block."""
    masks = [m for m in range(1 << 11) if m.bit_count() >= 7]
    assert len(masks) > 257 and PAIR_BLOCK // len(masks) < len(masks)
    return masks


@pytest.mark.parametrize("t", [1, 2, 3, 4])
def test_is_t_intersecting_across_row_blocks(monkeypatch, t):
    fat = _fat_family()
    # A = {1..5, 12} and B = {6..10, 13} each meet every fat set, but not
    # each other; they are the two largest masks, so at t = 1 only the last
    # row block fails
    a = mask_from_elements([1, 2, 3, 4, 5, 12], 13)
    b = mask_from_elements([6, 7, 8, 9, 10, 13], 13)
    cases = [
        fat,
        fat + [a],
        fat + [a, b],
        fat + [0],  # the empty set meets nothing
        fat + [(1 << 13) - 1],
    ]
    # on 13 points t = 1 runs on the packed table; past MAX_TABLE_N every t
    # runs the row-block scan, which the patch makes sure of
    for n in (13, MAX_TABLE_N + 1):
        if n > MAX_TABLE_N:
            monkeypatch.setattr(bitfam, "tables_meet", _refuse)
        for masks in cases:
            fam = family_from_masks(n, None, masks)
            want = pairwise_t_intersecting(family_as_sets(fam), t)
            assert is_t_intersecting(fam, t) == want
        assert is_t_intersecting(family_from_masks(n, None, fat), t) == (t <= 3)
        assert not is_t_intersecting(family_from_masks(n, None, fat + [a, b]), t)


@given(small_families(), st.integers(0, (1 << 10) - 1), st.lists(st.integers(0, (1 << 10) - 1), max_size=24))
@settings(max_examples=150)
def test_cross_intersecting_matches_oracle(fam, salt, raw):
    other = family_from_masks(fam.n, None, [(m ^ salt) & ((1 << fam.n) - 1) for m in raw])
    want = cross_intersecting(family_as_sets(fam), family_as_sets(other))
    assert are_cross_intersecting(fam, other) == want
    assert are_cross_intersecting(other, fam) == want


def test_cross_intersecting_across_row_blocks():
    fat = _fat_family()
    # 300 sets with at least 5 elements of [11] meet every fat set; the set
    # {12} is the largest mask, so it fails only in the last row block.  On
    # 13 points the packed tables answer, past MAX_TABLE_N the pairwise scan
    partner = [m for m in range(1 << 13) if (m & 0x7FF).bit_count() >= 5][:300]
    late = 1 << 11
    for n in (13, MAX_TABLE_N + 1):
        for rows, cols, want in ((fat, partner, True), (fat + [late], partner, False)):
            a, b = family_from_masks(n, None, rows), family_from_masks(n, None, cols)
            assert cross_intersecting(family_as_sets(a), family_as_sets(b)) == want
            assert are_cross_intersecting(a, b) == are_cross_intersecting(b, a) == want


def test_stats_degrees_at_n63_with_top_bit():
    rng = np.random.default_rng(63)
    masks = rng.integers(0, 1 << 62, size=300, dtype=np.int64) | np.int64(1 << 62)
    masks[::3] &= (1 << 62) - 1  # a third without element 63
    fam = family_from_masks(63, None, masks)
    deg = degrees_by_scan(family_as_sets(fam), 63)
    st_ = stats(fam)
    assert list(st_.degrees) == [deg[e] for e in range(1, 64)]
    assert 0 < st_.degrees[62] < len(fam)


def test_cross_intersecting_examples():
    star2 = make_family(5, 2, [s for s in all_ksets(5, 2) if 1 in s])
    star3 = make_family(5, 3, [s for s in all_ksets(5, 3) if 1 in s])
    assert are_cross_intersecting(star2, star3)
    a = make_family(5, 2, [{2, 3}])
    b = make_family(5, 2, [{4, 5}])
    assert not are_cross_intersecting(a, b)
    with pytest.raises(ValueError, match="ground sets"):
        are_cross_intersecting(a, make_family(6, 2, [{1, 2}]))


def test_stats_full_star():
    fam = make_family(6, 3, [s for s in all_ksets(6, 3) if 1 in s])
    assert stats(fam).diversity == 0


def test_stats_two_of_three():
    fam = make_family(7, 3, [s for s in all_ksets(7, 3) if len(s & {1, 2, 3}) >= 2])
    st_ = stats(fam)
    assert st_.diversity == 4
    assert st_.max_degree_element == 1  # ties broken to the smallest element


def test_stats_fano():
    fam = make_family(7, 3, FANO_LINES)
    st_ = stats(fam)
    assert (st_.size, st_.max_degree, st_.diversity) == (7, 3, 4)


def test_stats_empty():
    fam = family_from_masks(5, 3, [])
    st_ = stats(fam)
    assert st_.size == 0 and st_.max_degree == 0 and st_.diversity == 0
    assert st_.max_degree_element is None


@pytest.mark.parametrize("n", [7, 9, 20, 63])
@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_stats_match_scan_oracle_at_the_small_family_switch(monkeypatch, n, offset):
    # either side of the member count where stats leaves its spread-table
    # sum for the byte histograms; n > 8 puts more than one byte in a mask
    size = bitfam.SMALL_STATS_MEMBERS + offset
    rng = random.Random(100 * n + offset)
    masks = rng.sample(range(1 << (n - 1)), size - 1) + [(1 << n) - 1]
    fam = family_from_masks(n, None, masks)
    assert len(fam) == size
    deg = degrees_by_scan(family_as_sets(fam), n)
    want = [deg[e] for e in range(1, n + 1)]
    got = stats(fam)
    assert list(got.degrees) == want
    assert got.diversity == size - max(want)
    assert got.max_degree_element == want.index(max(want)) + 1
    for switch in (0, size + 1):  # every family on one side, then the other
        monkeypatch.setattr(bitfam, "SMALL_STATS_MEMBERS", switch)
        assert stats(fam) == got


@given(small_families())
@settings(max_examples=150)
def test_stats_match_scan_oracle(fam):
    sets = family_as_sets(fam)
    st_ = stats(fam)
    deg = degrees_by_scan(sets, fam.n)
    assert list(st_.degrees) == [deg[e] for e in range(1, fam.n + 1)]
    assert st_.diversity == diversity_by_scan(sets, fam.n)


@given(small_families(), st.integers(0, (1 << 10) - 1))
@settings(max_examples=120)
def test_adding_set_never_decreases_diversity(fam, raw):
    mask = raw & ((1 << fam.n) - 1)
    if fam.k is not None:
        target = fam.k
        if bin(mask).count("1") != target:
            mask = (1 << target) - 1  # deterministic fallback of the right size
    if mask in fam or (fam.k is None and mask == 0 and len(fam) == 0):
        return
    bigger = family_from_masks(fam.n, fam.k, list(fam) + [mask])
    if len(bigger) == len(fam):
        return
    assert stats(bigger).diversity >= stats(fam).diversity


@given(small_families(), st.integers(1, 4))
@settings(max_examples=100)
def test_t_plus_one_implies_t(fam, t):
    if is_t_intersecting(fam, t + 1):
        assert is_t_intersecting(fam, t)


@given(small_families())
@settings(max_examples=100)
def test_self_cross_iff_intersecting(fam):
    # the empty set is its own disjoint partner, so the equivalence is scoped
    # to families of nonempty sets
    if 0 in fam:
        fam = family_from_masks(fam.n, fam.k, [m for m in fam if m != 0])
    assert are_cross_intersecting(fam, fam) == is_t_intersecting(fam, 1)


def test_self_cross_empty_set_edge():
    only_empty = family_from_masks(3, None, [0])
    assert is_t_intersecting(only_empty, 1)  # vacuous: no distinct pair
    assert not are_cross_intersecting(only_empty, only_empty)


@given(small_families())
@settings(max_examples=80)
def test_text_round_trip(fam):
    assert family_from_text(family_to_text(fam)) == fam


@pytest.mark.parametrize(
    "n, masks",
    [
        (1, [0, 1]),
        (8, [0, 0b1, 0b10000001, 0xFF]),
        (9, [0x100, 0x1FF, 0b10]),
        (30, [0, (1 << 29) | 1, 0xFF00, 0xFF0000]),
        (63, [1 << 62, (1 << 63) - 1, 0x0101010101010101]),
    ],
)
def test_text_writer_is_the_element_by_element_text(n, masks):
    # byte tables at each byte position, empty bytes skipped and the empty
    # set written as '-', give the text of the elements one by one
    fam = family_from_masks(n, None, masks)
    assert family_to_text(fam) == family_text_by_elements(fam)


@given(small_families())
@settings(max_examples=80)
def test_text_writer_matches_element_by_element_text(fam):
    assert family_to_text(fam) == family_text_by_elements(fam)


def test_text_format_comments_and_blanks():
    text = "# a comment\n\nn=5 k=2\n1,2\n\n# another\n2,3\n"
    fam = family_from_text(text)
    assert fam.member_sets() == [(1, 2), (2, 3)]
    assert fam.n == 5 and fam.k == 2


@pytest.mark.parametrize("header", ["n=5 k=3 x", "n=5", "n=5 k="])
def test_text_format_refuses_a_bad_header_by_name(header):
    with pytest.raises(ValueError) as exc:
        family_from_text(f"{header}\n1,2,3\n")
    assert str(exc.value) == f"bad family header: {header!r}"


def _parsed(parse, text):
    """The family a parser returns, or the type and message of its error."""
    try:
        fam = parse(text)
    except ValueError as exc:
        return type(exc), str(exc)
    return fam.n, fam.k, fam.members.tolist()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "# only a comment\n\n",
        "n=5 k=3 x\n1,2,3\n",
        "n=5\n",
        "n=5 k=\n",
        "n=x k=2\n1,2\n",
        "  n=5   k=2  # header comment\n 1 , 2 \n\n# comment\n2,3#tail\n",
        "n=5 k=-\n-\n - \n,\n , \n1,,2\n,,3,\n",
        "n=5 k=2\n1,\t2\n1, 3\n 4 ,5 \n",
        "n=5 k=2\n1,2\n2,3\n1,2\n",
        "n=5 k=2\n1,1,2\n",
        "n=5 k=2\n007,+2\n",
        "n=5 k=2\n1,6\n",
        "n=5 k=2\n1,2\n0,1\n",
        "n=5 k=2\n1,-1\n",
        "n=5 k=2\n1,2\n3,99999999999999999999999\n",
        "n=5 k=2\n1,102\n",
        "n=5 k=2\n1,2,3\n",
        "n=5 k=2\n1,2\n-\n",
        "n=5 k=9\n1,2\n",
        "n=64 k=2\n1,2\n",
        "n=64 k=2\n1,a\n",
        "n=5 k=2\n7,1\n1,a\n",
        "n=5 k=2\n1, ,2\n",
        "n=5 k=2\n1 2\n",
        "n=5 k=2\n- 1\n",
        "n=5 k=2\n1-2\n",
        "n=5 k=2\n--\n",
        "n=5 k=2\n+\n",
        "n=5 k=2\n1,2,\n",
        "n=5 k=2\n1,2",
        "\r\nn=5 k=2\r\n1,2\r\n2,3\r\n",
        "n=63 k=1\n63\n1\n",
        "n=9 k=3\n" + "".join(f"{i % 7 + 1}, {i % 5 + 2},{9 - i % 3}\n" for i in range(300)),
        "n=9 k=3\n" + "1,2,3\n" * 200 + "1,2\n" + "4,5,6\n" * 100 + "1,2,10\n",
    ],
)
@pytest.mark.parametrize("block", [bitfam._TEXT_BLOCK, 7, 1])
def test_text_parser_matches_the_line_by_line_parser(text, block, monkeypatch):
    # the same family, or the same error: int() errors come before element
    # errors, and those before cardinality errors, wherever their lines and
    # however the set lines are cut into blocks
    monkeypatch.setattr(bitfam, "_TEXT_BLOCK", block)
    assert _parsed(family_from_text, text) == _parsed(family_from_text_by_lines, text)


@given(
    st.integers(0, 8),
    st.sampled_from(["-", "0", "1", "2", "3"]),
    st.text(alphabet="0123456789,,,\n\n- \t#+x", max_size=40),
    st.sampled_from([bitfam._TEXT_BLOCK, 3]),
)
@settings(max_examples=300)
def test_text_parser_matches_the_line_by_line_parser_on_any_body(n, k, body, block):
    text = f"n={n} k={k}\n{body}"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitfam, "_TEXT_BLOCK", block)
        assert _parsed(family_from_text, text) == _parsed(family_from_text_by_lines, text)


@pytest.mark.parametrize("line", ["1_0,2", "1,\u0663", "1,2\u00a0"])
def test_text_parser_refuses_a_token_only_int_would_read(line):
    with pytest.raises(ValueError) as exc:
        family_from_text(f"n=5 k=-\n1\n{line}\n")
    assert str(exc.value) == f"bad family line: {line!r}"


def test_text_format_non_uniform():
    fam = family_from_masks(4, None, [0b1, 0b1011])
    round_tripped = family_from_text(family_to_text(fam))
    assert round_tripped == fam
    assert "k=-" in family_to_text(fam)


def test_ksubset_masks_is_combinations_order():
    for n in range(13):
        for k in range(n + 1):
            want = [sum(1 << e for e in c) for c in combinations(range(n), k)]
            assert ksubset_masks(n, k).tolist() == want, (n, k)


def test_ksubset_masks_empty_when_k_exceeds_n():
    out = ksubset_masks(4, 5)
    assert out.dtype == np.int64 and out.size == 0


def test_small_ksubset_tables_are_shared_read_only():
    small = ksubset_masks(9, 4)
    assert small is ksubset_masks(9, 4) and not small.flags.writeable
    n, k = 20, 8
    assert math.comb(n, k) > KSUBSET_CACHE_SETS
    large = ksubset_masks(n, k)
    assert large is not ksubset_masks(n, k) and large.flags.writeable
    # the full family sorts a copy of a shared table, not the table
    order = small.tolist()
    assert full_uniform_family(9, 4).members.tolist() == sorted(order)
    assert small.tolist() == order != sorted(order)


def test_ksubset_masks_cap_refused_before_allocating():
    tracemalloc.start()
    try:
        with pytest.raises(ResourceCapError):
            ksubset_masks(40, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_family_from_masks_sorts_and_dedups_like_unique():
    rng = np.random.default_rng(3)
    for size in (0, 1, 2, 50, 1000):
        masks = rng.integers(0, 1 << 10, size=size, dtype=np.int64)
        fam = family_from_masks(10, None, masks)
        assert fam.members.dtype == np.int64
        assert fam.members.tolist() == np.unique(masks).tolist()


def test_presorted_family_freezes_its_own_view_not_the_callers_array():
    a = np.array([1, 2, 4], dtype=np.int64)
    fam = family_from_masks(3, None, a, presorted=True)
    assert a.flags.writeable
    assert not fam.members.flags.writeable
    with pytest.raises(ValueError):
        fam.members[0] = 7
    assert np.shares_memory(fam.members, a)  # a view, not a copy
