import hashlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import shiftlex
from divlab.bitfam import family_from_masks, is_t_intersecting, make_family, stats
from divlab.constructions import fano_plane, star
from divlab.randfam import random_intersecting_family
from divlab.shiftlex import (
    CUBE_N,
    is_shifted,
    lex_partner_maxima,
    lex_segment,
    shift_closure,
    shift_family,
)

from conftest import small_families, small_intersecting_families
from oracles import (
    family_as_sets,
    is_shifted_by_pairs,
    lex_sorted_ksets,
    shift_closure_by_restart,
)


def test_shift_set_cases():
    one = lambda s: make_family(3, 2, [s])
    assert shift_family(one({2, 3}), 1, 2) == one({1, 3})
    assert shift_family(one({1, 3}), 1, 2) == one({1, 3})  # j absent: fixed
    assert shift_family(one({1, 2}), 1, 2) == one({1, 2})  # i present: fixed


def test_shift_family_moves_free_image():
    fam = make_family(3, 2, [{2, 3}])
    assert shift_family(fam, 1, 2) == make_family(3, 2, [{1, 3}])


def test_shift_family_keeps_blocked_image():
    fam = make_family(3, 2, [{1, 3}, {2, 3}])
    assert shift_family(fam, 1, 2) == fam  # image {1,3} already present


def test_shift_family_fano():
    out = shift_family(fano_plane(), 1, 2)
    assert len(out) == 7
    assert is_t_intersecting(out, 1)


def test_shift_family_rejects_bad_pair():
    with pytest.raises(ValueError):
        shift_family(fano_plane(), 2, 2)
    with pytest.raises(ValueError):
        shift_family(fano_plane(), 3, 1)


def test_shift_closure_single_pair():
    assert shift_closure(make_family(3, 2, [{2, 3}])) == make_family(3, 2, [{1, 2}])


def test_shift_closure_star_fixed():
    fam = star(6, 3)
    assert shift_closure(fam) == fam
    assert is_shifted(fam)


def test_is_shifted_negative():
    assert not is_shifted(make_family(3, 2, [{2, 3}]))


@given(small_intersecting_families())
@settings(max_examples=60, deadline=None)
def test_shift_closure_properties(fam):
    closed = shift_closure(fam)
    assert set(family_as_sets(closed)) == shift_closure_by_restart(family_as_sets(fam), fam.n)
    assert len(closed) == len(fam)
    assert closed.k == fam.k
    assert is_shifted(closed)
    assert is_t_intersecting(closed, 1)
    st_ = stats(closed)
    # for a shifted family element 1 attains the maximum degree
    assert st_.degrees[0] == st_.max_degree if len(closed) else True
    avoiding = family_from_masks(
        closed.n, closed.k, [m for m in closed if not m & 1]
    )
    assert is_t_intersecting(avoiding, 2)


def test_shift_closure_equals_restart_loop_on_seeded_batch():
    # uniform intersecting, uniform arbitrary and non-uniform families, n <= 10
    rng = random.Random(1709)
    families = []
    for _ in range(40):
        n = rng.randint(3, 10)
        k = rng.randint(1, n // 2)
        if n >= 2 * k and k >= 2:
            families.append(random_intersecting_family(n, k, rng))
        uniform = [m for m in range(1 << n) if m.bit_count() == k]
        families.append(family_from_masks(n, k, rng.sample(uniform, min(len(uniform), 30))))
        families.append(family_from_masks(n, None, rng.sample(range(1 << n), min(1 << n, 30))))
    assert any(not is_t_intersecting(f, 1) for f in families)
    for fam in families:
        want = shift_closure_by_restart(family_as_sets(fam), fam.n)
        assert set(family_as_sets(shift_closure(fam))) == want


@given(small_families(), st.booleans())
@settings(max_examples=200, deadline=None)
def test_is_shifted_matches_all_pairs_oracle(fam, close):
    # uniform and non-uniform families on n <= 10; half of them are first
    # replaced by their shift closure, so both answers are drawn often
    if close:
        closed = shift_closure_by_restart(family_as_sets(fam), fam.n)
        fam = make_family(fam.n, fam.k, closed)
    assert is_shifted(fam) == is_shifted_by_pairs(family_as_sets(fam), fam.n)


@pytest.mark.parametrize("n", range(1, CUBE_N + 1))
def test_cube_element_masks_hold_the_sets_through_each_element(n):
    # bit m of entry b is set iff bit b of m is, read off the points in order
    points = np.arange(1 << n)
    holds = shiftlex._cube_elements(n)
    assert len(holds) == n
    for b, mask in enumerate(holds):
        bits = np.packbits((points >> b) & 1, bitorder="little")
        assert mask == int.from_bytes(bits.tobytes(), "little")


def _refuse(*args):
    raise AssertionError("the other side of the cube switch ran")


@pytest.mark.parametrize("n", [1, 2, CUBE_N, CUBE_N + 1])
def test_cube_and_array_shifts_match_the_oracles_at_the_switch(monkeypatch, n):
    # n <= CUBE_N shifts on the cube, n > CUBE_N on the mask array; the
    # kernel of the other side is made to fail, so a moved switch shows
    if n <= CUBE_N:
        monkeypatch.setattr(shiftlex, "_shift", _refuse)
    else:
        monkeypatch.setattr(shiftlex, "_cube_elements", _refuse)
    rng = random.Random(n)
    # the empty family, {{}}, a star, {{n}} (shifted only at n = 1) and
    # random uniform and non-uniform families
    families = [family_from_masks(n, None, []), family_from_masks(n, None, [0]), star(n, 1)]
    families.append(family_from_masks(n, 1, [1 << (n - 1)]))
    for _ in range(6):
        families.append(family_from_masks(n, None, [rng.randrange(1 << n) for _ in range(12)]))
        k = rng.randint(1, n)
        masks = [sum(1 << e for e in rng.sample(range(n), k)) for _ in range(12)]
        families.append(family_from_masks(n, k, masks))
    verdicts = set()
    for fam in families:
        want = shift_closure_by_restart(family_as_sets(fam), n)
        closed = shift_closure(fam)
        assert set(family_as_sets(closed)) == want
        assert closed == family_from_masks(n, fam.k, closed.members)
        for f in (fam, closed):
            verdict = is_shifted(f)
            assert verdict == is_shifted_by_pairs(family_as_sets(f), n)
            verdicts.add(verdict)
    assert verdicts == ({True} if n == 1 else {True, False})


def test_is_shifted_across_member_blocks():
    # on the mask array (n > CUBE_N): the sets of at most 5 elements of
    # [15], and the same without X = {10, 12, ..., 15}; the one member that
    # the (10, 11)-shift sends to X is {11, ..., 15}
    n = CUBE_N + 1
    x, y = 0b111101 << 9, 0b11111 << 10
    small = [m for m in range(1 << n) if m.bit_count() <= 5]
    whole = family_from_masks(n, None, small)
    holed = family_from_masks(n, None, [m for m in small if m != x])
    assert y in holed and x not in holed
    for fam, want in ((whole, True), (holed, False)):
        assert is_shifted_by_pairs(family_as_sets(fam), n) is want
        assert is_shifted(fam) is want


def _digest(families):
    h = hashlib.sha256()
    for f in families:
        h.update(f"{f.n} {f.k} {f.members.dtype.str} {f.members.tolist()}\n".encode())
    return h.hexdigest()


def test_shift_closure_output_identity_on_criterion_12_batch():
    # the 200 random (10, 4) families of criterion 12 (seed 1202); the digest
    # of n, k, dtype and members was recorded from the closure that built a
    # validated Family after every shift, so the array-level sweep must
    # reproduce it bit for bit
    rng = random.Random(1202)
    families = [random_intersecting_family(10, 4, rng) for _ in range(200)]
    closures = [shift_closure(f) for f in families]
    assert _digest(closures) == "393ffac64e7975d68f3dad63ca17521e50ea49dbd66ae6b6951b80e8d573bac3"
    for fam, closed in zip(families, closures):
        assert closed == family_from_masks(fam.n, fam.k, closed.members)
        assert not closed.members.flags.writeable


@given(small_intersecting_families(), st.integers(1, 8), st.integers(2, 9))
@settings(max_examples=80, deadline=None)
def test_shift_preserves_size_and_intersecting(fam, i, j):
    if not (1 <= i < j <= fam.n):
        return
    out = shift_family(fam, i, j)
    assert len(out) == len(fam)
    assert out.k == fam.k
    assert is_t_intersecting(out, 1)


@pytest.mark.parametrize("n,k", [(5, 2), (6, 3), (7, 3)])
def test_lex_segment_star_prefix(n, k):
    seg = lex_segment(math.comb(n - 1, k - 1), k, n)
    assert seg == star(n, k)


def test_lex_segment_all_contain_leading_pair():
    seg = lex_segment(8, 3, 10)
    assert all({1, 2} <= set(s) for s in seg.member_sets())
    assert len(seg) == 8


def test_lex_segment_matches_sorted_oracle():
    seg = lex_segment(6, 3, 6)
    assert [set(s) for s in sorted(seg.member_sets())] == sorted(
        [set(s) for s in lex_sorted_ksets(6, 3)[:6]]
    )


def test_lex_segment_edges():
    assert len(lex_segment(0, 3, 7)) == 0
    with pytest.raises(ValueError):
        lex_segment(36, 3, 7)  # beyond C(7,3)
    # a short prefix of C(40,20) sets, far above the enumeration cap
    head = tuple(range(1, 20))
    assert lex_segment(2, 20, 40).member_sets() == [head + (20,), head + (21,)]


def test_lex_segment_ones_form_prefix():
    seg = lex_segment(30, 3, 8)
    ordered = sorted(seg.member_sets())  # tuple order = lex order
    flags = [1 in set(s) for s in ordered]
    assert flags == sorted(flags, reverse=True)


def test_lex_partner_max_example():
    assert lex_partner_maxima(8, 2, 3, 10)[-1] == 17  # pairs through 1 or 2


def test_lex_partner_max_vacuous():
    assert lex_partner_maxima(0, 2, 3, 10)[-1] == math.comb(10, 2)


def test_lex_partner_max_full_partner():
    # with every b-set present and a+b <= m no a-set can meet them all
    assert lex_partner_maxima(math.comb(7, 3), 2, 3, 7)[-1] == 0


def test_lex_partner_max_is_prefix_scan():
    # the result is the longest valid prefix: prefix members all meet the
    # partner segment, and the next one fails; checked over m <= 8, every
    # a and b, and partner sizes from empty to all b-sets
    for m in range(1, 9):
        for a in range(1, m + 1):
            a_sets = lex_sorted_ksets(m, a)
            for b in range(1, m + 1):
                cb = math.comb(m, b)
                for b_size in sorted({0, 1, 2, 5, cb // 2, cb - 1, cb} & set(range(cb + 1))):
                    count = lex_partner_maxima(b_size, a, b, m)[-1]
                    b_sets = lex_sorted_ksets(m, b)[:b_size]
                    assert all(s & t for s in a_sets[:count] for t in b_sets)
                    assert count == len(a_sets) or any(not (a_sets[count] & t) for t in b_sets)


def test_lex_partner_max_rejects_oversize():
    with pytest.raises(ValueError):
        lex_partner_maxima(math.comb(10, 3) + 1, 2, 3, 10)
