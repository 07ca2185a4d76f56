import hashlib
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import booleanlab as bl
from divlab import runstat
from divlab.errors import ResourceCapError
from divlab.runstat import (
    _BLOCK,
    _exact_counts,
    _partition_table,
    _run_weights,
    in_t_table,
    mc_disagreements,
    rho_distribution,
    run_profile,
)

from oracles import (
    exact_counts_by_pairs,
    orders,
    padded_compare,
    partitions_into,
    partitions_up_to,
    run_key,
    run_profile_by_string,
    scan_words,
    tie_len_by_padding,
    word_to_string,
)


def word(bits: str) -> int:
    """Binary literal with the leftmost character at position 1."""
    return int(bits[::-1], 2)


def scan_one(mask: int, length: int) -> tuple[int, bool]:
    """Tie length and dominance flag of one word, from the vectorised scan."""
    tie, dom, _, _ = scan_words([mask], length)
    return int(tie[0]), bool(dom[0])


def long_runs_by_string(mask: int, length: int, t: int) -> int:
    """Number of maximal runs (both symbols) of length >= t, from the oracle."""
    ones, zeros = run_profile_by_string(word_to_string(mask, length))
    return sum(run >= t for run in ones + zeros)


def test_run_profile_wrap_merge():
    p = run_profile(word("1011011"), 7)
    assert p.ones == (3, 2) and p.zeros == (1, 1)
    assert p.weight == 5


def test_run_profile_constant_words():
    p = run_profile((1 << 5) - 1, 5)
    assert p.ones == (5,) and p.zeros == ()
    q = run_profile(0, 5)
    assert q.ones == () and q.zeros == (5,)


def test_run_profile_witness_word():
    p = run_profile(word("11110001000"), 11)
    assert p.ones == (4, 1) and p.zeros == (3, 3)


def test_run_profile_validation():
    with pytest.raises(ValueError):
        run_profile(0b1000, 3)  # bit outside the circle
    with pytest.raises(ValueError):
        run_profile(0, 0)


@given(st.integers(1, 16), st.integers(0, (1 << 16) - 1))
@settings(max_examples=200)
def test_run_profile_matches_string_oracle(length, raw):
    mask = raw & ((1 << length) - 1)
    ones, zeros = run_profile_by_string(word_to_string(mask, length))
    p = run_profile(mask, length)
    assert (p.ones, p.zeros) == (ones, zeros)
    assert sum(p.ones) == p.weight and sum(p.zeros) == length - p.weight


def test_scan_words_examples():
    assert scan_one(word("1100100"), 7) == (1, False)
    assert scan_one(word("11110001000"), 11) == (0, True)
    assert scan_one((1 << 7) - 1, 7) == (0, True)


def test_compare_even_length_has_no_dominance():
    p = run_profile(word("1100"), 4)
    assert p.ones == p.zeros == (2,)  # the profiles tie outright
    assert scan_one(word("1100"), 4)[0] == 1  # full tie of one run each


def test_long_run_counts_examples():
    # for a single word, the run-count sum at t is N(t), the runs >= t
    _, _, sums, _ = scan_words([word("1011011")], 7)
    assert sums[2] == 2
    assert sums[1] == 4  # every run: ones (3, 2), zeros (1, 1)
    _, _, sums, _ = scan_words([(1 << 6) - 1], 6)
    assert sums[6] == 1


@given(st.integers(1, 14), st.integers(0, (1 << 14) - 1))
@settings(max_examples=200)
def test_complement_swaps_profiles(length, raw):
    mask = raw & ((1 << length) - 1)
    comp = mask ^ ((1 << length) - 1)
    p, q = run_profile(mask, length), run_profile(comp, length)
    assert (p.ones, p.zeros) == (q.zeros, q.ones)
    (tie, dom), (comp_tie, comp_dom) = scan_one(mask, length), scan_one(comp, length)
    assert tie == comp_tie
    if length % 2 == 1:
        assert dom != comp_dom


@given(st.integers(2, 14), st.integers(0, (1 << 14) - 1), st.integers(1, 13))
@settings(max_examples=200)
def test_rotation_invariance(length, raw, shift):
    mask = raw & ((1 << length) - 1)
    s = shift % length
    rotated = ((mask >> s) | (mask << (length - s))) & ((1 << length) - 1)
    assert run_profile(mask, length).ones == run_profile(rotated, length).ones
    assert scan_one(mask, length) == scan_one(rotated, length)


@given(st.integers(1, 13), st.integers(0, (1 << 13) - 1))
@settings(max_examples=150)
def test_tie_len_matches_padding_oracle(length, raw):
    mask = raw & ((1 << length) - 1)
    ones, zeros = run_profile_by_string(word_to_string(mask, length))
    tie, dom = scan_one(mask, length)
    profile = run_profile(mask, length)
    assert tie == profile.tie == tie_len_by_padding(ones, zeros)
    if length % 2 == 1:
        assert dom == profile.ones_dominant == (padded_compare(ones, zeros) > 0)
    else:
        assert profile.ones_dominant is None


@pytest.mark.parametrize("length", [3, 5, 7, 9, 11])
def test_in_t_table_matches_scalar(length):
    table = in_t_table(length)
    for mask in range(1 << length):
        ones, zeros = run_profile_by_string(word_to_string(mask, length))
        assert bool(table[mask]) == (padded_compare(ones, zeros) > 0)
    assert int(table.sum()) == 1 << (length - 1)


def test_in_t_table_builds_each_length_once():
    assert in_t_table(9) is in_t_table(9)
    for length in range(3, 24, 2):
        in_t_table(length)
    misses = in_t_table.cache_info().misses
    bl.counterexample_table(range(2, 10))  # reads the tables of L = 5..19
    assert in_t_table.cache_info().misses == misses


def test_in_t_table_rejects_even_and_capped():
    with pytest.raises(ValueError):
        in_t_table(4)
    with pytest.raises(ResourceCapError):
        in_t_table(27)


@pytest.mark.parametrize("length", [7, 9, 11, 13])
def test_no_two_disjoint_words_both_dominant(length):
    # dominance members pair into intersecting families on every odd circle
    assert bl.is_intersecting_table(in_t_table(length).copy())


def test_scan_words_matches_scalar_on_samples():
    rng = np.random.Generator(np.random.Philox(key=5))
    for length in (6, 17, 33):
        words = rng.integers(0, 1 << length, size=64, dtype=np.uint64)
        tie, dom, sums, _ = scan_words(words, length)
        for w, t, d in zip(words.tolist(), tie.tolist(), dom.tolist()):
            ones, zeros = run_profile_by_string(word_to_string(int(w), length))
            assert tie_len_by_padding(ones, zeros) == t
            if length % 2 == 1:
                assert (padded_compare(ones, zeros) > 0) == bool(d)


def test_rho_distribution_exact_l11():
    rep = rho_distribution(11, "exact")
    assert rep.ok
    rows = rep.tables["rho_tail"]
    assert rows[0]["k"] == 0 and rows[0]["prob"] == Fraction(1)
    assert [r["k"] for r in rows] == list(range(0, 6))
    probs = [float(r["prob"]) for r in rows]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_rho_distribution_expected_runs_match_direct_enumeration():
    length = 11
    rep = rho_distribution(length, "exact")
    # independent oracle: average count over all words, one t at a time
    for t in (1, 2, 5, 11):
        total = sum(long_runs_by_string(w, length, t) for w in range(1 << length))
        row = next(r for r in rep.tables["expected_runs"] if r["t"] == t)
        assert row["expected_runs"] == Fraction(total, 1 << length)


def test_rho_distribution_expected_runs_closed_form():
    # E[#runs >= t] = L 2^-t [t < L] + 2^(1-L), for every t at L = 1..25
    for length in range(1, 26):
        rep = rho_distribution(length, "exact")
        assert rep.ok  # dominant_count among its checks at odd length
        checks = [a for a in rep.assertions if a.name == "expected_runs_closed_form_mismatches"]
        assert [a.passed for a in checks] == [True]
        for row in rep.tables["expected_runs"]:
            t = row["t"]
            want = Fraction(length, 2**t) * (t < length) + Fraction(2, 2**length)
            assert row["expected_runs"] == want


def test_rho_distribution_mc_deterministic():
    a = rho_distribution(13, "mc", samples=20000, seed=9)
    b = rho_distribution(13, "mc", samples=20000, seed=9)
    assert a.tables == b.tables
    c = rho_distribution(13, "mc", samples=20000, seed=10)
    assert c.tables != a.tables


def test_rho_distribution_mc_close_to_exact():
    length, samples, seed = 15, 10**5, 3
    exact = rho_distribution(length, "exact")
    mc = rho_distribution(length, "mc", samples=samples, seed=seed)
    for re_, rm in zip(exact.tables["rho_tail"], mc.tables["rho_tail"]):
        p = float(re_["prob"])
        se = (p * (1 - p) / samples) ** 0.5
        if se == 0:
            assert rm["prob"] == p
        else:
            assert abs(rm["prob"] - p) <= 3.5 * se


def test_mc_disagreements_pass_every_seed_and_name_a_shifted_cell():
    """Criterion 09's quick size (L = 11, 10^5 words): no seed of 1..30 is
    rejected, and a cell moved by 7 standard errors is."""
    exact = rho_distribution(11, "exact")
    for seed in range(1, 31):
        mc = rho_distribution(11, "mc", samples=10**5, seed=seed)
        assert mc_disagreements(exact, mc) == [], seed
    p = float(exact.tables["rho_tail"][1]["prob"])
    tail = mc.tables["rho_tail"][1]
    mc.tables["rho_tail"][1] = {**tail, "prob": p - 7 * math.sqrt(p * (1 - p) / 10**5)}
    mean = float(exact.tables["expected_runs"][2]["expected_runs"])
    row = mc.tables["expected_runs"][2]
    mc.tables["expected_runs"][2] = {**row, "expected_runs": mean + 7 * row["stderr"]}
    assert [cell["cell"] for cell in mc_disagreements(exact, mc)] == ["tail_k=1", "runs_t=3"]


def test_rho_distribution_caps_and_validation():
    with pytest.raises(ResourceCapError):
        rho_distribution(26, "exact")
    with pytest.raises(ValueError):
        rho_distribution(11, "mc")  # samples missing
    with pytest.raises(ValueError):
        rho_distribution(11, "bogus")


@pytest.mark.parametrize("unread", [{"samples": 5}, {"seed": 3}, {"samples": 5, "seed": 3}])
def test_exact_rho_refuses_the_samples_and_seed_it_does_not_read(unread):
    with pytest.raises(ValueError, match="exact mode reads no samples or seed"):
        rho_distribution(9, "exact", **unread)


@pytest.mark.parametrize("length", range(1, 21))
def test_exact_scan_matches_full_word_scan(length):
    # the counts from run-partition pairs against a scan of every word,
    # even lengths, with their full ties, included
    hist, sums, dominant = _exact_counts(length)
    tie, dom, full_sums, _ = scan_words(np.arange(1 << length), length)
    assert hist.dtype == sums.dtype == np.int64
    assert np.array_equal(hist, np.bincount(tie, minlength=hist.size))
    assert np.array_equal(sums, full_sums)
    assert dominant == np.count_nonzero(dom)


@pytest.mark.parametrize("length", range(1, 13))
def test_words_per_run_partition_pair(length):
    # every word that is not constant, tallied by its run profile, against
    # length * o(U) * o(Z) / m for each pair of partitions into m parts
    tally = Counter()
    for w in range(1, (1 << length) - 1):
        p = run_profile(w, length)
        tally[p.ones, p.zeros] += 1
    want = {}
    for weight in range(1, length):
        for m in range(1, min(weight, length - weight) + 1):
            for u in partitions_into(weight, m, weight):
                for z in partitions_into(length - weight, m, length - weight):
                    want[u, z] = Fraction(length * orders(u) * orders(z), m)
    assert tally == want


@pytest.mark.parametrize("length", range(1, 26))
def test_exact_counts_match_the_pair_walk(length):
    # the partition table and the closed-form run sums against a walk of
    # every partition pair that counts each pair's runs, up to the cap
    hist, sums, dominant = _exact_counts(length)
    assert (hist.tolist(), sums.tolist(), dominant) == exact_counts_by_pairs(length)


def test_partition_table_holds_every_partition_with_its_orders():
    # at length 48 the table reaches every m <= n for n <= 24; each entry
    # against the partitions enumerated by largest part, their orders and
    # their count of ones
    table = _partition_table(48)
    want = {}
    for parts in partitions_up_to(24):
        want.setdefault((sum(parts), len(parts)), {})[parts] = (orders(parts), parts.count(1))
    got = {
        (n, m): {u: (o, c) for u, o, c in table[n][m]}
        for n in range(25)
        for m in range(n + 1)
    }
    assert all(len(table[n][m]) == len(got[n, m]) for n, m in got)  # no repeats
    assert got == {(n, m): want.get((n, m), {}) for n in range(25) for m in range(n + 1)}
    assert [len(row) for row in table] == [min(n, 48 - n) + 1 for n in range(48)]


@pytest.mark.parametrize("length", range(1, 18, 2))
def test_in_t_table_matches_full_word_scan(length):
    _, dom, _, _ = scan_words(np.arange(1 << length), length)
    assert np.array_equal(in_t_table(length), dom)


@pytest.mark.parametrize("length", [19, 21, 23])
def test_in_t_table_matches_odd_word_scan_with_high_bits(length):
    # from L = 19 the odd words span several blocks of high bits, each joined
    # to the low key tables; against a full scan of the odd words below
    # 2^(L-1), an even word taking the flag of its odd part (a rotation of
    # it) and the upper half the flipped flag of the complement
    half = 1 << (length - 1)
    odd = np.arange(1, half, 2, dtype=np.uint32)
    flags = np.zeros(half, dtype=bool)
    flags[odd] = scan_words(odd, length)[1]
    words = np.arange(1, half)
    flags[1:] = flags[words // (words & -words)]
    assert np.array_equal(in_t_table(length), np.concatenate([flags, ~flags[::-1]]))


def test_in_t_table_digest_up_to_the_cap():
    # the digest of the tables that longest runs and a scan of the tied
    # words built, an independent method
    digest = hashlib.sha256()
    for length in range(1, 26, 2):
        digest.update(np.packbits(in_t_table(length)).tobytes())
    assert digest.hexdigest() == (
        "89c8b12de5c4b8f24744d535d501c1e22ec335948ee728815d075f9cd4e85b82"
    )


@pytest.mark.parametrize("length", range(1, 26))
def test_run_weights_by_partitions(length):
    # W[p] = 1 + the largest sum of W over the partitions into parts below p
    # of every total up to L - p, by enumeration rather than the knapsack
    weights = _run_weights(length)
    best = [0] * (length + 1)
    for parts in partitions_up_to(length - 1):
        value = sum(weights[q] for q in parts)
        for p in range(max(parts, default=0) + 1, length - sum(parts) + 1):
            best[p] = max(best[p], value)
    assert weights == [0] + [1 + best[p] for p in range(1, length + 1)]


@given(st.integers(1, 63), st.data())
@settings(max_examples=300)
def test_run_key_sign_is_the_profile_comparison(length, data):
    # odd lengths never tie; at even lengths a full tie has key 0
    mask = data.draw(st.integers(0, (1 << length) - 1))
    profile = run_profile(mask, length)
    key = run_key(profile.ones, profile.zeros, _run_weights(length))
    assert (key > 0) - (key < 0) == padded_compare(profile.ones, profile.zeros)


@pytest.mark.parametrize("length", [2, 3, 6, 17, 25, 33, 63])
def test_scan_words_matches_scalar_per_word_and_in_sums(length):
    rng = np.random.Generator(np.random.Philox(key=length))
    full = (1 << length) - 1
    alternating = int("01" * 32, 2) & full
    special = [0, full, alternating, alternating ^ full]
    words = np.concatenate(
        [np.array(special, dtype=np.uint64), rng.integers(0, 1 << length, size=40, dtype=np.uint64)]
    )
    tie, dom, sums, sumsq = scan_words(words, length)
    for w, t, d in zip(words.tolist(), tie.tolist(), dom.tolist()):
        ones, zeros = run_profile_by_string(word_to_string(w, length))
        assert tie_len_by_padding(ones, zeros) == t
        if length % 2 == 1:
            assert (padded_compare(ones, zeros) > 0) == d
    for t in range(1, length + 1):
        counts = [long_runs_by_string(w, length, t) for w in words.tolist()]
        assert sums[t] == sum(counts)
        assert sumsq[t] == sum(c * c for c in counts)


def test_scan_words_across_block_boundaries_matches_scalar():
    # every word of length 7, the constant ones included, tiled over three
    # blocks and a partial fourth; constant words never empty their
    # accumulators, so they stay in the scan to its last step
    length = 7
    words = np.resize(np.arange(1 << length), 3 * _BLOCK + 5)
    tie, dom, sums, sumsq = scan_words(words, length)
    per_word = []
    for w in range(1 << length):
        ones, zeros = run_profile_by_string(word_to_string(w, length))
        per_word.append((tie_len_by_padding(ones, zeros), padded_compare(ones, zeros) > 0))
    want_tie, want_dom = (np.array(col) for col in zip(*per_word))
    assert np.array_equal(tie, want_tie[words])
    assert np.array_equal(dom, want_dom[words])
    copies = np.bincount(words, minlength=1 << length)
    for t in range(1, length + 1):
        counts = np.array([long_runs_by_string(w, length, t) for w in range(1 << length)])
        assert sums[t] == int(copies @ counts)
        assert sumsq[t] == int(copies @ counts**2)


def test_scan_words_on_no_words():
    tie, dom, sums, sumsq = scan_words(np.array([], dtype=np.int64), 9)
    assert tie.size == 0 and dom.size == 0
    assert np.array_equal(sums, np.zeros(10)) and np.array_equal(sumsq, np.zeros(10))


def test_scan_words_rejects_words_outside_the_length():
    with pytest.raises(ValueError):
        scan_words(np.array([-1]), 5)
    with pytest.raises(ValueError):
        scan_words(np.array([0b101011]), 5)


@pytest.mark.parametrize("length", [1, 2, 13, 25, 31, 63])
@pytest.mark.parametrize("samples", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_streamed_mc_matches_one_draw_through_the_oracle_scan(length, samples):
    # the blocks continue one generator stream, so the report equals that of
    # the same words drawn in one call and scanned word by word
    seed = length + samples
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = rng.integers(0, 1 << length, size=samples, dtype=np.uint64)
    tie, _, sums, sumsq = scan_words(words, length)
    tail = np.cumsum(np.bincount(tie, minlength=length // 2 + 2)[::-1])[::-1]
    rep = rho_distribution(length, "mc", samples=samples, seed=seed)
    want_tail = []
    for k in range(length // 2 + 1):
        p = tail[k] / samples
        want_tail.append({"k": k, "prob": p, "stderr": math.sqrt(max(p * (1 - p), 0.0) / samples)})
    assert rep.tables["rho_tail"] == want_tail
    want_runs = []
    for t in range(1, length + 1):
        mean = sums[t] / samples
        var = max(sumsq[t] / samples - mean * mean, 0.0)
        want_runs.append({"t": t, "expected_runs": mean, "stderr": math.sqrt(var / samples)})
    assert rep.tables["expected_runs"] == want_runs
    assert rep.notes == []


def test_mc_memory_is_a_block_and_one_pooled_block_whatever_the_sample_count():
    tracemalloc.start()
    try:
        rho_distribution(25, "mc", samples=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def one_draw_tables(length, samples, seed):
    """The mc report's tables for the words of one draw, scanned by the oracle."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    words = rng.integers(0, 1 << length, size=samples, dtype=np.uint64)
    tie, _, sums, sumsq = scan_words(words, length)
    tail = np.cumsum(np.bincount(tie, minlength=length // 2 + 2)[::-1])[::-1]
    rho_tail = []
    for k in range(length // 2 + 1):
        p = tail[k] / samples
        rho_tail.append({"k": k, "prob": p, "stderr": math.sqrt(max(p * (1 - p), 0.0) / samples)})
    runs = []
    for t in range(1, length + 1):
        mean = sums[t] / samples
        var = max(sumsq[t] / samples - mean * mean, 0.0)
        runs.append({"t": t, "expected_runs": mean, "stderr": math.sqrt(var / samples)})
    return {"rho_tail": rho_tail, "expected_runs": runs}


@pytest.fixture
def pool_fills(monkeypatch):
    """The pooled word counts that each scan of the pool starts from."""
    fills = []
    finish = runstat._RunScan.finish

    def spy(self):
        fills.append(self.fill)
        finish(self)

    monkeypatch.setattr(runstat._RunScan, "finish", spy)
    return fills


@pytest.mark.parametrize("length", [13, 25, 63])
def test_small_blocks_flush_the_pool_mid_stream_and_match_the_oracle(
    monkeypatch, pool_fills, length
):
    monkeypatch.setattr(runstat, "_BLOCK", 64)
    samples, seed = 64 * 300 + 17, length
    rep = rho_distribution(length, "mc", samples=samples, seed=seed)
    assert {name: rep.tables[name] for name in ("rho_tail", "expected_runs")} == one_draw_tables(
        length, samples, seed
    )
    assert len(pool_fills) > 10 and max(pool_fills) <= 64


def test_a_sample_ending_with_a_pooled_tail_matches_the_oracle(pool_fills):
    samples = 5 * _BLOCK + 321
    rep = rho_distribution(25, "mc", samples=samples, seed=3)
    assert {name: rep.tables[name] for name in ("rho_tail", "expected_runs")} == one_draw_tables(
        25, samples, 3
    )
    # at L = 25 about 9 % of a block is pooled, so five blocks and a part
    # fit in the pool and are scanned once, at the end
    assert len(pool_fills) == 1 and 0 < pool_fills[0] <= _BLOCK


@pytest.mark.parametrize("length", [1, 3, 5])
def test_words_that_never_reach_the_pool_match_the_oracle(pool_fills, length):
    # at L = 1 every word is constant; at L = 3 and 5 more than an eighth of
    # a block is live after each step but its last, so no word is pooled
    samples = 2 * _BLOCK + 9
    rep = rho_distribution(length, "mc", samples=samples, seed=length)
    assert {name: rep.tables[name] for name in ("rho_tail", "expected_runs")} == one_draw_tables(
        length, samples, length
    )
    assert pool_fills == [0]
