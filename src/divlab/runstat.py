"""Cyclic run-length statistics of binary words.

A word of length L lives on a circle: position i is bit i-1 and position L
wraps to position 1.  The run profile of a word is the pair of descending
run-length sequences (ones-runs, zeros-runs).  The profile comparison rule
(ones-profile lexicographically beats zeros-profile, with zero padding for
unequal lengths) defines the run-dominance junta families; the tie-length
statistic measures how many leading run lengths the two profiles share.
Sampled words go through a vectorized scan, drawn and scanned one block at
a time, with the long-run tails of many blocks pooled and scanned together,
so Monte Carlo memory is a block plus at most one block of pooled
survivors whatever the sample count: the count sets only the time.  The
exact statistics over all 2^L words depend only on the run multisets, so
they are counted from partitions and compositions, with no word enumerated.

The run-dominance table (``in_t_table``) decides each word by the sign of
one integer key, sum W[len] over ones-runs minus sum W[len] over zeros-runs.
Each W[p] exceeds any sum of W over runs shorter than p of total length at
most L - p, so the largest length whose run counts differ decides the sign.
Every length built is kept, read-only, for the life of the process: the
13 odd lengths up to 25 hold 2^1 + 2^3 + ... + 2^25 bytes, about 44.7 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import groupby
from typing import Optional

import numpy as np

from .bitfam import MAX_GROUND, MAX_TABLE_N
from .errors import ResourceCapError
from .report import Report

EXACT_CAP_L = 25  # a time cap: _exact_counts(25) takes about 7 ms on one Xeon core
# A Monte Carlo cell is compared with its exact value where the sample expects
# at least this many hits (and, for a probability, this many misses), at this
# many standard errors: a false alarm is about 2e-9 a cell.
MC_MIN_HITS = 100
MC_TOLERANCE_SE = 6.0
# words per Monte Carlo block: its state arrays stay in cache, and no array
# holds more than one block, so memory does not grow with the sample count
_BLOCK = 1 << 16
# A block is scanned whole while more than this share of its words is live,
# and its live words are then pooled: at L = 25, 9.3 % of the words are live
# after step 7.  Shares from 1/16 to 1/4 took the same time at L = 13, 25
# and 63 on one Xeon core; 3/4 took about a third longer at L = 25.
_POOL_SHARE = 1 / 8


@dataclass(frozen=True)
class RunProfile:
    """Descending cyclic run lengths of a binary word."""

    ones: tuple[int, ...]
    zeros: tuple[int, ...]
    length: int
    weight: int

    @property
    def tie(self) -> int:
        """How many leading run lengths the zero-padded profiles share."""
        return _tie(self.ones, self.zeros)

    @property
    def ones_dominant(self) -> Optional[bool]:
        """Whether the ones-profile wins, None at even length (a full tie is
        possible there); positive descending tuples compare as padded ones do."""
        return None if self.length % 2 == 0 else self.ones > self.zeros


def _tie(ones: tuple[int, ...], zeros: tuple[int, ...]) -> int:
    """The first index where the zero-padded profiles differ, or len(ones) on
    a full tie; a positive length differs from the padding."""
    for i, (u, z) in enumerate(zip(ones, zeros)):
        if u != z:
            return i
    return min(len(ones), len(zeros))


def _check_word(word: int, length: int) -> None:
    if not 1 <= length <= MAX_GROUND:
        raise ValueError(f"word length {length} outside [1, {MAX_GROUND}]")
    if word < 0 or word >> length:
        raise ValueError(f"word {word:#x} has bits outside its length {length}")


def run_profile(word: int, length: int) -> RunProfile:
    """Cyclic maximal runs, sorted descending: the bits are grouped from a
    point where the bit changes (any point of a constant word)."""
    _check_word(word, length)
    bits = [(word >> i) & 1 for i in range(length)]
    start = next((i for i in range(length) if bits[i - 1] != bits[i]), 0)
    runs: tuple[list[int], list[int]] = ([], [])
    for bit, group in groupby(bits[start:] + bits[:start]):
        runs[bit].append(len(list(group)))
    return RunProfile(
        ones=tuple(sorted(runs[1], reverse=True)),
        zeros=tuple(sorted(runs[0], reverse=True)),
        length=length,
        weight=word.bit_count(),
    )


# ---------------------------------------------------------------------------
# Vectorized scan over arrays of words
# ---------------------------------------------------------------------------


class _RunScan:
    """Tie-length histogram and run-count sums over a stream of word blocks.

    ``tie_hist`` is over 0..length//2 + 1, ``nrun_sums[t]`` the sum over
    words of N(t) = number of maximal runs of length >= t, and
    ``nrun_sumsq[t]`` the sum of N(t)^2.  ``add`` scans one block and
    ``finish`` what is left in the pool.  The totals are integer sums over
    words, so they do not depend on the order the words are scanned in.

    After step t, bit p of acc1 (acc0) is set iff positions p..p+t all hold
    a 1 (a 0).  A run of length r >= t holds r - t + 1 windows of length t
    and r - t of length t + 1, so step t counts the ones-runs of length >= t
    as nu = popcount(acc1) before minus after; likewise nz for zeros.  nu and
    nz only fall as t grows, so the last t where they differ fixes the tie,
    min(nu, nz); a full tie (even length only) keeps tie nu(1).

    A constant word is one run of length ``length``, with tie 0, so it adds
    1 to every N(t).  These are the words with nu(1) = 0: they are counted
    in closed form and dropped after step 1.  Every other word's runs are
    shorter than ``length``.  A word whose runs are used up (acc1 | acc0 ==
    0) has nu = nz = 0 at every larger t: it adds nothing more and its tie
    is final.  No word is live after step length - 1, so a scan ends when
    none is.

    A block is scanned whole while more than _POOL_SHARE of its words is
    live.  Its finished words are then counted into the histogram and its
    live words join a pool of at most _BLOCK words at one step, so the long
    tail of many blocks pays the fixed cost of a step once.  The pool is
    scanned to the end when the next block's survivors do not fit or stand
    at another step, and by ``finish``, dropping its finished words each
    time a quarter of those left are done.
    """

    def __init__(self, length: int, dtype) -> None:
        self.length = length
        self.tie_hist = np.zeros(length // 2 + 2, dtype=np.int64)
        self.nrun_sums = np.zeros(length + 1, dtype=np.int64)
        self.nrun_sumsq = np.zeros(length + 1, dtype=np.int64)
        # rot1, acc1, acc0, cnt1, cnt0 and tie of the pooled words
        self.pool = [np.empty(_BLOCK, dtype=d) for d in (dtype,) * 3 + (np.uint8,) * 3]
        self.fill = self.step = 0

    def add(self, words: np.ndarray) -> None:
        """Scan a block of at most _BLOCK words, pooling its long-run tail."""
        state, t = self._steps(self._first_step(words), 1, int(words.size * _POOL_SHARE))
        size = state[0].size
        if not size:
            return
        if self.fill and (self.step != t or self.fill + size > _BLOCK):
            self.finish()
        for buf, part in zip(self.pool, state):
            buf[self.fill : self.fill + size] = part
        self.fill += size
        self.step = t

    def finish(self) -> None:
        """Scan the pooled words to the end and empty the pool."""
        state, t = tuple(buf[: self.fill] for buf in self.pool), self.step
        while state[0].size:
            state, t = self._steps(state, t, 3 * state[0].size // 4)
        self.fill = 0

    def _first_step(self, words: np.ndarray):
        """Step 1 of a block, where nu = nz (the runs of the two bits
        alternate round the circle) is the tie: the scan state of the words
        that are not constant."""
        dt = words.dtype.type
        one, high, full = dt(1), dt(self.length - 1), dt((1 << self.length) - 1)
        rot1 = (words >> one) | ((words & one) << high)
        acc1, acc0 = words & rot1, ~(words | rot1) & full
        cnt1, cnt0 = np.bitwise_count(acc1), np.bitwise_count(acc0)
        nu = np.bitwise_count(words) - cnt1
        self._add_counts(1, nu, nu)
        state = (rot1, acc1, acc0, cnt1, cnt0, nu)
        constant = words.size - np.count_nonzero(nu)
        if constant:
            self.tie_hist[0] += constant
            self.nrun_sums[1:] += constant
            self.nrun_sumsq[1:] += constant
            keep = np.flatnonzero(nu)
            state = tuple(a[keep] for a in state)
        return state

    def _add_counts(self, t: int, nu: np.ndarray, nz: np.ndarray) -> None:
        # N(t) <= length <= 63, so N(t)^2 fits in 16 bits, and an array holds
        # at most _BLOCK = 2^16 words, so its sum fits in 32
        both = np.add(nu, nz, dtype=np.uint16)
        self.nrun_sums[t] += int(both.sum(dtype=np.uint32))
        both *= both
        self.nrun_sumsq[t] += int(both.sum(dtype=np.uint32))

    def _steps(self, state, t: int, until: int):
        """Scan steps t + 1, t + 2, ... of the words in ``state`` until at
        most ``until`` of them are live; count the finished words' ties and
        return the live words' state and the last step."""
        rot1, acc1, acc0, cnt1, cnt0, tie = state
        if not rot1.size:
            return state, t
        dt = rot1.dtype.type
        one, high = dt(1), dt(self.length - 1)
        spare = np.empty_like(rot1)
        while True:
            t += 1
            np.bitwise_and(rot1, one, out=spare)
            spare <<= high
            rot1 >>= one
            rot1 |= spare
            acc1 &= rot1
            acc0 &= np.invert(rot1, out=spare)
            nu, cnt1 = cnt1, np.bitwise_count(acc1)
            nz, cnt0 = cnt0, np.bitwise_count(acc0)
            nu -= cnt1
            nz -= cnt0
            self._add_counts(t, nu, nz)
            # where nu != nz: tie = min(nu, nz); arithmetic (exact mod 256) is
            # several times faster than a masked copy
            low = np.minimum(nu, nz)
            tie = low + (tie - low) * (nu == nz)
            live = np.logical_or(cnt1, cnt0)
            if np.count_nonzero(live) <= until:
                break
        # the finished words' ties: all words' less the live words'
        self.tie_hist += np.bincount(tie, minlength=self.tie_hist.size)
        keep = np.flatnonzero(live)
        state = tuple(a[keep] for a in (rot1, acc1, acc0, cnt1, cnt0, tie))
        self.tie_hist -= np.bincount(state[-1], minlength=self.tie_hist.size)
        return state, t


def _partition_table(length: int) -> list:
    """Entry [n][m] lists the partitions of n < length into exactly
    m <= min(n, length - n) parts as (descending parts, orders, ones), with
    orders m! / prod(multiplicity!) and ones the count of parts 1.  Each is
    one of n - 1 into m - 1 parts with a 1 appended, which multiplies the
    orders by m / (ones + 1), or one of n - m into m parts with every part
    raised by 1, which keeps them."""
    table = [[[] for _ in range(min(n, length - n) + 1)] for n in range(length)]
    table[0][0].append(((), 1, 0))
    for n in range(1, length):
        for m in range(1, min(n, length - n) + 1):
            out = table[n][m]
            out += [(u + (1,), o * m // (c + 1), c + 1) for u, o, c in table[n - 1][m - 1]]
            if n - m >= m:
                out += [(tuple([p + 1 for p in u]), o, 0) for u, o, _ in table[n - m][m]]
    return table


def _compositions(total: int, parts: int) -> int:
    """Compositions of total >= parts into ``parts`` positive parts."""
    return math.comb(total - 1, parts - 1) if parts else int(total == 0)


def _exact_counts(length: int):
    """Tie-length histogram, run-count sums and dominant-word count over all
    2^length words, counted from run partitions and compositions.

    A word that is not constant has m >= 1 runs of ones and m of zeros,
    alternating round the circle.  Marking one of its ones-runs fixes it by
    where that run starts (length choices) and the orders of the runs that
    follow, and each word has m marks; so the words whose multisets of
    ones-runs and zeros-runs are the partitions U and Z number
    length * o(U) * o(Z) / m, the partitions and orders o read from one
    ``_partition_table``.  Only the tie histogram and the dominant count
    walk the pairs (U, Z): their tie is the first index where the
    descending U and Z differ (m if they never do), and they are dominant
    iff U is larger there.  The run sums are in closed form: with K(s, k)
    the compositions of s into k positive parts, length * K(w - p, m - 1) *
    K(length - w, m) words of weight w with m ones-runs have one marked
    ones-run of length p (where it starts, then the other runs' lengths),
    and the complement gives as many zeros-runs.  A run of length p counts
    in N(t) for t = 1..p.  The two constant words are one run of length
    ``length`` each, tie 0, and only the all-ones word is dominant.

    Returns (tie_hist, nrun_sums, dominant): the tie histogram over
    0..length//2 + 1 and the run-count sums over t = 0..length as int64
    arrays, equal to those of ``_RunScan`` over every word, and the
    number of dominant words.
    """
    if length > EXACT_CAP_L:
        raise ResourceCapError(f"exact counts capped at length {EXACT_CAP_L}")
    table = _partition_table(length)
    hist = [0] * (length // 2 + 2)
    runs = [0] * (length + 1)  # runs[p]: runs of length exactly p over all words
    hist[0], runs[length], dominant = 2, 2, 1
    for weight in range(1, length):
        for m in range(1, min(weight, length - weight) + 1):
            for u, ou, _ in table[weight][m]:
                for z, oz, _ in table[length - weight][m]:
                    words = length * ou * oz // m
                    hist[_tie(u, z)] += words
                    if u > z:  # m parts each: u[tie] > z[tie], False on a full tie
                        dominant += words
            others = _compositions(length - weight, m)
            for p in range(1, weight - m + 2):
                runs[p] += 2 * length * _compositions(weight - p, m - 1) * others
    nrun_sums = np.zeros(length + 1, dtype=np.int64)
    nrun_sums[1:] = np.cumsum(runs[:0:-1])[::-1]
    return np.array(hist, dtype=np.int64), nrun_sums, dominant


_LOW_BITS = 16  # in_t_table splits a word into its low 16 bits and the rest


def _run_weights(length: int) -> list[int]:
    """W[0] = 0 and, for p = 1..length, W[p] = 1 + the largest sum of W[q]
    over runs of lengths q < p with total length at most length - p, an
    unbounded knapsack over the lengths taken in increasing order."""
    weights = [0]
    best = [0] * (length + 1)  # best[s]: the largest such sum within length s
    for p in range(1, length + 1):
        weights.append(1 + best[length - p])
        for s in range(p, length + 1):
            best[s] = max(best[s], best[s - p] + weights[p])
    return weights


@lru_cache(maxsize=None)
def in_t_table(length: int) -> np.ndarray:
    """Dominance membership for every word of the given odd length.

    Returns a read-only bool array of size 2^length: entry w is True iff the
    ones-profile of w beats the zeros-profile.  Each length is built once
    and kept, so the tables of all odd lengths up to the cap hold about
    44.7 MB.

    Each word is decided by the sign of its key (see the module docstring),
    with W from ``_run_weights``.  Let p be the largest length whose run
    counts differ; the profile with more runs of length p wins.  The longer
    runs cancel in the key, and the shorter ones, of total length at most
    L - p, sum to less than W[p] on either side.  Odd length rules out a
    full tie, so the key is never 0.

    An odd word w below 2^(L-1) has bit 0 set and bit L-1 clear, so no run
    wraps around.  Tables over the low 16 bits (or L-1), built by doubling,
    hold the key of the closed runs and the signed length of the top run
    (positive for ones).  The words of a block share their high bits, which
    add two terms: the key of the high part's closed runs, a scalar, and a
    junction term looked up by the low top run, which merges with the high
    part's bottom run when the two share a colour and closes otherwise.  The
    low keys plus the junction term depend on the block only through that
    bottom run, so they are summed once per bottom run.

    An even word 2v below 2^(L-1) is v rotated and shares its flag, filled
    level by level; word 0 is not dominant; and the complement maps the
    upper half onto the lower half reversed, flipping dominance.  The upper
    half is written in place, in 64-bit words: the lower half's words in
    reverse order with each byte XORed with 1, then byteswapped.
    """
    if length % 2 == 0:
        raise ValueError("run dominance needs an odd word length")
    if length > MAX_TABLE_N:
        raise ResourceCapError(f"exact enumeration capped at length {MAX_TABLE_N}")
    half = 1 << (length - 1)
    low = min(length - 1, _LOW_BITS)  # the top bit, always 0, is a high bit
    weights = np.array(_run_weights(length), dtype=np.int32)  # |key| < 2^20 at L = 25
    # signed[s]: the key of one run of signed length s, negative for zeros
    signed = np.concatenate([weights, -weights[:0:-1]])
    key, top = np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int8)
    for _ in range(low):  # a new top bit 0 closes a ones-run, a 1 a zeros-run
        key = np.concatenate([key + signed[np.maximum(top, 0)], key + signed[np.minimum(top, 0)]])
        top = np.concatenate([np.minimum(top, 0) - 1, np.maximum(top, 0) + 1])
    key, top = key[1::2], top[1::2] + low
    tops = np.arange(-low, low + 1)
    by_bottom = {}
    dominant = np.empty(2 * half, dtype=bool)
    dominant[0] = False
    for high in range(half >> low):
        bits = (high >> i & 1 for i in range(length - low))
        runs = [len(list(g)) * (2 * bit - 1) for bit, g in groupby(bits)]  # signed, from bit 0
        bottom = runs[0]
        if bottom not in by_bottom:
            merges = tops * bottom > 0  # the low top run and the bottom run share a colour
            junction = np.where(merges, signed[tops + bottom], signed[tops] + signed[bottom])
            by_bottom[bottom] = key + junction[top]
        closed_high = sum(signed[runs[1:]])
        dominant[(high << low) + 1 : (high + 1) << low : 2] = by_bottom[bottom] > -closed_high
    for b in range(1, length - 1):
        dominant[1 << b : 2 << b : 2] = dominant[1 << (b - 1) : 1 << b]
    if half < 8:  # L <= 3: half a table is under one word
        np.logical_not(dominant[:half][::-1], out=dominant[half:])
    else:  # the lower half reversed word by word and byte by byte, negated
        upper = dominant[half:].view(np.uint64)
        lower = dominant[:half].view(np.uint64)
        np.bitwise_xor(lower[::-1], np.uint64(0x0101010101010101), out=upper)
        upper.byteswap(inplace=True)
    dominant.setflags(write=False)
    return dominant


def _expected_runs_rows(length: int, sums, total: int, sumsq=None):
    """Expected run counts per t: exact Fractions, or floats with standard
    errors when the sums of squares of a sample are given."""
    rows = []
    for t in range(1, length + 1):
        if sumsq is None:
            rows.append({"t": t, "expected_runs": Fraction(int(sums[t]), total)})
        else:
            mean = sums[t] / total
            var = max(sumsq[t] / total - mean * mean, 0.0)
            rows.append({"t": t, "expected_runs": mean, "stderr": math.sqrt(var / total)})
    return rows


def rho_distribution(
    length: int,
    mode: str = "exact",
    samples: Optional[int] = None,
    seed: Optional[int] = None,
) -> Report:
    """Distribution of the profile tie length, plus expected long-run counts.

    Exact mode counts all 2^length words under the uniform measure from
    their run-partition pairs (length <= 25); mc mode draws ``samples`` words
    from a counter-based generator keyed by ``seed`` (default 0) and reports
    standard errors.  It draws and scans ``_BLOCK`` words at a time and keeps
    running totals, so its memory is a block plus at most one block of pooled
    survivors (``_RunScan``) whatever ``samples`` is, and ``samples`` sets
    only the time; the blocks continue one generator stream, so the words are
    those of a single draw.  Only mc mode consumes a seed and a sample count,
    so only mc reports record them and exact mode refuses them.
    """
    report = Report(command="rho-dist", parameters={"L": length, "mode": mode})
    _check_word(0, length)
    kmax = length // 2
    if mode == "exact":
        if samples is not None or seed is not None:
            raise ValueError("exact mode reads no samples or seed")
        hist, nrun_sums, dominant = _exact_counts(length)
        total, nrun_sumsq = 1 << length, None
    elif mode == "mc":
        if samples is None or samples < 1:
            raise ValueError("mc mode needs samples >= 1")
        report.parameters["samples"] = samples
        report.seed = seed = 0 if seed is None else seed
        rng = np.random.Generator(np.random.Philox(key=seed))
        dtype = np.uint32 if length <= 30 else np.uint64
        scan = _RunScan(length, dtype)
        for start in range(0, samples, _BLOCK):
            words = rng.integers(0, 1 << length, size=min(_BLOCK, samples - start), dtype=np.uint64)
            scan.add(words.astype(dtype))
        scan.finish()
        hist, nrun_sums, nrun_sumsq = scan.tie_hist, scan.nrun_sums, scan.nrun_sumsq
        total = samples
    else:
        raise ValueError(f"unknown mode {mode!r}")

    tail = np.cumsum(hist[::-1])[::-1]  # tail[k]: words with tie >= k
    rows = []
    for k in range(0, kmax + 1):
        if mode == "exact":
            rows.append({"k": k, "prob": Fraction(int(tail[k]), total), "stderr": None})
        else:
            p = tail[k] / total
            rows.append({"k": k, "prob": p, "stderr": math.sqrt(max(p * (1 - p), 0.0) / total)})
    report.add_table("rho_tail", rows)
    runs = _expected_runs_rows(length, nrun_sums, total, nrun_sumsq)
    report.add_table("expected_runs", runs)
    if mode == "exact":
        # E[#runs >= t] = L 2^-t [t < L] + 2^(1-L): a run starts wherever the
        # bit changes, and each constant word is one run of length L
        mismatches = sum(
            row["expected_runs"]
            != Fraction(length, 1 << row["t"]) * (row["t"] < length) + Fraction(2, total)
            for row in runs
        )
        report.check("expected_runs_closed_form_mismatches", 0, mismatches)
        if length % 2 == 1:
            report.check("dominant_count", 1 << (length - 1), dominant)

    probs = [float(r["prob"]) for r in rows]
    report.check("tail_nonincreasing", True, all(a >= b for a, b in zip(probs, probs[1:])))
    report.check("tail_starts_at_one", 1.0, probs[0])
    return report.finish()


def mc_disagreements(exact: Report, mc: Report) -> list[dict]:
    """The cells of an mc ``rho_distribution`` report that its exact report,
    at the same length, rejects: a tail probability or an expected run count
    off by more than MC_TOLERANCE_SE standard errors, among the cells where
    the sample expects at least MC_MIN_HITS hits.  Rarer cells are left out,
    since a handful of hits, or none, says nothing at that tolerance."""
    samples = mc.parameters["samples"]
    cells = []
    for row_e, row_m in zip(exact.tables["rho_tail"], mc.tables["rho_tail"]):
        p, phat = float(row_e["prob"]), row_m["prob"]
        se = math.sqrt(p * (1 - p) / samples)
        if min(p, 1 - p) * samples >= MC_MIN_HITS and abs(phat - p) > MC_TOLERANCE_SE * se:
            cells.append({"cell": f"tail_k={row_e['k']}", "exact": p, "mc": phat, "se": se})
    for row_e, row_m in zip(exact.tables["expected_runs"], mc.tables["expected_runs"]):
        mean, est, se = float(row_e["expected_runs"]), row_m["expected_runs"], row_m["stderr"]
        if mean * samples >= MC_MIN_HITS and abs(est - mean) > MC_TOLERANCE_SE * se:
            cells.append({"cell": f"runs_t={row_e['t']}", "exact": mean, "mc": est, "se": se})
    return cells
