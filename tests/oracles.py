"""Deliberately naive reference implementations used as independent oracles.

Everything here but the last three sections works on element sets / strings
with no bit tricks and no numpy, so agreement with the package is
meaningful.  The last three sections keep numpy kernels that the package
replaced: the per-word run scan, whose outputs the package now only
aggregates, the unpacked weight counts (one entry per point of the
center cube) that its packed-word kernels replaced, and the lift of a
membership table that filters every k-set of [n].
"""

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, groupby
from math import factorial

import numpy as np

from divlab.bitfam import family_from_masks, ksubset_masks, make_family


def all_ksets(n, k):
    return [frozenset(c) for c in combinations(range(1, n + 1), k)]


def family_as_sets(fam):
    return [frozenset(s) for s in fam.member_sets()]


def degrees_by_scan(sets, n):
    return {e: sum(1 for s in sets if e in s) for e in range(1, n + 1)}


def diversity_by_scan(sets, n):
    if not sets:
        return 0
    return len(sets) - max(degrees_by_scan(sets, n).values())


def family_text_by_elements(fam):
    """The family text format, written member by member from element tuples."""
    lines = [f"n={fam.n} k={fam.k if fam.k is not None else '-'}"]
    lines += [",".join(map(str, s)) or "-" for s in fam.member_sets()]
    return "\n".join(lines) + "\n"


def tables_meet_by_points(a, b):
    """No point of a is disjoint from a point of b, points as masks."""
    return not any(x & y == 0 for x in a for y in b)


def pairwise_t_intersecting(sets, t):
    return all(len(a & b) >= t for a, b in combinations(sets, 2))


def cross_intersecting(aa, bb):
    return all(a & b for a in aa for b in bb)


def up_closed_by_scan(sets, n):
    """No member has a one-element extension outside the family."""
    members = set(sets)
    return not any(s | {e} not in members for s in members for e in range(1, n + 1))


def intersecting_by_pairs(sets):
    """Every two members, a member with itself included, meet; the family
    {{}} alone counts as intersecting."""
    if list(sets) == [frozenset()]:
        return True
    return all(a & b for a, b in combinations_with_replacement(sets, 2))


def pascal_binom(n, k):
    if k < 0 or k > n:
        return 0
    row = [1]
    for _ in range(n):
        row = [1] + [row[i] + row[i + 1] for i in range(len(row) - 1)] + [1]
    return row[k]


def lex_sorted_ksets(n, k):
    """k-sets ordered so earlier sets have the smaller minimum of the
    symmetric difference; for equal-size sets this is sorted-tuple order."""
    return [frozenset(c) for c in sorted(combinations(range(1, n + 1), k))]


def mu_by_enumeration(member_masks, j, p):
    total = Fraction(0)
    for m in member_masks:
        w = bin(m).count("1")
        total += p**w * (1 - p) ** (j - w)
    return total


def influence_by_enumeration(member_masks, j, i, p):
    members = set(member_masks)
    bit = 1 << (i - 1)
    total = Fraction(0)
    for m in range(1 << j):
        if (m in members) != ((m ^ bit) in members):
            w = bin(m).count("1")
            total += p**w * (1 - p) ** (j - w)
    return total


def gamma_p_by_enumeration(member_masks, j, p):
    best = None
    for i in range(1, j + 1):
        bit = 1 << (i - 1)
        val = mu_by_enumeration([m for m in member_masks if not m & bit], j, p)
        if best is None or val < best:
            best = val
    return best


def run_profile_by_string(word_string):
    """Cyclic run profile of a 0/1 string (position 1 = first character)."""
    s = word_string
    if set(s) == {"1"}:
        return (len(s),), ()
    if set(s) == {"0"}:
        return (), (len(s),)
    start = next(i for i in range(len(s)) if s[i - 1] != s[i])
    rotated = s[start:] + s[:start]
    ones, zeros = [], []
    for ch, grp in groupby(rotated):
        (ones if ch == "1" else zeros).append(len(list(grp)))
    return tuple(sorted(ones, reverse=True)), tuple(sorted(zeros, reverse=True))


def word_to_string(mask, length):
    return "".join("1" if mask >> (pos - 1) & 1 else "0" for pos in range(1, length + 1))


def padded_compare(u, z):
    m = max(len(u), len(z))
    pu = tuple(u) + (0,) * (m - len(u))
    pz = tuple(z) + (0,) * (m - len(z))
    return (pu > pz) - (pu < pz)


def partitions_up_to(total):
    """Every partition of every n <= total, as descending tuples."""
    def parts(n, largest):
        if n == 0:
            yield ()
        for first in range(min(n, largest), 0, -1):
            for rest in parts(n - first, first):
                yield (first,) + rest

    for n in range(total + 1):
        yield from parts(n, n)


def partitions_into(total, parts, largest):
    """Partitions of total into exactly ``parts`` parts of at most ``largest``,
    as descending tuples."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(largest, total - parts + 1), -(-total // parts) - 1, -1):
        for rest in partitions_into(total - first, parts - 1, first):
            yield (first,) + rest


def orders(runs):
    """Distinct orders of a descending multiset: m! / prod(multiplicity!)."""
    count = factorial(len(runs))
    for _, group in groupby(runs):
        count //= factorial(len(list(group)))
    return count


def exact_counts_by_pairs(length):
    """Tie histogram over 0..length//2 + 1, run-count sums over t = 0..length
    and the dominant-word count over all 2^length words, as lists and an
    int, walking every pair (U, Z) of ones- and zeros-run partitions into m
    parts: length * o(U) * o(Z) / m words each, every run counted from the
    pair's own parts."""
    hist = [0] * (length // 2 + 2)
    runs = [0] * (length + 1)
    hist[0], runs[length], dominant = 2, 2, 1
    for weight in range(1, length):
        for m in range(1, min(weight, length - weight) + 1):
            for u in partitions_into(weight, m, weight):
                for z in partitions_into(length - weight, m, length - weight):
                    words = length * orders(u) * orders(z) // m
                    hist[tie_len_by_padding(u, z)] += words
                    dominant += words * (padded_compare(u, z) > 0)
                    for p in u + z:
                        runs[p] += words
    sums = [sum(runs[t:]) for t in range(1, length + 1)]
    return hist, [0] + sums, dominant


def run_key(ones, zeros, weights):
    """Sum of weights[len] over the ones-runs minus that over the zeros-runs."""
    return sum(weights[u] for u in ones) - sum(weights[z] for z in zeros)


def tie_len_by_padding(u, z):
    m = max(len(u), len(z))
    pu = tuple(u) + (0,) * (m - len(u))
    pz = tuple(z) + (0,) * (m - len(z))
    tie = 0
    while tie < m and pu[tie] == pz[tie]:
        tie += 1
    return len(u) if tie == m else tie


def shift_sets(sets, i, j):
    """(i,j)-shift of a set of frozensets: replace j by i unless the image is present."""
    out = set()
    for s in sets:
        image = (s - {j}) | {i}
        out.add(image if j in s and i not in s and image not in sets else s)
    return out


def is_shifted_by_pairs(sets, n):
    """Every (i,j)-shift, i < j <= n, fixes the family."""
    sets = set(sets)
    return all(shift_sets(sets, i, j) == sets for i, j in combinations(range(1, n + 1), 2))


def greedy_intersecting_by_scan(n, k, rng):
    """The random intersecting family of randfam, drawn from ``rng`` the
    same way: shuffle the k-sets of [n], keep each one that meets every kept
    set, then keep each kept set with probability 0.7 (at least the first)."""
    candidates = [frozenset(s) for s in combinations(range(1, n + 1), k)]
    rng.shuffle(candidates)
    kept = []
    for s in candidates:
        if all(s & other for other in kept):
            kept.append(s)
    members = [s for s in kept if rng.random() < 0.7] or kept[:1]
    return family_from_masks(n, k, [sum(1 << (e - 1) for e in s) for s in members])


def shift_closure_by_restart(sets, n):
    """Shift to a fixed point, restarting the lex pair sweep at (1,2) after
    every shift that changes the family."""
    current = set(sets)
    changed = True
    while changed:
        changed = False
        for i, j in combinations(range(1, n + 1), 2):
            nxt = shift_sets(current, i, j)
            if nxt != current:
                current, changed = nxt, True
                break
    return current


# ---------------------------------------------------------------------------
# unpacked weight counts over a 2^j-point table
# ---------------------------------------------------------------------------


def weight_counts_of_masks(masks, j):
    """Histogram over 0..j of the weights of the given points."""
    masks = np.asarray(masks, dtype=np.uint64)
    return np.bincount(np.bitwise_count(masks).astype(np.int64), minlength=j + 1)


def pivotal_counts_unpacked(table, j, b):
    """Weight histogram of the points whose membership flips with coordinate b."""
    flipped = table.reshape(-1, 2, 1 << b)[:, ::-1, :].reshape(-1)
    return weight_counts_of_masks(np.flatnonzero(table != flipped), j)


def avoiding_counts_unpacked(table, j, b):
    """Weight histogram of the members that do not contain coordinate b."""
    members = np.flatnonzero(table)
    return weight_counts_of_masks(members[(members >> b & 1) == 0], j)


# ---------------------------------------------------------------------------
# per-word run scan over arrays of words
# ---------------------------------------------------------------------------

BLOCK = 1 << 16  # words per scan block


def scan_block(words, length):
    """Per-word tie length, dominance and run-count sums for a word block.

    Returns (tie, dominant, nrun_sums, nrun_sumsq) where nrun_sums[t] is the
    sum over words of N(t) = number of maximal runs of length >= t, and
    nrun_sumsq[t] the sum of N(t)^2.

    After step t, bit p of acc1 (acc0) is set iff positions p..p+t all hold
    a 1 (a 0).  A run of length r >= t holds r - t + 1 windows of length t
    and r - t of length t + 1, so step t counts the ones-runs of length >= t
    as nu = popcount(acc1) before minus after; likewise nz for zeros, and a
    constant word counts one run at every t.  nu and nz only fall as t grows,
    so the last t where they differ fixes the tie, min(nu, nz), and the
    dominance; a full tie (even length only) keeps tie nu(1).  A word whose
    runs are used up (acc1 | acc0 == 0) has nu = nz = 0 at every larger t: it
    adds nothing more and its results are final, so it is dropped from the
    scan, in one batch once a quarter of the words left are used up.
    """
    dt = words.dtype.type
    full = dt((1 << length) - 1)
    one, high = dt(1), dt(length - 1)
    tie_out = np.empty(words.shape, dtype=np.uint8)
    dom_out = np.empty(words.shape, dtype=bool)
    pos = np.arange(words.size)
    rot1, acc1, acc0 = words.copy(), words.copy(), ~words & full
    cnt1, cnt0 = np.bitwise_count(acc1), np.bitwise_count(acc0)
    dominant = np.zeros(words.shape, dtype=bool)
    nrun_sums = np.zeros(length + 1, dtype=np.int64)
    nrun_sumsq = np.zeros(length + 1, dtype=np.int64)
    for t in range(1, length + 1):
        rot1 = (rot1 >> one) | ((rot1 & one) << high)
        acc1 &= rot1
        acc0 &= ~rot1
        nu, cnt1 = cnt1, np.bitwise_count(acc1)
        nz, cnt0 = cnt0, np.bitwise_count(acc0)
        nu -= cnt1
        nz -= cnt0
        nu += cnt1 == length
        nz += cnt0 == length
        both = nu + nz
        nrun_sums[t] = both.sum(dtype=np.int64)
        both = both.astype(np.uint16)  # both <= 64, so both^2 fits
        nrun_sumsq[t] = (both * both).sum(dtype=np.int64)
        if t == 1:
            tie = nu.copy()
        # where nu != nz: tie = min(nu, nz), dominant = nu > nz; arithmetic
        # (exact mod 256) is several times faster than a masked copy
        low, same = np.minimum(nu, nz), nu == nz
        tie = low + (tie - low) * same
        dominant = (dominant & same) | (nu > nz)
        live = np.logical_or(cnt1, cnt0)
        if t == length or 4 * (live.size - np.count_nonzero(live)) >= live.size:
            tie_out[pos] = tie
            dom_out[pos] = dominant
            keep = np.flatnonzero(live)
            state = (pos, rot1, acc1, acc0, cnt1, cnt0, tie, dominant)
            pos, rot1, acc1, acc0, cnt1, cnt0, tie, dominant = (a[keep] for a in state)
    return tie_out, dom_out, nrun_sums, nrun_sumsq


def scan_words(words, length):
    """Tie lengths and dominance flags for a 1-D array of words, with the
    run-count sums and sums of squares, block by block."""
    if not 1 <= length <= 63:
        raise ValueError(f"word length {length} outside [1, 63]")
    words = np.asarray(words)
    if words.ndim != 1 or words.size and (words.min() < 0 or int(words.max()) >> length):
        raise ValueError(f"words must be a 1-D array of integers in [0, 2^{length})")
    words = words.astype(np.uint32 if length <= 30 else np.uint64)
    # one block even for no words, so the sums keep their shape
    blocks = range(0, words.size or 1, BLOCK)
    ties, doms, sums, sumsqs = zip(*(scan_block(words[i : i + BLOCK], length) for i in blocks))
    return np.concatenate(ties), np.concatenate(doms), sum(sums), sum(sumsqs)


# ---------------------------------------------------------------------------
# lift of a membership table by filtering every k-set
# ---------------------------------------------------------------------------


def lift_by_filter(table, n, k):
    """The k-sets of [n] whose trace on the low log2(len(table)) elements is
    admitted by the table: all C(n, k) masks, then one table lookup."""
    masks = ksubset_masks(n, k)
    center = table.size.bit_length() - 1
    return family_from_masks(n, k, masks[table[masks & ((1 << center) - 1)]])


def family_from_text_by_lines(text):
    """The family text format parsed line by line, each token through int()."""
    header = None
    sets = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if header is None:
            parts = dict(p.partition("=")[::2] for p in line.split())
            if not {"n", "k"} <= parts.keys() or "" in parts.values():
                raise ValueError(f"bad family header: {raw!r}")
            header = (int(parts["n"]), None if parts["k"] == "-" else int(parts["k"]))
            continue
        if line == "-":
            sets.append([])
            continue
        sets.append([int(x) for x in line.split(",") if x])
    if header is None:
        raise ValueError("family text has no header line")
    n, k = header
    return make_family(n, k, sets)
