"""Bitmask set families and their degree / diversity statistics.

A subset of the ground set [n] = {1, ..., n} is a machine word: element i
sits at bit i-1, so n is capped at 63 and every set operation is a single
word instruction.  A Family is a sorted, duplicate-free collection of such
masks, optionally k-uniform.

A family on few points can also be held as its packed table over the 2^n
cube: point m (the mask of one subset) at bit m % 64 of word m // 64, the
words little-endian and a table under 64 points one zero-padded word.  A
coordinate b < 6 is thus a bit pattern repeated in every word, b >= 6 a
pattern of whole words, and the weight of point m is popcount(m // 64) +
popcount(m % 64).  This module owns that layout: ``pack_table``,
``pack_members`` and ``unpack`` convert, and ``flip``, ``without``,
``up_closure``, ``reverse_closure``, ``tables_meet`` and
``weight_histogram`` are its kernels.
The intersecting and cross-intersecting checks share one dispatcher,
``_check_pairs``: a t = 1 check with at least 2^n member pairs runs on the
packed tables, as do booleanlab's dense checks; any other check scans the
pairs, up to a cap.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import ResourceCapError

MAX_GROUND = 63

# Most member pairs a pairwise scan takes on (about 2 s at the 1.1 G pairs/s
# of one Xeon core): m(m-1)/2 for one family of m <= 65,536 members, |A|*|B|
# for two.  A packed-table check is never refused.
PAIRWISE_CHECK_CAP = 1 << 31

# Largest n whose 2^n-point table divlab builds: a junta centre's, the
# run-dominance table and the packed 1-intersecting check's (4 MiB at n = 25).
MAX_TABLE_N = 25

# Entries of one row block of a pairwise check (2^14 and 2^18 measured
# slower on a 12,597-member family).
PAIR_BLOCK = 1 << 16

# Row v holds the bits of the byte value v, lowest first.
_BYTE_BITS = np.unpackbits(
    np.arange(256, dtype=np.uint8)[:, None], axis=1, bitorder="little"
).astype(np.int64)

# stats sums _SPREAD over the bytes of each member below this many members,
# where the fixed cost of a byte histogram is the larger (on one Xeon core
# the two cross at about 30 members for n <= 11, 24 at n = 20, 16 at n = 63)
SMALL_STATS_MEMBERS = 20

# _SPREAD[v] holds bit b of the byte value v at bit 16b: a sum of fewer than
# 2^16 of them keeps each count in its own 16-bit field
_SPREAD = tuple(sum(1 << (16 * b) for b in range(8) if v >> b & 1) for v in range(256))

# family_from_text turns set lines into masks in blocks of whole lines of
# about this many bytes, so that its per-number index arrays stay small: on
# a 6.8 MB text, this step took 0.13 s and 97 MB of temporaries in one
# block, 0.08 s and 18 MB in 1 MiB blocks.
_TEXT_BLOCK = 1 << 20

# Largest C(n, k) that ksubset_masks materialises.
KSUBSET_CAP = 1 << 26

# ksubset_masks shares, read-only, the last KSUBSET_CACHE_TABLES tables of
# at most KSUBSET_CACHE_SETS masks each (8 MiB at most, and a sweep's
# tables are far smaller).
KSUBSET_CACHE_SETS = 1 << 16
KSUBSET_CACHE_TABLES = 16

# for in-word indices i < 64: bit i of _LOW[b] is set iff bit b of i is
# clear, and bit i of _WEIGHT[c] iff i has c bits set
_LOW = tuple(np.uint64(sum(1 << i for i in range(64) if not i >> b & 1)) for b in range(6))
_WEIGHT = tuple(np.uint64(sum(1 << i for i in range(64) if i.bit_count() == c)) for c in range(7))


def mask_from_elements(elements: Iterable[int], n: int) -> int:
    """Pack 1-based elements of [n] into a bitmask."""
    mask = 0
    for e in elements:
        if not 1 <= e <= n:
            raise ValueError(f"element {e} outside ground set [1, {n}]")
        mask |= 1 << (e - 1)
    return mask


def elements_of_mask(mask: int) -> tuple[int, ...]:
    """Unpack a bitmask into an ascending tuple of 1-based elements."""
    out = []
    m = int(mask)
    while m:
        low = m & -m
        out.append(low.bit_length())
        m ^= low
    return tuple(out)


@dataclass(eq=False)
class Family:
    """A canonical family of subsets of [n].

    ``members`` is an ascending, duplicate-free int64 array of masks and is
    treated as immutable.  ``k`` is the uniformity (None for non-uniform
    families).
    """

    n: int
    k: Optional[int]
    members: np.ndarray

    def __post_init__(self) -> None:
        # freeze a view, so that the caller's own array stays writeable
        self.members = np.asarray(self.members, dtype=np.int64).view()
        self.members.setflags(write=False)

    def __len__(self) -> int:
        return int(self.members.size)

    def __iter__(self) -> Iterator[int]:
        return (int(m) for m in self.members)

    def __contains__(self, mask: int) -> bool:
        i = int(np.searchsorted(self.members, mask))
        return i < len(self) and int(self.members[i]) == int(mask)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Family):
            return NotImplemented
        return (
            self.n == other.n
            and self.k == other.k
            and self.members.shape == other.members.shape
            and bool(np.all(self.members == other.members))
        )

    def member_sets(self) -> list[tuple[int, ...]]:
        """Members as ascending element tuples (small families only)."""
        return [elements_of_mask(m) for m in self.members]

    def __repr__(self) -> str:
        return f"Family(n={self.n}, k={self.k}, size={len(self)})"


@dataclass(frozen=True)
class FamilyStats:
    """Size, per-element degrees, max degree and diversity of a family."""

    size: int
    degrees: tuple[int, ...]
    max_degree: int
    max_degree_element: Optional[int]
    diversity: int


def family_from_masks(
    n: int,
    k: Optional[int],
    masks: Iterable[int] | np.ndarray,
    *,
    presorted: bool = False,
) -> Family:
    """Build a canonical Family from raw masks, validating the invariants.

    ``presorted`` skips the sort/dedup for inputs already ascending and
    unique (large generated families).
    """
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size {n} outside [1, {MAX_GROUND}]")
    arr = np.asarray(masks if isinstance(masks, np.ndarray) else list(masks), dtype=np.int64)
    if arr.size and (int(arr.min()) < 0 or int(arr.max()) >> n):
        raise ValueError(f"mask with bits outside ground set [1, {n}]")
    if not presorted:
        arr = np.sort(arr)
        keep = np.ones(arr.size, dtype=bool)
        keep[1:] = arr[1:] != arr[:-1]
        arr = arr[keep]
    if k is not None:
        if not 0 <= k <= n:
            raise ValueError(f"uniformity k={k} outside [0, {n}]")
        off = np.flatnonzero(np.bitwise_count(arr.view(np.uint64)) != k)
        if off.size:
            bad = elements_of_mask(int(arr[off[0]]))
            raise ValueError(f"set {list(bad)} has cardinality {len(bad)}, expected k={k}")
    return Family(n=n, k=k, members=arr)


def check_enumeration(n: int, k: int) -> None:
    """Refuse n outside [0, MAX_GROUND] and, for 0 <= k <= n, C(n, k) > KSUBSET_CAP."""
    if not 0 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size {n} outside [0, {MAX_GROUND}]")
    if 0 <= k <= n and math.comb(n, k) > KSUBSET_CAP:
        raise ResourceCapError(f"C({n},{k}) exceeds the enumeration cap 2^26")


def ksubset_masks(n: int, k: int) -> np.ndarray:
    """Masks of the k-subsets of [n] in lex order, the order of
    ``itertools.combinations(range(n), k)``; empty unless 0 <= k <= n.

    A table of at most KSUBSET_CACHE_SETS masks is built once and shared
    read-only; a larger one is fresh and writable.  Refuses C(n, k) >
    KSUBSET_CAP before allocating.
    """
    check_enumeration(n, k)
    if not 0 <= k <= n:
        return np.zeros(0, dtype=np.int64)
    if math.comb(n, k) <= KSUBSET_CACHE_SETS:
        return _shared_ksubset_masks(n, k)
    return _ksubset_masks(n, k)


@functools.lru_cache(maxsize=KSUBSET_CACHE_TABLES)
def _shared_ksubset_masks(n: int, k: int) -> np.ndarray:
    out = _ksubset_masks(n, k)
    out.setflags(write=False)
    return out


def _ksubset_masks(n: int, k: int) -> np.ndarray:
    """Level j holds the j-sets of {k-j, ..., n-1}: those with least element
    e are e joined to the last C(n-e-1, j-1) entries of level j-1, the
    (j-1)-sets above e."""
    level = np.zeros(1, dtype=np.int64)
    for j in range(1, k + 1):
        out = np.empty(math.comb(n - k + j, j), dtype=np.int64)
        pos = 0
        for e in range(k - j, n - j + 1):
            c = math.comb(n - e - 1, j - 1)
            np.bitwise_or(level[level.size - c :], np.int64(1 << e), out=out[pos : pos + c])
            pos += c
        level = out
    return level


def make_family(n: int, k: Optional[int], sets: Iterable[Iterable[int]]) -> Family:
    """Canonical Family from element lists (sorted, deduplicated).

    Raises ValueError for elements outside [1, n], a set whose cardinality
    differs from k (when k is given), or n outside the supported range.
    """
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size {n} outside [1, {MAX_GROUND}]")
    return family_from_masks(n, k, [mask_from_elements(s, n) for s in sets])


def pack_table(table: np.ndarray) -> tuple[np.ndarray, int]:
    """The packed table of a 2^j-point bool table, and j."""
    j = int(table.size).bit_length() - 1
    packed = np.packbits(table, bitorder="little")
    if packed.size < 8:  # a table under 64 points
        packed = np.pad(packed, (0, 8 - packed.size))
    return packed.view("<u8"), j


def pack_members(members: np.ndarray, n: int) -> np.ndarray:
    """The packed 2^n-point table of a mask array, set word by word with no
    2^n-entry table in between."""
    words = np.zeros(max(1, (1 << n) >> 6), dtype="<u8")
    masks = members.view(np.uint64)
    np.bitwise_or.at(words, masks >> np.uint64(6), np.uint64(1) << (masks & np.uint64(63)))
    return words


def unpack(words: np.ndarray) -> np.ndarray:
    """The ascending points set in a packed table."""
    octets = np.ascontiguousarray(words, dtype="<u8").view(np.uint8)
    return np.flatnonzero(np.unpackbits(octets, bitorder="little"))


def flip(words: np.ndarray, b: int) -> np.ndarray:
    """The packed table reindexed with coordinate b flipped: bit m of the
    result is bit m ^ 2^b of the input."""
    if b < 6:
        s = np.uint64(1 << b)
        return ((words & _LOW[b]) << s) | ((words >> s) & _LOW[b])
    return words.reshape(-1, 2, 1 << (b - 6))[:, ::-1, :].reshape(-1)


def without(words: np.ndarray, b: int) -> np.ndarray:
    """The packed table with every point holding coordinate b cleared."""
    if b < 6:
        return words & _LOW[b]
    out = words.copy()
    out.reshape(-1, 2, 1 << (b - 6))[:, 1, :] = 0
    return out


def up_closure(words: np.ndarray, j: int) -> np.ndarray:
    """Packed superset closure: bit m is set iff some member is contained in m."""
    up = words.copy()
    for b in range(min(j, 6)):
        up |= (up & _LOW[b]) << np.uint64(1 << b)
    for b in range(6, j):
        v = up.reshape(-1, 2, 1 << (b - 6))
        high, low = v[:, 1, :], v[:, 0, :]
        if b < 9:  # blocks of at most 4 words: walk each word position down the table
            high, low = high.T, low.T
        np.bitwise_or(high, low, out=high, order="C")
    return up


def reverse_closure(up: np.ndarray, j: int) -> np.ndarray:
    """The reversal of a packed 2^j-point up-closure: bit m of the result is
    bit 2^j-1-m of ``up``, and so is set iff some point of the closed family
    is disjoint from m.  The reversal turns the word order round and the 64
    bits of each word: a byteswap, done in place on ``up``, reverses its
    bytes and flips of coordinates 0-2 the bits within each byte.  That
    leaves a table under 64 points in the top 2^j bits of its word, which
    one shift moves down."""
    up.byteswap(inplace=True)
    rev = up[::-1]
    for bit in range(3):
        rev = flip(rev, bit)
    if j < 6:
        rev >>= np.uint64(64 - (1 << j))
    return rev


def tables_meet(a: np.ndarray, b: np.ndarray, j: int) -> bool:
    """True iff every point set in the packed 2^j-point table ``a`` meets
    every point set in ``b``: no point of a lies in the reversed up-closure
    of b."""
    return not bool(np.any(a & reverse_closure(up_closure(b, j), j)))


def weight_histogram(words: np.ndarray, j: int) -> np.ndarray:
    """Entry w counts the points of weight w set in the packed 2^j-point
    table: those of in-word weight c in word q have weight c + popcount(q)."""
    word_weight = np.bitwise_count(np.arange(words.size, dtype=np.uint32))
    counts = np.zeros(j + 7, dtype=np.int64)
    for c, mask in enumerate(_WEIGHT):
        # exact: float64 holds every count up to 2^53
        by_word = np.bincount(word_weight, np.bitwise_count(words & mask))
        counts[c : c + by_word.size] += by_word.astype(np.int64)
    return counts[: j + 1]


def _pairs_meet(rows: np.ndarray, cols: np.ndarray, t: int, triangle: bool) -> bool:
    """True iff every row mask shares at least t elements with every column
    mask; with ``triangle`` (rows is cols) row i is compared with cols[i:]
    only.  Rows go in blocks of about PAIR_BLOCK entries, so the AND of a
    block and its popcounts stay in cache; t = 1 needs no popcount."""
    s = 0
    while s < rows.size:
        c = cols[s:] if triangle else cols
        e = s + max(1, PAIR_BLOCK // c.size)
        block = rows[s:e, None] & c
        if not (block.all() if t == 1 else int(np.bitwise_count(block).min()) >= t):
            return False
        s = e
    return True


def _check_pairs(rows: np.ndarray, cols: np.ndarray, n: int, t: int) -> bool:
    """True iff every row mask shares at least t elements with every column
    mask, both arrays nonempty and on [n]; ``rows is cols`` is one family,
    of m(m-1)/2 pairs, else there are |rows|*|cols|.  t = 1 on
    n <= MAX_TABLE_N with 2^n <= pairs runs on the packed tables; any other
    check past PAIRWISE_CHECK_CAP pairs is refused, and the rest scanned."""
    triangle = rows is cols
    pairs = rows.size * (rows.size - 1) // 2 if triangle else rows.size * cols.size
    if t == 1 and n <= MAX_TABLE_N and 1 << n <= pairs:
        words = pack_members(rows, n)
        return tables_meet(words, words if triangle else pack_members(cols, n), n)
    if pairs > PAIRWISE_CHECK_CAP:
        raise ResourceCapError(f"pairwise check refused for {pairs} > 2^31 member pairs")
    return _pairs_meet(rows, cols, t, triangle)


def is_t_intersecting(fam: Family, t: int = 1) -> bool:
    """True iff every pair of distinct members shares at least t elements.

    Empty and singleton families are vacuously t-intersecting.  t = 1 on
    n <= MAX_TABLE_N points with 2^n <= m(m-1)/2 runs on the packed table:
    no member may lie in the reversed up-closure of the family (a member
    lies there through itself only if it is the empty set, which then
    misses every other member).  Any other check of more than 65,536
    members is refused.  The pairwise scan compares each block of rows with
    the suffix of members from its first row on, so the diagonal
    |F & F| = |F| is included: it is at least |F & G| for every other
    member G, so once there are two members it never lowers the minimum.
    """
    if t < 1:
        raise ValueError(f"threshold t={t} must be >= 1")
    if len(fam) < 2:
        return True
    return _check_pairs(fam.members, fam.members, fam.n, t)


def are_cross_intersecting(a: Family, b: Family) -> bool:
    """True iff every member of ``a`` intersects every member of ``b``.

    Vacuously true when either family is empty.  On n <= MAX_TABLE_N
    points with 2^n <= |a|*|b| it runs on the packed tables; otherwise
    more than PAIRWISE_CHECK_CAP pairs are refused.
    """
    if a.n != b.n:
        raise ValueError(f"mismatched ground sets: {a.n} != {b.n}")
    if len(a) == 0 or len(b) == 0:
        return True
    large, small = (a.members, b.members) if len(a) >= len(b) else (b.members, a.members)
    return _check_pairs(large, small, a.n, 1)


def intersection_rows(masks: np.ndarray, sources: Optional[np.ndarray] = None) -> list[int]:
    """Row v is a Python int with bit w set iff masks[w] meets sources[v]
    and differs from it; ``sources`` defaults to ``masks``, which gives the
    intersection graph on distinct masks.  Sources go in blocks of about
    PAIR_BLOCK entries, so no V x V temporary is made."""
    sources = masks if sources is None else sources
    rows: list[int] = []
    step = max(1, PAIR_BLOCK // max(1, masks.size))
    for s in range(0, sources.size, step):
        block = sources[s : s + step, None]
        hits = ((block & masks) != 0) & (block != masks)
        packed = np.packbits(hits, axis=1, bitorder="little")
        rows += [int.from_bytes(row.tobytes(), "little") for row in packed]
    return rows


def _octets(members: np.ndarray) -> np.ndarray:
    """Row i holds the 8 bytes of mask i, little-endian whatever the host's
    byte order: bit b of byte B is element 8B + b + 1."""
    return np.ascontiguousarray(members, dtype="<i8").view(np.uint8).reshape(-1, 8)


def stats(fam: Family) -> FamilyStats:
    """Degrees, max degree (smallest element on ties) and diversity.

    Bit b of byte B of a mask is element 8B + b + 1.  From
    SMALL_STATS_MEMBERS members on, every degree comes from one histogram
    per byte of the masks (``_octets``): an element's degree is the
    histogram's count over the byte values with its bit set (a product with
    _BYTE_BITS).  A smaller family sums _SPREAD[v] << 128B over the byte
    values v of its members, which leaves the degree of element e + 1 in the
    16-bit field e.
    """
    size = len(fam)
    if size < SMALL_STATS_MEMBERS:
        total = 0
        for mask in fam.members.tolist():
            shift = 0
            while mask:
                total += _SPREAD[mask & 255] << shift
                mask >>= 8
                shift += 128
        degrees = tuple(total >> (16 * e) & 0xFFFF for e in range(fam.n))
    else:
        octets = _octets(fam.members)
        counts: list[int] = []
        for byte in range((fam.n + 7) // 8):
            counts += (np.bincount(octets[:, byte], minlength=256) @ _BYTE_BITS).tolist()
        degrees = tuple(counts[: fam.n])
    max_degree = max(degrees)
    return FamilyStats(
        size=size,
        degrees=degrees,
        max_degree=max_degree,
        max_degree_element=degrees.index(max_degree) + 1 if size else None,
        diversity=size - max_degree,
    )


def family_to_text(fam: Family) -> str:
    """Serialize in the family text format.

    First line ``n=<n> k=<k|->``, then one set per line as comma-separated
    ascending elements; the empty set is the line ``-`` (a blank line would
    be skipped on parse).  Round-trips bit-exactly through family_from_text.
    A member's line joins the texts of its nonzero bytes, looked up by byte
    value in a table per byte position.
    """
    nbytes = (fam.n + 7) // 8
    texts = [_byte_text(byte) for byte in range(nbytes)]
    lines = [f"n={fam.n} k={fam.k if fam.k is not None else '-'}"]
    for row in _octets(fam.members)[:, :nbytes].tolist():
        lines.append(",".join([text[v] for text, v in zip(texts, row) if v]) or "-")
    return "\n".join(lines) + "\n"


@functools.lru_cache(maxsize=None)
def _byte_text(byte: int) -> tuple[str, ...]:
    """Entry v: the elements of the byte value v at byte ``byte`` of a mask,
    comma-separated and ascending."""
    return tuple(
        ",".join(str(8 * byte + b + 1) for b in range(8) if v >> b & 1) for v in range(256)
    )


def _is_digit(octets: np.ndarray) -> np.ndarray:
    return (octets >= 48) & (octets <= 57)


def _first_bad_line(body: bytes, squeezed: bytes) -> Optional[int]:
    """The index of the first line out of format in a body of set lines,
    given with and without its spaces and tabs, or None.  Out of format are
    a byte outside the alphabet; a sign that neither starts a number nor, as
    '-', stands alone on its line; and a run of spaces and tabs between two
    numbers, two commas or a sign and its number.  Both texts end in a
    newline, which index -1 also reads."""
    spaced, g = np.frombuffer(body, dtype=np.uint8), np.frombuffer(squeezed, dtype=np.uint8)
    sign = (g == 43) | (g == 45)
    at = np.flatnonzero(sign)
    before, after = g[at - 1], g[at + 1]
    leads = ((before == 10) | (before == 44)) & _is_digit(after)
    lone = (g[at] == 45) & (before == 10) & (after == 10)
    blank = np.flatnonzero((spaced == 32) | (spaced == 9))
    first = blank[np.diff(blank, prepend=-2) > 1]
    left, right = spaced[first - 1], spaced[blank[np.diff(blank, append=spaced.size) > 1] + 1]
    numbers = (_is_digit(left) | (left == 43) | (left == 45)) & _is_digit(right)
    bad = [
        (g, np.flatnonzero(~(_is_digit(g) | sign | (g == 10) | (g == 44)))),
        (g, at[~(leads | lone)]),
        (spaced, first[numbers | (left == 44) & (right == 44)]),
    ]
    lines = [int(np.count_nonzero(b[: pos[0]] == 10)) for b, pos in bad if pos.size]
    return min(lines, default=None)


def _number(squeezed: bytes, digit: np.ndarray, last: int) -> tuple[int, int]:
    """The unsigned number whose last digit is byte ``last`` of a body, and
    the byte before it (index -1 reads the final newline)."""
    start = last
    while digit[start - 1]:
        start -= 1
    return int(squeezed[start : last + 1]), squeezed[start - 1]


def _set_masks(squeezed: bytes, n: int) -> np.ndarray:
    """The mask of each set line of a body in format with spaces and tabs
    removed, in file order, parsed in blocks of whole lines."""
    blocks, start = [], 0
    while start < len(squeezed):
        stop = squeezed.index(b"\n", min(start + _TEXT_BLOCK, len(squeezed)) - 1) + 1
        blocks.append(_block_masks(squeezed[start:stop], n))
        start = stop
    return np.concatenate(blocks)


def _block_masks(squeezed: bytes, n: int) -> np.ndarray:
    """``_set_masks`` of one block, which ends in a newline (index -1 reads
    it).  Refuses the first element outside [1, n]."""
    g = np.frombuffer(squeezed, dtype=np.uint8)
    digit = _is_digit(g)
    last = np.flatnonzero(digit[:-1] & ~digit[1:])  # each number's last digit
    prev = last - 1
    two = digit[prev]
    value = (10 * (np.where(two, g[prev], 48) - 48) + g[last] - 48).astype(np.int16)
    prev -= two
    before = g[prev]  # the byte before a number of one or two digits
    for i in np.flatnonzero(digit[prev]):  # three digits or more
        v, before[i] = _number(squeezed, digit, last[i])
        value[i] = min(v, n + 1)
    value[before == 45] *= -1
    out = np.flatnonzero((value < 1) | (value > n))
    if out.size:
        v, sign = _number(squeezed, digit, last[out[0]])
        raise ValueError(f"element {-v if sign == 45 else v} outside ground set [1, {n}]")
    # line i holds the numbers from lo[i] up to hi[i], and is blank iff empty
    breaks = np.flatnonzero(g == 10)
    hi = np.searchsorted(last, breaks)
    lo = np.concatenate(([0], hi[:-1]))
    masks = np.zeros(breaks.size, dtype=np.int64)
    some = hi > lo
    masks[some] = np.bitwise_or.reduceat(np.left_shift(np.int64(1), value - 1), lo[some])
    return masks[np.diff(breaks, prepend=-1) > 1]


def family_from_text(text: str) -> Family:
    """Parse the family text format; blank lines and ``#`` comments ignored.

    The first line that is not blank is the header; every later one is a
    set: ``-``, or integers between commas, with spaces or tabs around them
    and empty tokens skipped.  The set lines are checked as one byte array
    and parsed in blocks of whole lines of about ``_TEXT_BLOCK`` bytes.  On
    the first line outside that format, the error is the one ``int()``
    raises for its first bad token, or ``bad family line`` where ``int()``
    would take every token (``1_0``, a non-ASCII digit or space).  Errors
    come in the order of a line-by-line parse: tokens, the ground set size,
    elements, then k and each set's size.
    """
    lines = text.splitlines()
    head = next((i for i, raw in enumerate(lines) if raw.split("#", 1)[0].strip()), None)
    if head is None:
        raise ValueError("family text has no header line")
    parts = dict(p.partition("=")[::2] for p in lines[head].split("#", 1)[0].split())
    if not {"n", "k"} <= parts.keys() or "" in parts.values():
        raise ValueError(f"bad family header: {lines[head]!r}")
    n, k = int(parts["n"]), None if parts["k"] == "-" else int(parts["k"])
    body = (re.sub("#.*", "", "\n".join(lines[head + 1 :])) + "\n").encode()
    squeezed = body.translate(None, b" \t")
    bad = _first_bad_line(body, squeezed)
    if bad is not None:
        raw = lines[head + 1 + bad]
        line = raw.split("#", 1)[0].strip()
        for token in filter(None, line.split(",") if line != "-" else ()):
            int(token)  # the error of the first token that is no integer
        raise ValueError(f"bad family line: {raw!r}")
    if not 1 <= n <= MAX_GROUND:
        raise ValueError(f"ground set size {n} outside [1, {MAX_GROUND}]")
    return family_from_masks(n, k, _set_masks(squeezed, n))


def load_family(path) -> Family:
    with open(path, "r", encoding="utf-8") as fh:
        return family_from_text(fh.read())


def save_family(fam: Family, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(family_to_text(fam))
