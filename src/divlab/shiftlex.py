"""Compression machinery: (i,j)-shifts and the lexicographic order on k-sets.

The lex order used here puts A before B iff min(A \\ B) < min(B \\ A); the
initial segment of that order on k-sets therefore starts at {1,...,k}.

On n <= CUBE_N points, ``shift_closure`` and ``is_shifted`` hold a family
as one Python int over the 2^n cube, the bits of its packed table as
bitfam lays it out, and take each (i,j)-shift as whole-cube operations
(``_cube_step``).  Larger ground sets shift the sorted mask array.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .bitfam import (
    MAX_GROUND,
    Family,
    family_from_masks,
    ksubset_masks,
    pack_members,
    unpack,
)

# Largest n whose families are shifted on the 2^n cube.  Against the mask
# array, a closure of 200 (n // 3)-sets is 2.6x faster at n = 14, even at
# 16 and 3.6x slower at 18, where the cube's 2^n bits dominate.
CUBE_N = 14


def _shift(members: np.ndarray, i: int, j: int) -> np.ndarray:
    """The (i,j)-shift of an ascending mask array: each member holding j but
    not i becomes its image with i in place of j, unless the image is
    present.  Returns ``members`` itself when no member moves.  Only the
    members holding j but not i are searched for their images."""
    both = np.int64((1 << (i - 1)) | (1 << (j - 1)))
    movers = np.flatnonzero((members & both) == 1 << (j - 1))
    images = members[movers] ^ both
    pos = np.searchsorted(members, images).clip(max=len(members) - 1)
    movers = movers[members[pos] != images]
    if not movers.size:
        return members
    out = members.copy()
    out[movers] ^= both
    out.sort()
    return out


@functools.lru_cache(maxsize=None)  # at most CUBE_N entries, 28 KB at n = 14
def _cube_elements(n: int) -> tuple[int, ...]:
    """Entry b is the cube bitset of the subsets of [n] holding element b + 1."""
    points = np.arange(1 << n)
    return tuple(_to_cube(points[points >> b & 1 == 1], n) for b in range(n))


def _cube_step(cube: int, holds: tuple[int, ...], i: int, j: int) -> tuple[int, int]:
    """The members that the (i,j)-shift adds to the cube bitset, and d.

    A member m holding j but not i has the image m - 2^(j-1) + 2^(i-1):
    clearing bit j-1 and setting bit i-1 of m changes no other bit, so no
    borrow or carry crosses them.  Bit m of the cube therefore moves to bit
    m - d, d = 2^(j-1) - 2^(i-1), and a right shift by d moves every such
    member to its image at once; the images that miss the family are added.
    """
    d = (1 << (j - 1)) - (1 << (i - 1))
    return (cube & holds[j - 1] & ~holds[i - 1]) >> d & ~cube, d


def _to_cube(members: np.ndarray, n: int) -> int:
    return int.from_bytes(pack_members(members, n).tobytes(), "little")


def _from_cube(cube: int, n: int) -> np.ndarray:
    """The ascending masks of the cube bitset's members."""
    return unpack(np.frombuffer(cube.to_bytes(max(8, (1 << n) >> 3), "little"), dtype="<u8"))


def _refamily(fam: Family, members: np.ndarray) -> Family:
    """``fam`` if ``members`` is its own array, else the Family of the
    shifted members, which must be as many as fam's."""
    if members is fam.members:
        return fam
    out = family_from_masks(fam.n, fam.k, members)
    assert len(out) == len(fam), "shift must preserve family size"
    return out


def shift_family(fam: Family, i: int, j: int) -> Family:
    """The (i,j)-shift: move each member unless its image is already present.

    Preserves size and uniformity; preserves the intersecting property.
    """
    if not 1 <= i < j <= fam.n:
        raise ValueError(f"need 1 <= i < j <= n, got i={i}, j={j}, n={fam.n}")
    return _refamily(fam, _shift(fam.members, i, j))


def is_shifted(fam: Family) -> bool:
    """True iff every (i,j)-shift fixes the family.

    It suffices to check the n - 1 adjacent shifts (a, a+1): a member with
    a+1 but not a must find its image (a+1 replaced by a) in the family.
    Proof that adjacent stability gives (i,j)-stability for every i < j,
    any family, by induction on j - i: take a member G with j in G, i not
    in G.  If j - 1 is not in G, the (j-1, j)-shift gives
    G' = G - j + (j-1) in the family, and induction on (i, j-1) moves G' to
    G - j + i.  If j - 1 is in G (so i < j - 1), induction on (i, j-1) gives
    G'' = G - (j-1) + i, which holds j but not j - 1, and the (j-1, j)-shift
    moves it to G - j + i.  So each step walks an element of G in (i, j]
    down one free place.

    On the cube (n <= CUBE_N) the (a, a+1)-shift may add no member; on the
    mask array ``_shift`` must return its input for every a.
    """
    if fam.n > CUBE_N:
        return all(_shift(fam.members, a, a + 1) is fam.members for a in range(1, fam.n))
    cube, holds = _to_cube(fam.members, fam.n), _cube_elements(fam.n)
    return not any(_cube_step(cube, holds, a, a + 1)[0] for a in range(1, fam.n))


def shift_closure(fam: Family) -> Family:
    """One sweep of (i,j)-shifts, pairs in lex order (i, then j, ascending),
    on the cube bitset (n <= CUBE_N) or the raw mask array; the Family is
    built once, at the end.

    The result is shifted, and it is the fixed point of the loop that
    restarts the lex sweep at (1,2) after every effective shift, by this
    lemma (any family, uniform or not): order pairs lexicographically; if F
    is (a,b)-stable for every (a,b) < (i,j), then S_ij(F) is (a,b)-stable
    for every (a,b) <= (i,j).  (Take G in S_ij(F) with b in G, a not in G;
    check G - b + a in S_ij(F) in three cases: a < i with G kept from F,
    a < i with G an image G = A - j + i, and a = i < b < j, where G is kept.)
    So effective shifts only ever come in strictly increasing pair order,
    and after the last pair every pair fixes the family.
    """
    n, members = fam.n, fam.members
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    if n > CUBE_N:
        for i, j in pairs:
            members = _shift(members, i, j)
        return _refamily(fam, members)
    holds = _cube_elements(n)
    cube = start = _to_cube(members, n)
    for i, j in pairs:
        add, d = _cube_step(cube, holds, i, j)
        cube ^= add | add << d
    return _refamily(fam, members if cube == start else _from_cube(cube, n))


def _lex_prefix(m: int, k: int, n: int) -> np.ndarray:
    """Masks of the first m k-sets of [n] in lex order.  The first C(n-1, k-1)
    of them hold the least element, so a short prefix skips the full list."""
    if 0 < k <= n and math.comb(n - 1, k - 1) >= m:
        return (_lex_prefix(m, k - 1, n - 1) << 1) | 1
    return ksubset_masks(n, k)[:m]


def lex_segment(m: int, k: int, n: int) -> Family:
    """Initial segment of the lex order on k-sets of [n]: its first m sets."""
    if not 0 <= m <= math.comb(n, k):
        raise ValueError(f"segment size {m} outside [0, C({n},{k})]")
    return family_from_masks(n, k, _lex_prefix(m, k, n))


def lex_partner_maxima(b_size: int, a: int, b: int, m: int) -> np.ndarray:
    """Entry s is the longest lex prefix of a-sets of [m] whose members all
    meet the first s b-sets in lex order, for s = 0, ..., b_size.

    The first a-set in lex order disjoint from a b-set B is the a least
    elements of [m] \\ B (none when m - b < a); entry s is the least lex rank
    of those a-sets over the first s b-sets.
    """
    if not 1 <= a <= m or not 1 <= b <= m or m > MAX_GROUND:
        raise ValueError(f"need 1 <= a,b <= m <= {MAX_GROUND}, got a={a}, b={b}, m={m}")
    if not 0 <= b_size <= math.comb(m, b):
        raise ValueError(f"partner size {b_size} outside [0, C({m},{b})]")
    ca = math.comb(m, a)
    if b_size == 0 or m - b < a:
        return np.full(b_size + 1, ca, dtype=np.int64)
    free = ~_lex_prefix(b_size, b, m) & ((1 << m) - 1)
    rest = free
    for _ in range(a):  # clear the a lowest bits; free ^ rest is then those bits
        rest = rest & (rest - 1)
    a_masks = ksubset_masks(m, a)
    order = np.argsort(a_masks)
    ranks = order[np.searchsorted(a_masks[order], free ^ rest)]
    return np.minimum.accumulate(np.concatenate(([ca], ranks)))

