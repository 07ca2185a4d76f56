"""Builders for the named families.

All builders return canonical Families.  A family whose membership depends
only on the trace on a small center (star, hub-block, window majority, run
dominance) is lift_junta of a JuntaSpec, its membership table on that center.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import runstat
from .bitfam import MAX_TABLE_N, Family, check_enumeration, family_from_masks, ksubset_masks, make_family

# the largest r whose (2r+1)-point centre has a table
MAX_R = (MAX_TABLE_N - 1) // 2


@dataclass(frozen=True, eq=False)
class JuntaSpec:
    """A family whose membership depends only on the trace inside a center.

    The spec is its membership table: a read-only flat bool array over the
    2^center_size traces, entry m True iff m is admissible.  A writable
    table is copied; a read-only one is shared as it is.
    """

    table: np.ndarray

    def __post_init__(self) -> None:
        table = self.table
        if not isinstance(table, np.ndarray) or table.dtype != bool or table.ndim != 1:
            raise ValueError("membership table must be a flat bool array")
        j = table.size.bit_length() - 1
        if not 1 <= j <= MAX_TABLE_N or table.size != 1 << j:
            raise ValueError(f"table of {table.size} entries is not 2^j, 1 <= j <= {MAX_TABLE_N}")
        if table.flags.writeable:
            table = table.copy()
            table.setflags(write=False)
            object.__setattr__(self, "table", table)

    @property
    def center_size(self) -> int:
        return self.table.size.bit_length() - 1

    def membership_table(self) -> np.ndarray:
        """The read-only table itself; entry m is True iff m is a trace."""
        return self.table

    @property
    def defining(self) -> Family:
        """The admissible traces as a non-uniform Family over [center_size],
        built from the table on each access and not kept.  The indices of a
        2^j table are ascending and below 2^j, so they need no validation."""
        return Family(n=self.center_size, k=None, members=np.flatnonzero(self.table))

    def __repr__(self) -> str:
        return (
            f"JuntaSpec(center_size={self.center_size}, "
            f"defining_size={np.count_nonzero(self.table)})"
        )


def build_hub_block_family(n: int, k: int, u: int) -> Family:
    """k-sets that contain the whole block {2,...,u+1}, or contain element 1
    and meet the block: the lift of that rule's 2^(u+1)-entry table.

    For u=2 this is the 'two out of three' family {F: |F cap [3]| >= 2}.
    """
    if not 2 <= u <= k:
        raise ValueError(f"need 2 <= u <= k, got u={u}, k={k}")
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    check_enumeration(n, k)  # before the table, which doubles with u
    block = ((1 << u) - 1) << 1
    traces = np.arange(1 << (u + 1))
    meets = traces & block
    return lift_junta(JuntaSpec((meets == block) | (((traces & 1) != 0) & (meets != 0))), n, k)


def build_window_majority(n: int, k: int, r: int) -> Family:
    """k-sets holding a strict majority (>= r+1 elements) of the window [1, 2r+1]."""
    if not 1 <= r <= k - 1:
        raise ValueError(f"need 1 <= r <= k-1, got r={r}, k={k}")
    w = 2 * r + 1
    if w > n:
        raise ValueError(f"window 2r+1={w} exceeds ground set n={n}")
    check_enumeration(n, k)  # before the table, which r > MAX_R lacks
    return lift_junta(build_majority_defining(r), n, k)


def build_run_dominance_family(n: int, k: int, r: int) -> Family:
    """k-sets whose trace on the circle [1, 2r+1] is run-dominant."""
    check_enumeration(n, k)  # before the table, which doubles with r
    return lift_junta(build_run_dominance_defining(r), n, k)


def build_run_dominance_defining(r: int) -> JuntaSpec:
    """Cyclic run-dominance junta on a (2r+1)-circle.

    A subset of the circle belongs iff its descending ones-run profile
    lexicographically beats its zeros-run profile.  The junta has exactly
    2^(2r) members, is intersecting and is closed upward.  Its table is the
    run-profile scan's cached array, shared without a copy.
    """
    if not 1 <= r <= MAX_R:
        raise ValueError(f"need 1 <= r <= {MAX_R}, got r={r}")
    return JuntaSpec(runstat.in_t_table(2 * r + 1))


def build_majority_defining(r: int) -> JuntaSpec:
    """Window-majority junta: traces of size >= r+1.

    A trace is its high r+1 bits above its low r bits, so the table is one
    compare of the two halves' popcount tables, row by high part, and no
    array but the table is larger than 2^(r+1).  The table is read-only, so
    the spec shares it without a copy.
    """
    if not 1 <= r <= MAX_R:
        raise ValueError(f"need 1 <= r <= {MAX_R}, got r={r}")
    lo = np.bitwise_count(np.arange(1 << r))
    hi = np.bitwise_count(np.arange(1 << (r + 1))).astype(np.int16)
    table = (lo[None, :] >= (r + 1 - hi)[:, None]).ravel()
    table.setflags(write=False)
    return JuntaSpec(table)


def build_dictator_defining(center_size: int) -> JuntaSpec:
    """Dictator junta: traces containing element 1."""
    if not 1 <= center_size <= MAX_TABLE_N:
        raise ValueError(f"center size {center_size} outside [1, {MAX_TABLE_N}]")
    return JuntaSpec(np.tile(np.array([False, True]), 1 << (center_size - 1)))


def lift_junta(spec: JuntaSpec, n: int, k: int) -> Family:
    """All k-sets of [n] whose trace on the center is a defining member: per
    trace weight w, the admitted w-subsets of the center times the (k-w)-sets
    above it, merged by one sort.  family_from_masks validates k and the bits."""
    c = spec.center_size
    if c > n:
        raise ValueError(f"center size {c} exceeds ground set {n}")
    check_enumeration(n, k)
    parts = [np.zeros(0, dtype=np.int64)]
    for w in range(max(0, k - (n - c)), min(k, c) + 1):
        traces = ksubset_masks(c, w)
        traces = traces[spec.table[traces]]
        parts.append(((ksubset_masks(n - c, k - w)[:, None] << c) | traces).ravel())
    members = np.concatenate(parts)
    del parts
    members.sort()
    return family_from_masks(n, k, members, presorted=True)


def full_uniform_family(n: int, k: int) -> Family:
    """All k-subsets of [n], sorted in place in a fresh enumeration; a
    shared (read-only) table is sorted into a copy."""
    masks = ksubset_masks(n, k)
    if masks.flags.writeable:
        masks.sort()
    else:
        masks = np.sort(masks)
    return family_from_masks(n, k, masks, presorted=True)


def star(n: int, k: int) -> Family:
    """All k-sets through element 1: the lift of the one-point dictator."""
    return lift_junta(build_dictator_defining(1), n, k)


def fano_plane() -> Family:
    """The seven lines of the projective plane of order 2, on ground set [7]."""
    lines = [
        (1, 2, 3),
        (1, 4, 5),
        (1, 6, 7),
        (2, 4, 6),
        (2, 5, 7),
        (3, 4, 7),
        (3, 5, 6),
    ]
    return make_family(7, 3, lines)
