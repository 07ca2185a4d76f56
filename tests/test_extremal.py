import hashlib
from itertools import combinations

import pytest

from divlab.bitfam import family_from_masks, is_t_intersecting, stats
from divlab.constructions import build_hub_block_family, build_window_majority
from divlab.extremal import enumerate_maximal_intersecting, max_diversity_search

from oracles import all_ksets, family_as_sets


def brute_force_maximal_families(n, k):
    """Oracle: filter all subsets of the k-sets (tiny parameters only)."""
    ksets = all_ksets(n, k)
    nv = len(ksets)
    assert nv <= 10, "oracle reserved for tiny instances"
    out = []
    for code in range(1, 1 << nv):
        fam = [ksets[i] for i in range(nv) if code >> i & 1]
        if not all(a & b for a, b in combinations(fam, 2)):
            continue
        addable = any(
            all(c & f for f in fam) for c in ksets if c not in fam
        )
        if not addable:
            out.append(frozenset(fam))
    return set(out)


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2)])
def test_enumeration_matches_brute_force(n, k):
    enum = enumerate_maximal_intersecting(n, k)
    got = {frozenset(family_as_sets(f)) for f in enum.families}
    assert got == brute_force_maximal_families(n, k)
    assert enum.complete


def test_enumeration_counts_4_2():
    enum = enumerate_maximal_intersecting(4, 2)
    assert len(enum.families) == 8  # 4 stars + 4 triangles
    assert max(stats(f).diversity for f in enum.families) == 1


def test_enumeration_counts_5_2():
    enum = enumerate_maximal_intersecting(5, 2)
    assert len(enum.families) == 15  # 5 stars + 10 triangles
    assert max(stats(f).diversity for f in enum.families) == 1


def test_enumeration_6_3_complementary_pair_selections():
    enum = enumerate_maximal_intersecting(6, 3)
    assert len(enum.families) == 1024  # one choice per complementary pair
    full = (1 << 6) - 1
    for fam in enum.families:
        assert len(fam) == 10
        members = set(fam)
        # exactly one of each complementary pair of 3-sets
        assert all((m in members) != ((m ^ full) in members) for m in members)
    assert max(stats(f).diversity for f in enum.families) == 5


def test_enumeration_7_3_soundness_and_count():
    enum = enumerate_maximal_intersecting(7, 3)
    assert enum.complete
    # every 35th family: intersecting and maximal (soundness spot check)
    ksets = all_ksets(7, 3)
    for fam in enum.families[::35]:
        sets = family_as_sets(fam)
        assert all(a & b for a, b in combinations(sets, 2))
        assert not any(
            all(c & f for f in sets) for c in ksets if frozenset(c) not in set(sets)
        )
    # regression pins, from this enumeration (witness verified by hand scan)
    assert len(enum.families) == 6127
    assert max(stats(f).diversity for f in enum.families) == 5


@pytest.mark.parametrize(
    "n,k,digest",
    [
        (4, 2, "3c567cb70ed1e35b43dd0de7c61999b0d7bcfcaa56497f2b2fdf269b6df0a107"),
        (4, 3, "bc1d7b4f0f5b4363338e8bc3d1468ab112b8fb1c26715349ebf4629c16712d9b"),
        (5, 2, "813a57c56de7b8fddfb79a420ad19d6f6316d666dfd117f38334ceffa63dc0cd"),
        (5, 3, "aa22df59de37c7f0669435b26f555f72536f5ce4215ff11999b75b07ab722aef"),
        (6, 2, "0341dbf6c833d5f6c2584b11a1776a8335e31c3f04dc321bdfa35bfc268fe53b"),
        (6, 3, "207e22e6a53c88b2b3d52cc369295f7863f7370bab7f4b35877fe4b5503a7bbc"),
        (7, 2, "57264f4469ed776024a592071a81ad1061bd10d46f0009ca0c568e2bc219c283"),
        (7, 3, "d905c9dd64db4b38f6dd25b176146659d83ecea01e9760685811b3fb70b8858e"),
        (8, 2, "36b86d64ec365f286f3fdd5d6af45fc7f0026da2d498a3a2645dcc78c45bbb3b"),
        (8, 3, "942010588f859704cb1fa899ed4bbc9d7d05d38f93dec14040fb4837daed7f41"),
    ],
)
def test_enumeration_output_identity(n, k, digest):
    # sha256 of n, k, dtype and members of every family in output order,
    # recorded when each family was built by the validating
    # family_from_masks and sorted on its own; the construction from one
    # sort of all families must match it
    _assert_enumeration_digest(n, k, None, digest)


@pytest.mark.parametrize(
    "n,k,digest",
    [
        (4, 2, "b1d3bdad5e573334ac04e2850ff3ec4b7d7d051c4d44b3711fffcdf5ba6a041d"),
        (6, 3, "db9e006a05203926648a910cda55b808ba902d32dc67ee9d9f285b4a99e9a30e"),
        (7, 3, "f3ce0a97c77b8362136cb7f7733f059ad6f0b11e10ce666bf55d206dbc7ff154"),
        (8, 3, "527f51db282fa3792e07217e1b861a7889b517ed36bfa2b89a351fb508e33162"),
    ],
)
def test_capped_enumeration_output_identity(n, k, digest):
    # the first 7 families, recorded like the complete lists above
    _assert_enumeration_digest(n, k, 7, digest)


def _assert_enumeration_digest(n, k, cap, digest):
    families = enumerate_maximal_intersecting(n, k, cap=cap).families
    h = hashlib.sha256()
    for f in families:
        h.update(f"{f.n} {f.k} {f.members.dtype.str} {f.members.tolist()}\n".encode())
    assert h.hexdigest() == digest
    for f in families[:: max(1, len(families) // 50)]:
        assert f == family_from_masks(n, k, f.members)
        assert not f.members.flags.writeable


@pytest.mark.parametrize("n,k", [(0, 0), (3, 4), (64, 2), (4, -1)])
def test_enumeration_refuses_bad_parameters(n, k):
    with pytest.raises(ValueError):
        enumerate_maximal_intersecting(n, k)


def test_enumeration_refuses_a_negative_cap():
    with pytest.raises(ValueError):
        enumerate_maximal_intersecting(5, 2, cap=-3)
    enum = enumerate_maximal_intersecting(5, 2, cap=0)
    assert enum.families == [] and not enum.complete


def test_enumeration_cap_flags_partial():
    enum = enumerate_maximal_intersecting(6, 3, cap=100)
    assert not enum.complete
    assert len(enum.families) == 100


@pytest.mark.parametrize("n,k", [(4, 2), (5, 2), (6, 3), (7, 3), (6, 2), (7, 2), (8, 2)])
def test_search_matches_enumeration_oracle(n, k):
    enum = enumerate_maximal_intersecting(n, k)
    oracle = max(stats(f).diversity for f in enum.families)
    res = max_diversity_search(n, k, budget_seconds=120)
    assert res.complete
    assert res.best_diversity == oracle
    assert stats(res.witness).diversity == res.best_diversity
    assert is_t_intersecting(res.witness, 1)
    assert res.witness.k == k


@pytest.mark.parametrize("n,nodes", [(8, 424), (9, 720), (10, 1125), (11, 1645), (12, 2292)])
def test_search_certifies_k3_maxima(n, nodes):
    # n - 3 = C(n-3, 1); for n <= 11 a branch and bound over all k-sets gave
    # the same maxima.  A sound cut may only lower the node counts.
    res = max_diversity_search(n, 3, budget_seconds=120)
    assert res.complete
    assert res.node_count <= nodes
    assert res.best_diversity == n - 3
    assert is_t_intersecting(res.witness, 1)
    assert res.witness.k == 3
    assert stats(res.witness).diversity == res.best_diversity
    assert 0 <= res.elapsed_s < 120


def test_search_n_equals_2k_ends_on_budget():
    # any two 4-sets of [2..8] meet, so only the degree constraints prune
    res = max_diversity_search(8, 4, budget_seconds=0.05)
    assert not res.complete
    assert is_t_intersecting(res.witness, 1)
    assert res.witness.k == 4
    assert stats(res.witness).diversity == res.best_diversity >= 1


def test_search_monotonicity_justification_5_2():
    # adding any compatible set never decreases diversity (exhaustive at (5,2))
    ksets = all_ksets(5, 2)
    from itertools import combinations as comb

    for size in (1, 2, 3):
        for fam in comb(ksets, size):
            if not all(a & b for a, b in comb(fam, 2)):
                continue
            base = [set(s) for s in fam]
            gamma = _gamma(base)
            for c in ksets:
                if frozenset(c) in set(map(frozenset, fam)):
                    continue
                if all(c & f for f in fam):
                    assert _gamma(base + [set(c)]) >= gamma


def _gamma(sets):
    degrees = {}
    for s in sets:
        for e in s:
            degrees[e] = degrees.get(e, 0) + 1
    return len(sets) - (max(degrees.values()) if degrees else 0)


def test_search_seeded_incumbents_lower_bounds():
    res = max_diversity_search(10, 3, budget_seconds=60)
    assert res.best_diversity >= stats(build_hub_block_family(10, 3, 2)).diversity
    for r in (1, 2):
        assert res.best_diversity >= stats(build_window_majority(10, 3, r)).diversity
    assert res.best_diversity <= len(res.witness)  # trivial sanity


def test_search_budget_exhaustion_flags_incomplete():
    res = max_diversity_search(12, 4, budget_seconds=0.05)
    assert not res.complete
    assert res.best_diversity >= stats(build_hub_block_family(12, 4, 2)).diversity
    assert stats(res.witness).diversity == res.best_diversity


def test_search_rejects_bad_parameters():
    with pytest.raises(ValueError):
        max_diversity_search(5, 3, budget_seconds=1)  # n < 2k
    with pytest.raises(ValueError):
        max_diversity_search(4, 1, budget_seconds=1)
    with pytest.raises(ValueError):
        max_diversity_search(64, 2, budget_seconds=1)  # n > MAX_GROUND


@pytest.mark.parametrize("budget", [float("nan"), 0.0, -1.0])
def test_search_refuses_a_budget_that_is_not_positive(budget):
    # no time is ever past start + NaN, so a NaN budget never ran out
    with pytest.raises(ValueError):
        max_diversity_search(7, 3, budget_seconds=budget)


def test_search_takes_an_infinite_budget():
    res = max_diversity_search(7, 3, budget_seconds=float("inf"))
    assert res.complete and res.best_diversity == 5
