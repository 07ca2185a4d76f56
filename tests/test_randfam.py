import hashlib
import random

import pytest

from divlab import randfam
from divlab.bitfam import is_t_intersecting
from divlab.randfam import random_intersecting_family

from oracles import greedy_intersecting_by_scan


def _digest(families):
    h = hashlib.sha256()
    for f in families:
        h.update(f"{f.n} {f.k} {f.members.dtype.str} {f.members.tolist()}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n,k,digest",
    [
        (10, 4, "ead63f1d9b67ca058bf79e3d55119e9145f54e590d7e74197fec285189888df6"),
        (12, 3, "dc35681f4f8aca74c816d45bf1aa39899787eab13f3bdb88f4795c1f421a98e0"),
    ],
)
def test_random_families_output_identity(n, k, digest):
    # sha256 of 200 families from seed 2217, recorded from the greedy that
    # checked each candidate against every kept set; the rng must end in
    # the same state, so later draws are unchanged too
    rng = random.Random(2217)
    families = [random_intersecting_family(n, k, rng) for _ in range(200)]
    assert _digest(families) == digest
    ref = random.Random(2217)
    for _ in range(200):
        greedy_intersecting_by_scan(n, k, ref)
    assert rng.getstate() == ref.getstate()


@pytest.mark.parametrize("row_cache_sets", [randfam.ROW_CACHE_SETS, 0])
@pytest.mark.parametrize("n,k", [(1, 0), (4, 1), (5, 2), (6, 3), (9, 4), (16, 4)])
def test_random_family_matches_the_scan_greedy_on_both_row_paths(monkeypatch, row_cache_sets, n, k):
    # (16, 4) has 1,820 k-sets, past ROW_CACHE_SETS, so it builds kept rows
    # on demand whatever the limit; a limit of 0 sends every size there
    monkeypatch.setattr(randfam, "ROW_CACHE_SETS", row_cache_sets)
    for seed in range(12):
        fam = random_intersecting_family(n, k, random.Random(seed))
        assert fam == greedy_intersecting_by_scan(n, k, random.Random(seed))
        assert is_t_intersecting(fam)


@pytest.mark.parametrize("n,k", [(3, 5), (4, -1), (0, 1)])
def test_random_family_refuses_k_outside_0_to_n_before_drawing(n, k):
    rng = random.Random(3)
    state = rng.getstate()
    with pytest.raises(ValueError, match="0 <= k <= n"):
        random_intersecting_family(n, k, rng)
    assert rng.getstate() == state
