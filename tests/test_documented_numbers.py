"""The numbers that docstrings state about named families, pinned.

``bounds.diversity_bound`` says C(n-3, k-2) fails just above 3k, at
(19, 6); ``booleanlab.counterexample_table`` gives the diversities of the
run-dominance, window-majority and two-out-of-three families at (17, 8).
"""

import numpy as np
import pytest

from divlab import booleanlab as bl
from divlab.bitfam import is_t_intersecting, mask_from_elements, stats
from divlab.bounds import diversity_bound
from divlab.constructions import (
    JuntaSpec,
    build_hub_block_family,
    build_run_dominance_family,
    build_window_majority,
    lift_junta,
)

# A 2-(6, 3, 2) design: every pair of points lies in two triples, and of two
# complementary triples exactly one is here.
DESIGN_TRIPLES = ("123", "124", "135", "245", "345", "236", "146", "346", "156", "256")


def t6_spec() -> JuntaSpec:
    """T6: the design's triples and every subset of [6] of at least 4 points."""
    traces = np.arange(1 << 6)
    table = np.bitwise_count(traces) >= 4
    for triple in DESIGN_TRIPLES:
        table[mask_from_elements((int(c) for c in triple), 6)] = True
    return JuntaSpec(table)


def test_t6_is_an_intersecting_up_set():
    spec = t6_spec()
    assert np.count_nonzero(spec.table) == 10 + 15 + 6 + 1
    assert bl.spec_is_intersecting(spec)
    assert bl.spec_is_up_closed(spec)


def test_t6_lift_beats_the_conjectured_maximum_at_19_6():
    fam = lift_junta(t6_spec(), 19, 6)
    assert len(fam) == 4109
    assert is_t_intersecting(fam)
    assert stats(fam).diversity == 1833
    assert diversity_bound(19, 6) == 1820


def test_run_dominance_lift_at_17_8():
    fam = build_run_dominance_family(17, 8, 5)
    assert len(fam) == 9185
    assert is_t_intersecting(fam)
    assert stats(fam).diversity == 4005


@pytest.mark.parametrize(
    "r,diversity", [(1, 3003), (2, 3663), (3, 3915), (4, 3985), (5, 3915), (6, 3663), (7, 3003)]
)
def test_window_majority_diversity_at_17_8(r, diversity):
    assert stats(build_window_majority(17, 8, r)).diversity == diversity


def test_two_out_of_three_diversity_at_17_8():
    assert stats(build_hub_block_family(17, 8, 2)).diversity == 3003
