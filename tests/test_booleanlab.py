import gc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divlab import bitfam
from divlab import booleanlab as bl
from divlab.bitfam import flip, pack_table, weight_histogram, without
from divlab.bounds import binom
from divlab.constructions import (
    JuntaSpec,
    build_dictator_defining,
    build_majority_defining,
    build_run_dominance_defining,
)

from oracles import (
    avoiding_counts_unpacked,
    gamma_p_by_enumeration,
    influence_by_enumeration,
    intersecting_by_pairs,
    mu_by_enumeration,
    pivotal_counts_unpacked,
    up_closed_by_scan,
    weight_counts_of_masks,
)

HALF = Fraction(1, 2)
BIASES = (Fraction(1, 4), Fraction(2, 5), HALF)


@st.composite
def small_juntas(draw):
    j = draw(st.integers(2, 7))
    members = draw(st.lists(st.integers(0, (1 << j) - 1), min_size=0, max_size=24))
    table = np.zeros(1 << j, dtype=bool)
    table[members] = True
    return JuntaSpec(table)


@st.composite
def cyclic_juntas(draw):
    """A random table OR-ed over its rotations: invariant under rotating
    the coordinates."""
    j = draw(st.integers(1, 8))
    members = draw(st.lists(st.integers(0, (1 << j) - 1), min_size=0, max_size=12))
    points = np.arange(1 << j)
    table = np.zeros(1 << j, dtype=bool)
    table[members] = True
    rotated = table.copy()
    for _ in range(j - 1):
        points = (points >> 1) | ((points & 1) << (j - 1))
        rotated |= table[points]
    return JuntaSpec(rotated)


def test_mu_majority_half():
    assert bl.biased_measure(build_majority_defining(1), HALF) == HALF


def test_mu_majority_quarter():
    got = bl.biased_measure(build_majority_defining(1), Fraction(1, 4))
    assert got == Fraction(10, 64)  # 3 * (1/16)(3/4) + 1/64


@pytest.mark.parametrize("r", range(1, 7))
def test_mu_run_dominance_half(r):
    assert bl.biased_measure(build_run_dominance_defining(r), HALF) == HALF


def test_mu_float_bias_is_exact_at_its_binary_value():
    assert bl.biased_measure(build_majority_defining(1), 0.25) == Fraction(10, 64)
    p = Fraction(0.45)  # 0.45 as a double, not 9/20
    assert p != Fraction(9, 20)
    assert bl.biased_measure(build_majority_defining(1), 0.45) == 3 * p**2 - 2 * p**3


def test_mu_rejects_bad_bias():
    with pytest.raises(ValueError):
        bl.biased_measure(build_majority_defining(1), Fraction(3, 2))
    with pytest.raises(ValueError):
        bl.biased_measure(build_majority_defining(1), 1)
    with pytest.raises(TypeError):
        bl.biased_measure(build_majority_defining(1), None)


def test_influence_majority3():
    per = bl.total_influence(build_majority_defining(1), HALF).per_coordinate
    assert per == (HALF, HALF, HALF)


def test_influence_monotone_identity_terms():
    # the up-set formula p^-1 * 3/8 - (1-p)^-1 * 1/8 at p = 1/2
    per = bl.total_influence(build_majority_defining(1), HALF).per_coordinate
    assert per[0] == 2 * Fraction(3, 8) - 2 * Fraction(1, 8)


def test_influence_dictator():
    spec = build_dictator_defining(5)
    for p in BIASES:
        per = bl.total_influence(spec, p).per_coordinate
        assert per[0] == 1
        assert per[2] == 0


def test_total_influence_majority3():
    prof = bl.total_influence(build_majority_defining(1), HALF)
    assert prof.total == Fraction(3, 2)
    assert sum(prof.per_coordinate) == prof.total


@pytest.mark.parametrize("r", range(1, 6))
def test_total_influence_majority_closed_form(r):
    prof = bl.total_influence(build_majority_defining(r), HALF)
    assert prof.total == Fraction((2 * r + 1) * binom(2 * r, r), 1 << (2 * r))


def test_run_dominance_influences_rotation_symmetric():
    prof = bl.total_influence(build_run_dominance_defining(5), HALF)
    values = set(prof.per_coordinate)
    assert len(values) == 1


def test_gamma_p_majority3():
    assert bl.biased_diversity(build_majority_defining(1), HALF) == Fraction(1, 8)


def test_gamma_p_dictator():
    assert bl.biased_diversity(build_dictator_defining(4), HALF) == 0


@pytest.mark.parametrize("r", (1, 2, 3))
@pytest.mark.parametrize("p", BIASES)
def test_symmetric_identity(r, p):
    # p * I_i + gamma_p / (1-p) == mu_p for rotation-invariant up-sets
    for spec in (build_run_dominance_defining(r), build_majority_defining(r)):
        mu = bl.biased_measure(spec, p)
        gp = bl.biased_diversity(spec, p)
        i1 = bl.total_influence(spec, p).per_coordinate[0]
        assert p * i1 + gp / (1 - p) == mu


@given(small_juntas(), st.fractions(Fraction(1, 10), Fraction(9, 10)))
@settings(max_examples=60)
def test_mu_matches_enumeration_oracle(spec, p):
    got = bl.biased_measure(spec, p)
    want = mu_by_enumeration(list(spec.defining), spec.center_size, p)
    assert got == want


@given(small_juntas(), st.fractions(Fraction(1, 10), Fraction(9, 10)))
@settings(max_examples=60)
def test_influence_matches_enumeration_oracle(spec, p):
    j = spec.center_size
    got = bl.total_influence(spec, p).per_coordinate
    want = [influence_by_enumeration(list(spec.defining), j, i, p) for i in range(1, j + 1)]
    assert list(got) == want


@given(small_juntas(), st.fractions(Fraction(1, 10), Fraction(9, 10)))
@settings(max_examples=40)
def test_gamma_p_matches_enumeration_oracle(spec, p):
    if spec.center_size < 1 or len(spec.defining) == 0:
        assert bl.biased_diversity(spec, p) == 0
        return
    got = bl.biased_diversity(spec, p)
    assert got == gamma_p_by_enumeration(list(spec.defining), spec.center_size, p)


@given(cyclic_juntas(), st.fractions(Fraction(1, 10), Fraction(9, 10)))
@settings(max_examples=40)
def test_cyclic_tables_match_enumeration_oracles_on_every_coordinate(spec, p):
    # a cyclic table computes coordinate 1 only; every coordinate, and the
    # minimum over them, must still match the oracles
    j, members = spec.center_size, list(spec.defining)
    assert bl._is_cyclic(spec.membership_table())
    prof = bl.total_influence(spec, p)
    want = [influence_by_enumeration(members, j, i, p) for i in range(1, j + 1)]
    assert list(prof.per_coordinate) == want
    assert prof.total == sum(want)
    got = bl.biased_diversity(spec, p)
    assert got == (gamma_p_by_enumeration(members, j, p) if members else 0)


def test_dictator_and_non_cyclic_tables_take_every_coordinate():
    rng = np.random.Generator(np.random.Philox(key=3))
    table = rng.random(1 << 6) < 0.5
    table[1] = not table[2]  # points {1} and {2} are rotations of each other
    for spec in (build_dictator_defining(5), JuntaSpec(table)):
        j = spec.center_size
        assert not bl._is_cyclic(spec.membership_table())
        assert bl._coordinates(spec.membership_table(), j) == range(j)
    for r in (1, 3):
        for spec in (build_run_dominance_defining(r), build_majority_defining(r)):
            assert bl._coordinates(spec.membership_table(), 2 * r + 1) == range(1)


@given(st.integers(1, 5), st.fractions(Fraction(1, 10), Fraction(9, 10)))
@settings(max_examples=40)
def test_complement_measure_sums_to_one(r, p):
    spec = build_run_dominance_defining(r)
    assert bl.biased_measure(spec, p) + bl.biased_measure(spec, 1 - p) == 1


def test_exact_and_approx_agree():
    # a float bias is exact at its binary value, which is within 1 ulp of p
    spec = build_run_dominance_defining(4)
    for p in BIASES:
        exact, at_float = bl.biased_measure(spec, p), bl.biased_measure(spec, float(p))
        assert abs(float(at_float) - float(exact)) <= 1e-12 * float(exact)


def test_up_closed_and_intersecting_tables():
    maj = build_majority_defining(2)
    assert bl.spec_is_up_closed(maj)
    assert bl.spec_is_intersecting(maj)
    exactly_one = JuntaSpec(np.isin(np.arange(8), [0b001, 0b010, 0b100]))
    assert not bl.spec_is_up_closed(exactly_one)
    assert not bl.spec_is_intersecting(exactly_one)
    only_empty = JuntaSpec(np.arange(8) == 0)
    assert bl.spec_is_intersecting(only_empty)  # vacuous single member


def table_sets(table):
    """The members of a dense table on [j] as sets of elements 1..j."""
    j = int(table.size).bit_length() - 1
    return [frozenset(e + 1 for e in range(j) if m >> e & 1) for m in np.flatnonzero(table)]


def up_closure(j, generators):
    points = np.arange(1 << j)
    table = np.zeros(1 << j, dtype=bool)
    for g in generators:
        table |= (points & g) == g
    return table


def dense_table(j, kind, rng):
    """A random table, the up-closure of random sets, or such an up-closure
    with one point flipped."""
    if kind == "random":
        return rng.random(1 << j) < rng.choice([0.05, 0.5, 0.95])
    table = up_closure(j, rng.integers(0, 1 << j, size=rng.integers(1, 5)))
    if kind == "flipped":
        table[rng.integers(0, 1 << j)] ^= True
    return table


def assert_dense_checks_match_oracles(table):
    j = int(table.size).bit_length() - 1
    sets = table_sets(table)
    assert bl.is_up_closed_table(table) == up_closed_by_scan(sets, j)
    assert bl.is_intersecting_table(table) == intersecting_by_pairs(sets)


@given(
    st.integers(0, 12),
    st.sampled_from(["random", "up", "flipped"]),
    st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_dense_checks_match_oracles(j, kind, seed):
    assert_dense_checks_match_oracles(dense_table(j, kind, np.random.default_rng(seed)))


@pytest.mark.parametrize("j", [5, 6, 7])
def test_dense_checks_match_oracles_around_one_word(j):
    # 2^5 points fill half a 64-bit word, 2^6 one word, 2^7 two
    rng = np.random.default_rng(j)
    verdicts = set()
    for kind in ("random", "up", "flipped") * 40:
        table = dense_table(j, kind, rng)
        assert_dense_checks_match_oracles(table)
        verdicts.add((bl.is_up_closed_table(table), bl.is_intersecting_table(table)))
    assert len(verdicts) == 4  # every combination of the two verdicts was met


@pytest.mark.parametrize("j", range(0, 9))
def test_dense_checks_on_empty_and_only_empty_set(j):
    empty = np.zeros(1 << j, dtype=bool)
    assert bl.is_up_closed_table(empty) and bl.is_intersecting_table(empty)
    only_empty = empty.copy()
    only_empty[0] = True
    assert bl.is_intersecting_table(only_empty)  # vacuous single member
    assert bl.is_up_closed_table(only_empty) == (j == 0)
    full = ~empty
    assert bl.is_up_closed_table(full)
    assert bl.is_intersecting_table(full) == (j == 0)


def verdict_tables(j, rng):
    """Random tables, the empty table, {{}}, the full cube and {{1}}, which
    is intersecting and, from j = 2 on, not up-closed."""
    tables = [dense_table(j, kind, rng) for kind in ("random", "up", "flipped") * 8]
    empty = np.zeros(1 << j, dtype=bool)
    only_empty, only_one = empty.copy(), empty.copy()
    only_empty[0] = only_one[1] = True
    return tables + [empty, only_empty, ~empty, only_one]


@pytest.mark.parametrize("j", range(1, 9))
def test_spec_verdicts_match_oracles_in_either_order_from_one_closure(monkeypatch, j):
    # both verdicts of a spec, asked in either order, against the oracles;
    # each spec builds one up-closure for the two, wherever it is built
    closures, build = [], bitfam.up_closure

    def counted(words, j):
        closures.append(j)
        return build(words, j)

    monkeypatch.setattr(bitfam, "up_closure", counted)
    monkeypatch.setattr(bl, "up_closure", counted)
    seen = set()
    for table in verdict_tables(j, np.random.default_rng(j)):
        sets = table_sets(table)
        want = (intersecting_by_pairs(sets), up_closed_by_scan(sets, j))
        for first_intersecting in (True, False):
            spec = JuntaSpec(table)
            del closures[:]
            if first_intersecting:
                got = (bl.spec_is_intersecting(spec), bl.spec_is_up_closed(spec))
            else:
                got = (bl.spec_is_up_closed(spec), bl.spec_is_intersecting(spec))[::-1]
            assert got == want, (j, np.flatnonzero(table))
            assert closures == [j]
        seen.add(want)
    # on one point the one family that is not intersecting, {{}, {1}}, is up-closed
    assert len(seen) == (3 if j == 1 else 4)


def test_spec_verdicts_are_two_booleans_dropped_with_the_spec():
    gc.collect()  # specs of earlier tests held in reference cycles
    before = len(bl._VERDICTS)
    spec = JuntaSpec(np.arange(8) == 1)  # {{1}} on [3]: intersecting, not up-closed
    assert bl.spec_is_up_closed(spec) is False
    assert bl.spec_is_intersecting(spec) is True
    assert bl._VERDICTS[spec] == (True, False)
    assert all(type(v) is bool for v in bl._VERDICTS[spec])
    assert len(bl._VERDICTS) == before + 1
    del spec
    gc.collect()
    assert len(bl._VERDICTS) == before


def assert_packed_counts_match_unpacked(table):
    """Weight counts of the members, of the pivotal points of every
    coordinate and of the members avoiding it, and the biased diversity."""
    words, j = pack_table(table)
    members = np.flatnonzero(table)
    assert np.array_equal(weight_histogram(words, j), weight_counts_of_masks(members, j))
    for b in range(j):
        pivotal = words ^ flip(words, b)
        assert np.array_equal(weight_histogram(pivotal, j), pivotal_counts_unpacked(table, j, b))
        assert np.array_equal(
            weight_histogram(without(words, b), j),
            avoiding_counts_unpacked(table, j, b),
        )
    if j:
        spec = JuntaSpec(table)
        assert np.array_equal(bl.weight_counts(spec), weight_counts_of_masks(members, j))
        p = Fraction(2, 5)
        want = min(
            bl._measure_from_weight_counts(avoiding_counts_unpacked(table, j, b), j, p)
            for b in range(j)
        )
        assert bl.biased_diversity(spec, p) == want


@pytest.mark.parametrize("j", range(0, 13))
def test_packed_weight_counts_match_unpacked_oracles(j):
    # j < 6 fits in part of one word, j = 6 is one word, b >= 6 flips and
    # clears whole words
    rng = np.random.default_rng(j)
    for density in (0.05, 0.5, 0.95):
        assert_packed_counts_match_unpacked(rng.random(1 << j) < density)


@pytest.mark.parametrize("r", range(1, 6))
def test_packed_weight_counts_match_unpacked_oracles_on_juntas(r):
    for spec in (build_run_dominance_defining(r), build_majority_defining(r)):
        assert_packed_counts_match_unpacked(spec.membership_table())


def test_russo_dictator():
    # mu_p = p
    spec = build_dictator_defining(5)
    for p in BIASES:
        assert bl.measure_derivative(spec, p) == 1 == bl.total_influence(spec, p).total


def test_russo_majority3_against_analytic_oracle():
    # mu_p = 3p^2 - 2p^3 and total influence 6p(1-p)
    spec = build_majority_defining(1)
    for p in BIASES:
        assert bl.measure_derivative(spec, p) == 6 * p - 6 * p**2
        assert bl.total_influence(spec, p).total == 6 * p * (1 - p)


def test_russo_window_majority_r4():
    spec = build_majority_defining(4)
    for p in BIASES + (0.45,):
        assert bl.measure_derivative(spec, p) == bl.total_influence(spec, p).total


@given(small_juntas(), st.fractions(Fraction(1, 10), Fraction(9, 10)))
@settings(max_examples=60)
def test_measure_derivative_is_total_influence_on_up_sets(spec, p):
    up = JuntaSpec(up_closure(spec.center_size, np.flatnonzero(spec.membership_table())))
    assert bl.measure_derivative(up, p) == bl.total_influence(up, p).total


def test_counterexample_table_r2_columns_equal():
    rep = bl.counterexample_table([2])
    rows = rep.tables["rows"]
    assert len(rows) == 2
    run, maj = rows
    for col in ("mu", "gamma_p", "deficit", "total_influence"):
        assert run[col] == maj[col]
    assert run["ratio"] == 1.0


def test_counterexample_table_deficits_positive_at_r5():
    rep = bl.counterexample_table([5])
    assert rep.tables["rows"][0]["p"] == pytest.approx(0.3)  # 1/2 - 1/5
    for row in rep.tables["rows"]:
        assert row["deficit"] > 0


def test_counterexample_table_rejects_out_of_range():
    with pytest.raises(ValueError):
        bl.counterexample_table([1, 2])
    with pytest.raises(ValueError):
        bl.counterexample_table([13])
