"""Runners for the acceptance criteria.

Each criterion function performs one end-to-end verification sweep into the
Report it is given, whose assertions decide pass/fail.  ``quick`` shrinks the
parameter ranges for smoke runs; the full ranges are the acceptance gate.
``run_all`` is the one place that builds, names, times and finishes those
reports: ``criterion-<name>`` after the criterion's ``CRITERIA`` key, with
``quick`` as the first parameter.  A criterion only adds its tables,
checks, notes, seed and further parameters.  ``run_all`` fills the combined
report it is given, which its caller builds and finishes.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import Callable

import numpy as np

from . import booleanlab as bl
from . import bounds, extremal, shiftlex
from .bitfam import are_cross_intersecting, family_from_masks, is_t_intersecting, ksubset_masks, stats
from .constructions import (
    build_dictator_defining,
    build_hub_block_family,
    build_majority_defining,
    build_run_dominance_defining,
    fano_plane,
)
from .randfam import random_intersecting_family
from .report import Report
from .runstat import mc_disagreements, rho_distribution

BIASES = (Fraction(1, 4), Fraction(2, 5), Fraction(1, 2))


def _grid(quick: bool):
    n_hi = 12 if quick else 20
    for n in range(5, n_hi + 1):
        for k in range(2, min(6, (n - 1) // 2) + 1):
            yield n, k


def criterion_01_a2_diversity(report: Report, quick: bool) -> None:
    """Diversity of the two-out-of-three family equals C(n-3, k-2) on the grid."""
    mismatches = []
    cells = 0
    for n, k in _grid(quick):
        cells += 1
        got = stats(build_hub_block_family(n, k, 2)).diversity
        want = bounds.diversity_bound(n, k)
        if got != want:
            mismatches.append({"n": n, "k": k, "enumerated": got, "bound": want})
    report.add_table("mismatches", mismatches)
    report.parameters["cells"] = cells
    report.check("diversity_mismatches", 0, len(mismatches))


def criterion_02_a3_size_identity(report: Report, quick: bool) -> None:
    """Size of the u=3 hub-block family matches both closed forms on the grid."""
    mismatches = []
    arithmetic_failures = []
    cells = 0
    for n, k in _grid(quick):
        if k < 3:
            continue
        cells += 1
        closed1 = bounds.intersecting_size_bound(n, k, 3)
        closed2 = 3 * bounds.binom(n - 3, k - 2) + bounds.binom(n - 3, k - 3)
        if closed1 != closed2:
            arithmetic_failures.append({"n": n, "k": k, "closed1": closed1, "closed2": closed2})
        size = len(build_hub_block_family(n, k, 3))
        if size != closed1:
            mismatches.append({"n": n, "k": k, "enumerated": size, "closed": closed1})
    report.parameters["enumerated_cells"] = cells
    report.add_table("mismatches", mismatches + arithmetic_failures)
    report.check("closed_forms_agree_failures", 0, len(arithmetic_failures))
    report.check("enumerated_size_mismatches", 0, len(mismatches))
    report.note("families built for k >= 3 only (the u=3 block needs u <= k)")


def criterion_03_run_dominance_counts(report: Report, quick: bool) -> None:
    """Run-dominance defining families: 2^(2r) members, intersecting and
    up-closed, each verified exhaustively for every r <= 12 (r <= 8 quick)."""
    r_max = 8 if quick else 12
    rows = []
    count_bad = structure_bad = 0
    for r in range(1, r_max + 1):
        spec = build_run_dominance_defining(r)
        members = int(np.count_nonzero(spec.membership_table()))
        count_ok = members == 1 << (2 * r)
        inter = bl.spec_is_intersecting(spec)
        up = bl.spec_is_up_closed(spec)
        rows.append(
            {
                "r": r,
                "members": members,
                "expected": 1 << (2 * r),
                "count_ok": count_ok,
                "intersecting": inter,
                "up_closed": up,
            }
        )
        count_bad += not count_ok
        structure_bad += not (inter and up)
    report.add_table("rows", rows)
    report.check("member_count_mismatches", 0, count_bad)
    report.check("structure_failures", 0, structure_bad)


def criterion_04_cross_weighted_sweep(report: Report, quick: bool) -> None:
    """Zero violations of |A|max + weight*|B| <= C(m,a) over all admissible tuples."""
    m_max = 10 if quick else 14
    rows = bounds.cross_bound_sweep(m_max, 4, 4, (2, 3))
    report.add_table("rows", rows)
    report.parameters["tuples"] = len(rows)
    report.check("total_violations", 0, sum(row["violations"] for row in rows))


def criterion_05_lex_cross_pairs(report: Report, quick: bool) -> None:
    """Lex segments of the sizes of random cross-intersecting pairs stay
    cross-intersecting (maximal-partner construction)."""
    seed = report.seed = 20240813
    pairs = report.parameters["pairs"] = 200 if quick else 1000
    rng = np.random.Generator(np.random.Philox(key=seed))
    failures = []
    for trial in range(pairs):
        n = int(rng.integers(4, 13))
        a = int(rng.integers(1, min(6, n - 1) + 1))
        b = int(rng.integers(1, min(6, n - 1) + 1))
        a_all = ksubset_masks(n, a)
        size = int(rng.integers(1, a_all.size + 1))
        chosen = a_all[rng.choice(a_all.size, size=size, replace=False)]
        b_all = ksubset_masks(n, b)
        partner = b_all[np.all((b_all[:, None] & chosen[None, :]) != 0, axis=1)]
        la = shiftlex.lex_segment(size, a, n)
        lb = shiftlex.lex_segment(int(partner.size), b, n)
        if not are_cross_intersecting(la, lb):
            failures.append({"trial": trial, "n": n, "a": a, "b": b, "a_size": size, "b_size": int(partner.size)})
    report.add_table("failures", failures)
    report.check("cross_intersecting_pairs", pairs, pairs - len(failures))


def criterion_06_boolean_identities(report: Report, quick: bool) -> None:
    """Exact boolean identities for the run-dominance and majority juntas:
    half measure at bias 1/2 (both are self-dual on 2r+1 points), and the
    symmetric identity p*I_i + gamma_p/(1-p) = mu_p for every coordinate i.

    Both families are cyclically symmetric, so mu(members without i) =
    gamma_p for every i, and the identity is the up-set influence formula
    I_i = mu(with i)/p - mu(without i)/(1-p) checked against the
    pivotal-count influence.  For such a table ``total_influence`` and
    ``biased_diversity`` compute coordinate 1 only and give every other
    coordinate its value; the identity is still checked per coordinate."""
    r_max = 5 if quick else 8
    half = Fraction(1, 2)
    bad_half = bad_identity = 0
    rows = []
    for r in range(1, r_max + 1):
        for name, spec in (
            ("run_dominance", build_run_dominance_defining(r)),
            ("window_majority", build_majority_defining(r)),
        ):
            bad_half += bl.biased_measure(spec, half) != half
            for p in BIASES:
                mu = bl.biased_measure(spec, p)
                gp = bl.biased_diversity(spec, p)
                per = bl.total_influence(spec, p).per_coordinate
                bad_identity += sum(p * inf + gp / (1 - p) != mu for inf in per)
                rows.append(
                    {"r": r, "family": name, "p": p, "mu": mu, "gamma_p": gp}
                )
    report.add_table("rows", rows)
    report.check("half_measure_failures", 0, bad_half)
    report.check("symmetric_identity_failures", 0, bad_identity)


def criterion_07_majority_influence(report: Report, quick: bool) -> None:
    """Majority total influence matches its closed form; run dominance and
    window majority have equal tables for r <= 4, and from r = 4 on the
    influence ratio of the two at bias 1/2 strictly decreases with r."""
    r_max = 6 if quick else 10
    half = Fraction(1, 2)
    closed_bad = unequal = 0
    ratios: dict[int, Fraction] = {}
    rows = []
    for r in range(1, r_max + 1):
        maj, run = build_majority_defining(r), build_run_dominance_defining(r)
        total = bl.total_influence(maj, half).total
        closed = Fraction((2 * r + 1) * bounds.binom(2 * r, r), 1 << (2 * r))
        if total != closed:
            closed_bad += 1
        row = {"r": r, "majority_influence": total, "closed_form": closed}
        if r <= 4:
            row["tables_equal"] = bool(np.array_equal(maj.table, run.table))
            unequal += not row["tables_equal"]
        if r >= 4:
            run_total = bl.total_influence(run, half).total
            ratios[r] = run_total / total
            row["run_dominance_influence"] = run_total
            row["ratio"] = float(ratios[r])
        rows.append(row)
    report.add_table("rows", rows)
    report.check("closed_form_mismatches", 0, closed_bad)
    report.check("tables_unequal_r_le_4", 0, unequal)
    report.check(
        "ratio_strictly_decreasing_from_r4",
        True,
        all(ratios[r + 1] < ratios[r] for r in range(4, r_max)),
    )


def criterion_08_russo(report: Report, quick: bool) -> None:
    """Russo's lemma, exactly: d mu_p / dp equals the total influence, as
    Fractions, for the dictator on 5 points, window majority for r <= 6
    (r <= 3 quick) and run dominance for r = 5..8 (r = 5 quick; below 5 it
    is majority), at every bias of BIASES and at 9/20."""
    cases = [("dictator_j5", build_dictator_defining(5))]
    for r in range(1, (3 if quick else 6) + 1):
        cases.append((f"window_majority_r{r}", build_majority_defining(r)))
    for r in range(5, (5 if quick else 8) + 1):
        cases.append((f"run_dominance_r{r}", build_run_dominance_defining(r)))
    rows = []
    for name, spec in cases:
        for p in BIASES + (Fraction(9, 20),):
            derivative = bl.measure_derivative(spec, p)
            influence = bl.total_influence(spec, p).total
            rows.append(
                {
                    "case": name,
                    "p": p,
                    "derivative": derivative,
                    "total_influence": influence,
                    "equal": derivative == influence,
                }
            )
    report.add_table("rows", rows)
    report.check("exact_mismatches", 0, sum(not row["equal"] for row in rows))


def criterion_09_rho_stats(report: Report, quick: bool) -> None:
    """Exact tie-length distributions and expected long-run counts, counted
    from run-partition pairs, vs Monte Carlo scans (``mc_disagreements``:
    the cells with at least 100 expected hits, at 6 standard errors); the
    assertions of both reports (among them E[#runs >= t] = L 2^-t [t < L]
    + 2^(1-L)) are carried over."""
    seed = report.seed = 22
    lengths = (11,) if quick else (11, 15, 19)
    samples = 10**5 if quick else 10**6
    cell_failures = []
    for length in lengths:
        exact = rho_distribution(length, "exact")
        mc = rho_distribution(length, "mc", samples=samples, seed=seed)
        cell_failures += [{"L": length, **cell} for cell in mc_disagreements(exact, mc)]
        report.add_table(f"exact_tail_L{length}", exact.tables["rho_tail"])
        report.add_table(f"expected_runs_L{length}", exact.tables["expected_runs"])
        for other in (exact, mc):
            for a in other.assertions:
                report.check(f"L{length}_{other.parameters['mode']}_{a.name}", a.expected, a.actual)
    report.add_table("mc_cell_failures", cell_failures)
    report.check("mc_within_6_se_failures", 0, len(cell_failures))


def criterion_10_extremal(report: Report, quick: bool) -> None:
    """The search equals the maximal-family oracle at tiny parameters, and it
    certifies the k = 3 table: for 8 <= n <= 16 (n <= 12 quick) the maximum
    diversity at (n, 3) is C(n-3, 1) = n - 3, with every search complete and
    every witness re-checked as intersecting with that diversity.

    k = 4 is left out: the search reaches 20 at (9, 4) but does not finish
    its proof within 60 s, so no k = 4 entry can be certified here.  So the
    bound C(n-3, k-2) is certified for k = 3 only; ``bounds.diversity_bound``
    gives its range (conjectured for n > 3k, proved for n >= ck, false at
    (19, 6)).
    """
    rows = []
    mismatches = 0
    for n, k in [(4, 2), (5, 2), (6, 3), (7, 3)]:
        enum = extremal.enumerate_maximal_intersecting(n, k)
        oracle_best = max(stats(f).diversity for f in enum.families)
        res = extremal.max_diversity_search(n, k, budget_seconds=300.0)
        if not (res.complete and res.best_diversity == oracle_best):
            mismatches += 1
        rows.append(
            {"n": n, "k": k, "oracle_max": oracle_best, "search_max": res.best_diversity,
             "maximal_families": len(enum.families), "search_complete": res.complete,
             "nodes": res.node_count, "elapsed_s": res.elapsed_s}
        )
    report.add_table("oracle_equivalence", rows)
    report.check("oracle_mismatches", 0, mismatches)
    budget = 60.0 if quick else 600.0
    table = []
    for n in range(8, (12 if quick else 16) + 1):
        res = extremal.max_diversity_search(n, 3, budget_seconds=budget)
        wit = res.witness
        table.append(
            {"n": n, "k": 3, "best": res.best_diversity, "bound": math.comb(n - 3, 1),
             "complete": res.complete, "nodes": res.node_count, "elapsed_s": res.elapsed_s,
             "budget_seconds": budget, "witness_size": len(wit),
             "witness_ok": is_t_intersecting(wit, 1) and stats(wit).diversity == res.best_diversity}
        )
    report.add_table("k3_table", table)
    report.check("k3_incomplete", 0, sum(not row["complete"] for row in table))
    report.check("k3_best_not_bound", 0, sum(row["best"] != row["bound"] for row in table))
    report.check("k3_witness_failures", 0, sum(not row["witness_ok"] for row in table))


def criterion_11_triangle_chain(report: Report, quick: bool) -> None:
    """Center-decomposition chain and cross-intersecting pairs on the
    two-out-of-three family, the seven-line plane, and random intersecting
    families."""
    seed = report.seed = 7011
    trials = report.parameters["trials"] = 10 if quick else 50
    rng = random.Random(seed)
    cases = [("a2_12_3", build_hub_block_family(12, 3, 2)), ("fano", fano_plane())]
    for t in range(trials):
        cases.append((f"random_{t}", random_intersecting_family(12, 3, rng)))
    failures = []
    for name, fam in cases:
        rep = bounds.verify_triangle_chain(fam)
        if not rep.ok:
            failures.append({"case": name, "failed": [a.name for a in rep.failed_assertions()]})
    report.add_table("failures", failures)
    report.parameters["cases"] = len(cases)
    report.check("chain_or_cross_failures", 0, len(failures))


def criterion_12_shifting(report: Report, quick: bool) -> None:
    """Shift closures: shifted, size-preserving, intersecting-preserving,
    and 2-intersecting after removing the sets through element 1."""
    seed = report.seed = 1202
    trials = report.parameters["trials"] = 40 if quick else 200
    rng = random.Random(seed)
    failures = []
    for t in range(trials):
        fam = random_intersecting_family(10, 4, rng)
        closed = shiftlex.shift_closure(fam)
        checks = {
            "shifted": shiftlex.is_shifted(closed),
            "size_preserved": len(closed) == len(fam),
            "intersecting": is_t_intersecting(closed, 1),
        }
        avoiding = family_from_masks(
            closed.n, closed.k, closed.members[(closed.members & 1) == 0], presorted=True
        )
        checks["restriction_2_intersecting"] = is_t_intersecting(avoiding, 2)
        if not all(checks.values()):
            failures.append({"trial": t, **checks})
    report.add_table("failures", failures)
    report.check("shift_closure_failures", 0, len(failures))


CRITERIA: list[tuple[str, Callable[[Report, bool], None]]] = [
    ("01-a2-diversity", criterion_01_a2_diversity),
    ("02-a3-size", criterion_02_a3_size_identity),
    ("03-run-dominance", criterion_03_run_dominance_counts),
    ("04-lemma-sweep", criterion_04_cross_weighted_sweep),
    ("05-lex-pairs", criterion_05_lex_cross_pairs),
    ("06-boolean-identities", criterion_06_boolean_identities),
    ("07-majority-influence", criterion_07_majority_influence),
    ("08-russo", criterion_08_russo),
    ("09-rho-stats", criterion_09_rho_stats),
    ("10-extremal", criterion_10_extremal),
    ("11-triangle-chain", criterion_11_triangle_chain),
    ("12-shifting", criterion_12_shifting),
]


def run_all(combined: Report, quick: bool) -> list[Report]:
    """The criterion reports; ``combined`` gets one check per criterion and
    the ``criteria`` table."""
    reports = []
    for name, criterion in CRITERIA:
        report = Report(command=f"criterion-{name}", parameters={"quick": quick})
        criterion(report, quick)
        reports.append(report.finish())
        combined.check(report.command, True, report.ok)
    combined.add_table(
        "criteria",
        [{"criterion": rep.command, "ok": rep.ok, "duration_s": rep.duration_s} for rep in reports],
    )
    return reports
