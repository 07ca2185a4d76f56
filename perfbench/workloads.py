"""The benchmark's workloads, their correctness gate and their layer metrics.

Every call into ``divlab`` goes through ``tr.call(fn, *args, tag=, work=)``,
which records a span named ``<module>.<function>[:<tag>]``; the module is
the layer the call's time is charged to, ``work`` its count of work done.
Each workload returns nothing: its checks are recorded on the ``Gate``.

Only public ``divlab`` functions are called, with the library's defaults.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import numpy as np

from divlab import (
    bitfam,
    booleanlab,
    bounds,
    constructions,
    extremal,
    randfam,
    runstat,
    shiftlex,
)

# The modules whose self time is measured.  cli, verify and report only
# orchestrate and are never called by the benchmark.
LAYERS = (
    "bitfam",
    "booleanlab",
    "bounds",
    "constructions",
    "extremal",
    "randfam",
    "runstat",
    "shiftlex",
)

# Digests of exact result tables, recorded from the seed commit of the
# benchmark.  A faster scan or builder must reproduce them bit for bit.
EXPECTED_DIGESTS = json.loads(
    (Path(__file__).with_name("expected_digests.json")).read_text(encoding="utf-8")
)

SIZES = {
    "junta": {
        "full": {"r_max": 11, "rho_length": 21, "counterexample_r": (2, 9)},
        "smoke": {"r_max": 5, "rho_length": 11, "counterexample_r": (2, 4)},
    },
    "sweep": {
        "full": {
            "lift": (3, 26, 8),
            "uniform": (24, 7),
            "hub_grid_n": 20,
            "pairwise": (22, 6, 2),
            "random_families": (100, 10, 4),
            "cross": (18, 5, 5, (2, 3)),
            "mc": (25, 2_000_000),
            # (n, k, known maximum diversity); every search must end complete.
            "search": ((9, 3, 6), (10, 3, 7), (11, 3, 8)),
            "enumerate": (7, 3, 5),
        },
        "smoke": {
            "lift": (2, 12, 4),
            "uniform": (12, 4),
            "hub_grid_n": 10,
            "pairwise": (12, 4, 2),
            "random_families": (5, 8, 3),
            "cross": (10, 3, 3, (2, 3)),
            "mc": (15, 20_000),
            "search": ((6, 3, 5), (7, 3, 5)),
            "enumerate": (6, 3, 5),
        },
    },
}

# Large enough that no extremal search in SIZES is ever cut short.
SEARCH_BUDGET_S = 150.0

# Monte Carlo expected-run rows are checked where the sample holds at least
# this many runs, at this many standard errors (a false alarm is ~1e-9).
MC_MIN_EXPECTED_RUNS = 100
MC_TOLERANCE_SE = 6.0


class CheckFailed(Exception):
    """An output of the program differs from its known value."""


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


class Gate:
    """Counts checked operations; an exception or failed check fails the op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @contextmanager
    def op(self, name: str):
        self.attempted += 1
        try:
            yield
        except Exception as exc:  # every failure of one op is recorded, the run goes on
            self.failures.append(f"{name}: {type(exc).__name__}: {exc}")


def _cell(v) -> str:
    if isinstance(v, Fraction):
        return f"{v.numerator}/{v.denominator}"
    return repr(v)


def table_digest(rows, keys) -> str:
    """sha256 of the named columns of a result table, Fractions as num/den."""
    text = json.dumps([[_cell(row[k]) for k in keys] for row in rows])
    return hashlib.sha256(text.encode()).hexdigest()


def check_digest(key: str, rows, keys) -> None:
    got = table_digest(rows, keys)
    want = EXPECTED_DIGESTS.get(key)
    check(got == want, f"digest of {key} is {got}, recorded {want}")


def junta(tr, gate: Gate, seed: int, size: dict) -> None:
    """Exhaustive 2^L path: dominance tables, dense up-set checks, exact rho, biased table."""
    for r in range(1, size["r_max"] + 1):
        length = 2 * r + 1
        with gate.op(f"in_t_table L={length}"):
            table = tr.call(runstat.in_t_table, length, work=1 << length)
            check(int(table.sum()) == 1 << (length - 1), "dominant_count")
        with gate.op(f"run dominance defining r={r}"):
            spec = tr.call(constructions.build_run_dominance_defining, r)
            check(len(spec.defining) == 1 << (2 * r), "member count 2^(2r)")
        points = length << length
        with gate.op(f"intersecting r={r}"):
            check(tr.call(booleanlab.spec_is_intersecting, spec, work=points), "intersecting")
        with gate.op(f"up-closed r={r}"):
            check(tr.call(booleanlab.spec_is_up_closed, spec, work=points), "up-closed")
    length = size["rho_length"]
    with gate.op(f"rho exact L={length}"):
        rep = tr.call(runstat.rho_distribution, length, "exact", tag="exact", work=1 << length)
        check(rep.ok, f"report assertions {[a.name for a in rep.failed_assertions()]}")
        check_digest(f"rho_tail.L{length}", rep.tables["rho_tail"], ("k", "prob"))
        check_digest(
            f"expected_runs.L{length}", rep.tables["expected_runs"], ("t", "expected_runs")
        )
    lo, hi = size["counterexample_r"]
    with gate.op(f"counterexample table r={lo}..{hi}"):
        rep = tr.call(booleanlab.counterexample_table, range(lo, hi + 1))
        check(rep.ok, f"report assertions {[a.name for a in rep.failed_assertions()]}")
        check_digest(
            f"exact_values.r{lo}-{hi}",
            rep.tables["exact_values"],
            ("r", "p", "family", "mu", "gamma_p", "deficit", "total_influence"),
        )


def extremal_search(tr, gate: Gate, size: dict) -> None:
    """Certified branch-and-bound maxima, plus the maximal-family oracle."""
    for n, k, best in size["search"]:
        with gate.op(f"max diversity search ({n},{k})"):
            res = tr.call(
                extremal.max_diversity_search,
                n,
                k,
                budget_seconds=SEARCH_BUDGET_S,
                tag=f"n{n}k{k}",
                work=lambda res: res.node_count,
            )
            check(res.complete, "search complete")
            check(res.best_diversity == best, f"best {res.best_diversity} != {best}")
            check(tr.call(bitfam.is_t_intersecting, res.witness), "witness intersecting")
            check(tr.call(bitfam.stats, res.witness).diversity == best, "witness diversity")
    n, k, best = size["enumerate"]
    with gate.op(f"enumerate maximal ({n},{k})"):
        enum = tr.call(extremal.enumerate_maximal_intersecting, n, k)
        check(enum.complete, "enumeration complete")
        top = max(tr.call(bitfam.stats, fam).diversity for fam in enum.families)
        check(top == best, f"oracle max {top} != {best}")


def _pairs(fam) -> int:
    return len(fam) * (len(fam) - 1) // 2


def sweep(tr, gate: Gate, seed: int, size: dict) -> None:
    """k-subset enumeration, shift closures, pairwise checks, random-word
    scans and the certified extremal searches."""
    r, n, k = size["lift"]
    with gate.op(f"lift run dominance r={r} to ({n},{k})"):
        spec = tr.call(constructions.build_run_dominance_defining, r)
        lifted = tr.call(constructions.lift_junta, spec, n, k, work=math.comb(n, k))
        c = spec.center_size
        traces = np.bitwise_count(spec.defining.members.astype(np.uint64))
        weights = np.bincount(traces, minlength=c + 1)[: k + 1]
        want = sum(int(cnt) * math.comb(n - c, k - w) for w, cnt in enumerate(weights))
        check(len(lifted) == want, f"lift size {len(lifted)} != {want}")
        in_center = lifted.members & ((1 << c) - 1)
        check(bool(spec.membership_table()[in_center].all()), "lift traces")

    n, k = size["uniform"]
    with gate.op(f"full uniform ({n},{k})"):
        fam = tr.call(constructions.full_uniform_family, n, k, work=math.comb(n, k))
        check(len(fam) == math.comb(n, k), "C(n,k) members")

    for n in range(5, size["hub_grid_n"] + 1):
        for k in range(2, min(6, (n - 1) // 2) + 1):
            with gate.op(f"hub block diversity ({n},{k})"):
                fam = tr.call(constructions.build_hub_block_family, n, k, 2)
                div = tr.call(bitfam.stats, fam).diversity
                bound = tr.call(bounds.diversity_bound, n, k)
                check(div == bound == math.comb(n - 3, k - 2), f"diversity {div}, bound {bound}")

    n, k, u = size["pairwise"]
    with gate.op(f"pairwise intersecting hub block ({n},{k},{u})"):
        fam = tr.call(constructions.build_hub_block_family, n, k, u)
        check(len(fam) == 3 * math.comb(n - 3, k - 2) + math.comb(n - 3, k - 3), "hub size")
        check(tr.call(bitfam.is_t_intersecting, fam, work=_pairs(fam)), "intersecting")

    count, n, k = size["random_families"]
    rng = random.Random(seed)
    for i in range(count):
        with gate.op(f"random family {i} shift closure"):
            fam = tr.call(randfam.random_intersecting_family, n, k, rng, work=1)
            closed = tr.call(shiftlex.shift_closure, fam, work=1)
            check(tr.call(shiftlex.is_shifted, closed), "closure is shifted")
            check(len(closed) == len(fam), "closure keeps size")
            check(tr.call(bitfam.is_t_intersecting, closed, 1, work=_pairs(closed)), "intersecting")
            avoiding = tr.call(
                bitfam.family_from_masks,
                closed.n,
                closed.k,
                closed.members[(closed.members & 1) == 0],
                presorted=True,
            )
            check(
                tr.call(bitfam.is_t_intersecting, avoiding, 2, work=_pairs(avoiding)),
                "sets avoiding 1 are 2-intersecting",
            )

    tuples = tr.call(bounds.admissible_cross_bound_tuples, *size["cross"])
    for m, a, b, w in tuples:
        with gate.op(f"cross weighted bound ({m},{a},{b},{w})"):
            rep = tr.call(bounds.verify_cross_weighted_bound, m, a, b, w)
            check(rep.ok, f"{len(rep.violations)} violations, worst slack {rep.worst_slack}")

    length, samples = size["mc"]
    with gate.op(f"rho mc L={length}"):
        rep = tr.call(
            runstat.rho_distribution,
            length,
            "mc",
            samples=samples,
            seed=seed,
            tag="mc",
            work=samples,
        )
        check(rep.ok, f"report assertions {[a.name for a in rep.failed_assertions()]}")
        # E[#runs of length >= t] = L 2^-t + 2^(1-L) on the circle, for t < L.
        for row in rep.tables["expected_runs"]:
            t = row["t"]
            exact = length * 2.0**-t + 2.0 ** (1 - length)
            if t < length and exact * samples >= MC_MIN_EXPECTED_RUNS:
                err = abs(row["expected_runs"] - exact)
                check(err <= MC_TOLERANCE_SE * row["stderr"], f"expected runs t={t} off by {err}")

    extremal_search(tr, gate, size)


WORKLOADS = {"junta": junta, "sweep": sweep}


# Per-layer metrics: name -> (unit, how it is derived from span totals).
# ``time`` sums the self time of the named spans, ``rate`` divides their
# summed work by it, ``work`` sums the work alone.
_SEARCH = "extremal.max_diversity_search:n{}k3"
LAYER_METRICS = {
    "runstat.in_t_table_s": ("s", "time", ["runstat.in_t_table"]),
    "runstat.exact_words_per_s": (
        "1/s",
        "rate",
        ["runstat.in_t_table", "runstat.rho_distribution:exact"],
    ),
    "runstat.rho_exact_s": ("s", "time", ["runstat.rho_distribution:exact"]),
    "runstat.mc_words_per_s": ("1/s", "rate", ["runstat.rho_distribution:mc"]),
    "booleanlab.dense_points_per_s": (
        "1/s",
        "rate",
        ["booleanlab.spec_is_intersecting", "booleanlab.spec_is_up_closed"],
    ),
    "booleanlab.counterexample_table_s": ("s", "time", ["booleanlab.counterexample_table"]),
    "constructions.defining_build_s": ("s", "time", ["constructions.build_run_dominance_defining"]),
    "constructions.lift_sets_per_s": ("1/s", "rate", ["constructions.lift_junta"]),
    "constructions.enum_sets_per_s": ("1/s", "rate", ["constructions.full_uniform_family"]),
    "bitfam.pairwise_pairs_per_s": ("1/s", "rate", ["bitfam.is_t_intersecting"]),
    "bitfam.stats_s": ("s", "time", ["bitfam.stats"]),
    "shiftlex.closure_families_per_s": ("1/s", "rate", ["shiftlex.shift_closure"]),
    "shiftlex.is_shifted_s": ("s", "time", ["shiftlex.is_shifted"]),
    "bounds.cross_sweep_s": ("s", "time", ["bounds.verify_cross_weighted_bound"]),
    "randfam.families_per_s": ("1/s", "rate", ["randfam.random_intersecting_family"]),
    **{f"extremal.nodes.n{n}k3": ("count", "work", [_SEARCH.format(n)]) for n in (9, 10, 11)},
    "extremal.search_s.n11k3": ("s", "time", [_SEARCH.format(11)]),
    "extremal.nodes_per_s": ("1/s", "rate", [_SEARCH.format(n) for n in (9, 10, 11)]),
    "extremal.enumerate_s": ("s", "time", ["extremal.enumerate_maximal_intersecting"]),
}

# Every per-layer metric a traced run reports, with its unit.
LAYER_UNITS = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()}
LAYER_UNITS.update({f"{layer}.self_s": "s" for layer in LAYERS})
LAYER_UNITS.update({"proc.cpu_s": "s", "trace.coverage_pct": "%"})


def layer_metrics(totals: dict) -> dict:
    """Per-layer metric values from {span name: (self seconds, work)}.

    A metric whose spans did not run on this workload reads 0.
    """
    out = {}
    for name, (_, kind, spans) in LAYER_METRICS.items():
        seconds = sum(totals.get(s, (0.0, 0))[0] for s in spans)
        work = sum(totals.get(s, (0.0, 0))[1] for s in spans)
        if kind == "time":
            out[name] = seconds
        elif kind == "work":
            out[name] = work
        else:
            out[name] = work / seconds if seconds > 0 else 0.0
    return out
