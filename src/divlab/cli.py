"""Command-line front end and experiment orchestration.

Exit codes: 0 all assertions passed, 1 assertion failure, 2 usage error,
3 resource-cap refusal.  Reports are written as JSON (--json), with every
result table, and as CSV (--csv), with every table but the JSON-only ones
(the exact rationals of ``boolean counterexample-table``).  Identical argv,
including the seed, reproduces byte-identical result tables.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from typing import Optional

from . import booleanlab as bl
from . import bounds, extremal, runstat, shiftlex, verify
from .bitfam import (
    KSUBSET_CAP,
    Family,
    FamilyStats,
    are_cross_intersecting,
    is_t_intersecting,
    load_family,
    save_family,
    stats,
)
from .constructions import (
    JuntaSpec,
    build_dictator_defining,
    build_hub_block_family,
    build_majority_defining,
    build_run_dominance_defining,
    build_window_majority,
    fano_plane,
    full_uniform_family,
    lift_junta,
    star,
)
from .errors import ResourceCapError
from .report import Report


def parse_bias(text: str) -> Fraction:
    """'2/5' -> Fraction(2, 5); a decimal is exact too: '0.45' -> Fraction(9, 20)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bias {text!r} has a zero denominator") from None


def parse_r_range(text: str) -> list[int]:
    """'2..10' -> [2,...,10]; '5' -> [5]; '2,5,7' -> [2,5,7]."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    if "," in text:
        return [int(x) for x in text.split(",") if x]
    return [int(text)]


def word_from_string(text: str) -> tuple[int, int]:
    """Binary word literal, most significant character = position 1."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"word literal must be nonempty over 0/1, got {text!r}")
    mask = 0
    for pos, c in enumerate(text, start=1):
        if c == "1":
            mask |= 1 << (pos - 1)
    return mask, len(text)


def _cap_check(n: int, k: int) -> None:
    """Refuse an enumeration the k-subset kernel would refuse, before any work
    (a run-dominance lift builds its defining table first)."""
    if math.comb(n, k) > KSUBSET_CAP:
        raise ResourceCapError(f"C({n},{k}) exceeds the enumeration cap 2^26")


def _refuse_unread(args, names) -> None:
    """Refuse the options among ``names`` (unset by default) that the action does not read."""
    passed = ["--" + name.replace("_", "-") for name in names if getattr(args, name) is not None]
    if passed:
        raise ValueError(f"{' '.join(passed)} not read by this {args.command} action")


def _junta_for(args) -> JuntaSpec:
    kind = args.family
    if kind == "run-dominance":
        return build_run_dominance_defining(args.r)
    if kind == "window-majority":
        return build_majority_defining(args.r)
    if kind == "dictator":
        return build_dictator_defining(2 * args.r + 1)
    raise ValueError(f"unknown junta family {kind!r}")


# ---------------------------------------------------------------------------
# command handlers (each returns a Report or a list of Reports)
# ---------------------------------------------------------------------------


# family kind -> (the arguments it reads, its builder); every kind that reads
# --k enumerates the k-subsets of [n]
_FAMILY_KINDS = {
    "hub-block": (("n", "k", "u"), lambda a: build_hub_block_family(a.n, a.k, a.u)),
    "window-majority": (("n", "k", "r"), lambda a: build_window_majority(a.n, a.k, a.r)),
    "star": (("n", "k"), lambda a: star(a.n, a.k)),
    "full": (("n", "k"), lambda a: full_uniform_family(a.n, a.k)),
    "fano": ((), lambda a: fano_plane()),
    "run-dominance-lift": (
        ("n", "k", "r"),
        lambda a: lift_junta(build_run_dominance_defining(a.r), a.n, a.k),
    ),
}


def _stats_row(fam: Family, st: FamilyStats) -> dict:
    """The row that ``family build`` and ``family stats`` report."""
    return {
        "n": fam.n,
        "k": fam.k,
        "size": st.size,
        "max_degree": st.max_degree,
        "max_degree_element": st.max_degree_element,
        "diversity": st.diversity,
    }


def cmd_family(args) -> Report:
    if args.action == "build":
        used, build = _FAMILY_KINDS[args.kind]
        if "k" in used:
            _cap_check(args.n, args.k)
        fam = build(args)
        params = {"kind": args.kind, **{name: getattr(args, name) for name in used}}
        report = Report(command="family-build", parameters=params)
        row = {**_stats_row(fam, stats(fam)), "intersecting": is_t_intersecting(fam, 1)}
        report.add_table("rows", [row])
        if args.out:
            save_family(fam, args.out)
            report.note(f"family written to {args.out}")
        return report.finish()
    if args.action == "stats":
        params = {"in": args.infile}
        fam = load_family(args.infile)
        st = stats(fam)
        report = Report(command="family-stats", parameters=params)
        report.add_table("rows", [_stats_row(fam, st)])
        report.add_table(
            "degrees", [{"element": i + 1, "degree": d} for i, d in enumerate(st.degrees)]
        )
        return report.finish()
    if args.action == "check":
        params = {"in": args.infile, "t": args.t, "cross": args.cross}
        fam = load_family(args.infile)
        report = Report(command="family-check", parameters=params)
        if args.cross:
            other = load_family(args.cross)
            report.check("cross_intersecting", True, are_cross_intersecting(fam, other))
        else:
            report.check(f"{args.t}_intersecting", True, is_t_intersecting(fam, args.t))
        return report.finish()
    raise ValueError(f"unknown family action {args.action!r}")


def cmd_decompose(args) -> Report:
    fam = load_family(args.infile)
    return bounds.verify_triangle_chain(fam)


def cmd_lemma_sweep(args) -> Report:
    single = args.m is not None
    used = ("m", "a", "b", "cprime") if single else ("m_max", "a_max", "b_max", "cprime_list")
    params = {name: getattr(args, name) for name in used}
    report = Report(command="lemma-sweep", parameters=params)
    if single:
        if args.a is None or args.b is None:
            raise ValueError("lemma-sweep --m needs --a and --b")
        rep = bounds.verify_cross_weighted_bound(args.m, args.a, args.b, args.cprime)
        report.add_table("rows", rep.rows)
        report.check("violations", 0, len(rep.violations))
        report.check("worst_slack_nonnegative", True, rep.worst_slack >= 0)
    else:
        rows = bounds.cross_bound_sweep(
            args.m_max, args.a_max, args.b_max, tuple(args.cprime_list)
        )
        report.add_table("rows", rows)
        report.check("violations", 0, sum(row["violations"] for row in rows))
    return report.finish()


def cmd_lex(args) -> Report:
    params = {"op": args.op}
    if args.op == "segment":
        params.update({"m": args.m, "k": args.k, "n": args.n})
        seg = shiftlex.lex_segment(args.m, args.k, args.n)
        report = Report(command="lex-segment", parameters=params)
        report.add_table(
            "rows", [{"set": ",".join(map(str, s))} for s in seg.member_sets()]
        )
        return report.finish()
    if args.op == "partner-max":
        params.update({"b_size": args.b_size, "a": args.a, "b": args.b, "m": args.m})
        value = shiftlex.lex_partner_max(args.b_size, args.a, args.b, args.m)
        report = Report(command="lex-partner-max", parameters=params)
        report.add_table("rows", [{"a_max": value}])
        return report.finish()
    raise ValueError(f"unknown lex op {args.op!r}")


def cmd_shift(args) -> Report:
    params = {"in": args.infile, "op": args.op, "i": args.i, "j": args.j}
    fam = load_family(args.infile)
    report = Report(command=f"shift-{args.op}", parameters=params)
    if args.op == "closure":
        out = shiftlex.shift_closure(fam)
        report.check("closure_is_shifted", True, shiftlex.is_shifted(out))
        report.check("size_preserved", len(fam), len(out))
    elif args.op == "apply":
        if args.i is None or args.j is None:
            raise ValueError("shift apply needs --i and --j")
        out = shiftlex.shift_family(fam, args.i, args.j)
        report.check("size_preserved", len(fam), len(out))
    elif args.op == "is-shifted":
        report.add_table("rows", [{"is_shifted": shiftlex.is_shifted(fam)}])
        out = None
    else:
        raise ValueError(f"unknown shift op {args.op!r}")
    if args.out and out is not None:
        save_family(out, args.out)
        report.note(f"family written to {args.out}")
    return report.finish()


def cmd_boolean(args) -> Report:
    if args.action == "counterexample-table":
        _refuse_unread(args, ("family", "p", "i"))
        return bl.counterexample_table(parse_r_range(args.r))
    _refuse_unread(args, () if args.action == "influence" else ("i",))
    r_values = parse_r_range(args.r)
    if len(r_values) != 1:
        raise ValueError(f"{args.action} takes a single r, got {args.r!r}")
    args.r = r_values[0]
    args.family = args.family or "run-dominance"
    spec_params = {"family": args.family, "r": args.r}
    spec = _junta_for(args)
    p = parse_bias("1/2" if args.p is None else args.p)
    if args.action == "mu":
        m = bl.biased_measure(spec, p)
        report = Report(command="boolean-mu", parameters={**spec_params, "p": p})
        report.add_table("rows", [{"mu_exact": m, "mu": float(m)}])
        return report.finish()
    if args.action == "influence":
        report = Report(
            command="boolean-influence",
            parameters={**spec_params, "p": p},
        )
        if args.i is not None:
            m = bl.coordinate_influence(spec, args.i, p)
            report.add_table("rows", [{"i": args.i, "influence_exact": m, "influence": float(m)}])
        else:
            prof = bl.total_influence(spec, p)
            rows = [
                {"i": i + 1, "influence_exact": m, "influence": float(m)}
                for i, m in enumerate(prof.per_coordinate)
            ]
            rows.append({"i": "total", "influence_exact": prof.total, "influence": float(prof.total)})
            report.add_table("rows", rows)
        return report.finish()
    if args.action == "gammap":
        m = bl.biased_diversity(spec, p)
        report = Report(command="boolean-gammap", parameters={**spec_params, "p": p})
        report.add_table("rows", [{"gamma_p_exact": m, "gamma_p": float(m)}])
        return report.finish()
    raise ValueError(f"unknown boolean action {args.action!r}")


def cmd_rho(args) -> Report:
    if args.action == "dist":
        length = 11 if args.L is None else args.L
        mode = args.mode or "exact"
        _refuse_unread(args, ("word", "t") + (("samples", "seed") if mode == "exact" else ()))
        return runstat.rho_distribution(length, mode, args.samples, args.seed)
    if args.action == "profile":
        _refuse_unread(args, ("samples", "seed", "L", "mode"))
        mask, length = word_from_string(args.word)
        if args.t is not None and args.t < 1:
            raise ValueError(f"run length threshold t={args.t} must be >= 1")
        params = {"word": args.word, "t": args.t}
        profile = runstat.run_profile(mask, length)
        tie, dominant, _, _ = runstat.scan_words([mask], length)
        report = Report(command="rho-profile", parameters=params)
        row = {
            "ones_runs": ",".join(map(str, profile.ones)),
            "zeros_runs": ",".join(map(str, profile.zeros)),
            "weight": profile.weight,
            "tie_len": int(tie[0]),
            # even length lets the profiles tie outright: no dominance there
            "ones_dominant": None if length % 2 == 0 else bool(dominant[0]),
        }
        if args.t is not None:
            row[f"runs_ge_{args.t}"] = sum(run >= args.t for run in profile.ones + profile.zeros)
        report.add_table("rows", [row])
        return report.finish()
    raise ValueError(f"unknown rho action {args.action!r}")


def cmd_extremal(args) -> Report:
    _refuse_unread(args, ("emit_witness", "budget") if args.enumerate else ("cap",))
    budget = 60.0 if args.budget is None else args.budget
    mode_param = {"cap": args.cap} if args.enumerate else {"budget": budget}
    params = {"n": args.n, "k": args.k, "enumerate": args.enumerate, **mode_param}
    report = Report(command="extremal", parameters=params)
    if args.enumerate:
        enum = extremal.enumerate_maximal_intersecting(args.n, args.k, cap=args.cap)
        best = max((stats(f).diversity for f in enum.families), default=0)
        report.add_table(
            "rows",
            [
                {
                    "maximal_families": len(enum.families),
                    "max_diversity": best,
                    "complete": enum.complete,
                }
            ],
        )
        if not enum.complete:
            report.note("enumeration stopped at the cap; results are partial")
        return report.finish()
    res = extremal.max_diversity_search(args.n, args.k, budget_seconds=budget)
    report.add_table(
        "rows",
        [
            {
                "best_diversity": res.best_diversity,
                "complete": res.complete,
                "node_count": res.node_count,
                "elapsed_s": res.elapsed_s,
                "witness_size": len(res.witness),
            }
        ],
    )
    report.check("witness_diversity_consistent", res.best_diversity, stats(res.witness).diversity)
    if args.emit_witness:
        save_family(res.witness, args.emit_witness)
        report.note(f"witness written to {args.emit_witness}")
    return report.finish()


def cmd_verify_all(args) -> list[Report]:
    return verify.run_all(quick=args.quick)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="divlab",
        description="Exact verification workbench for diversity of intersecting families",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", dest="json_path", default=None, help="write the report as JSON")
    common.add_argument("--csv", dest="csv_path", default=None, help="write result tables as CSV")

    sub = parser.add_subparsers(dest="command", required=True)

    p_family = sub.add_parser("family", parents=[common], help="build, inspect or check families")
    p_family.add_argument("action", choices=["build", "stats", "check"])
    p_family.add_argument("--kind", default="hub-block",
                          choices=list(_FAMILY_KINDS))
    p_family.add_argument("--n", type=int, default=7)
    p_family.add_argument("--k", type=int, default=3)
    p_family.add_argument("--u", type=int, default=2)
    p_family.add_argument("--r", type=int, default=1)
    p_family.add_argument("--t", type=int, default=1)
    p_family.add_argument("--in", dest="infile", default=None)
    p_family.add_argument("--cross", default=None, help="second family file for a cross check")
    p_family.add_argument("--out", default=None)

    p_dec = sub.add_parser("decompose", parents=[common], help="triangle-center decomposition report")
    p_dec.add_argument("--in", dest="infile", required=False, default=None)

    p_lemma = sub.add_parser("lemma-sweep", parents=[common], help="cross-intersecting weighted size bound sweep")
    p_lemma.add_argument("--m", type=int, default=None)
    p_lemma.add_argument("--a", type=int, default=None)
    p_lemma.add_argument("--b", type=int, default=None)
    p_lemma.add_argument("--cprime", type=int, default=2)
    p_lemma.add_argument("--m-max", type=int, default=14)
    p_lemma.add_argument("--a-max", type=int, default=4)
    p_lemma.add_argument("--b-max", type=int, default=4)
    p_lemma.add_argument("--cprime-list", type=int, nargs="+", default=[2, 3])

    p_lex = sub.add_parser("lex", parents=[common], help="lexicographic segments and partner scans")
    p_lex.add_argument("--op", choices=["segment", "partner-max"], required=True)
    p_lex.add_argument("--m", type=int, default=0)
    p_lex.add_argument("--k", type=int, default=2)
    p_lex.add_argument("--n", type=int, default=5)
    p_lex.add_argument("--a", type=int, default=2)
    p_lex.add_argument("--b", type=int, default=2)
    p_lex.add_argument("--b-size", type=int, default=0)

    p_shift = sub.add_parser("shift", parents=[common], help="(i,j)-shifts and shift closure")
    p_shift.add_argument("--in", dest="infile", required=False, default=None)
    p_shift.add_argument("--op", choices=["closure", "apply", "is-shifted"], default="closure")
    p_shift.add_argument("--i", type=int, default=None)
    p_shift.add_argument("--j", type=int, default=None)
    p_shift.add_argument("--out", default=None)

    p_bool = sub.add_parser("boolean", parents=[common], help="biased measures and influences on junta centers")
    p_bool.add_argument("action", choices=["mu", "influence", "gammap", "counterexample-table"])
    p_bool.add_argument("--family", choices=["run-dominance", "window-majority", "dictator"],
                        help="junta family (default run-dominance)")
    p_bool.add_argument("--r", default="2", help="window parameter, or a range like 2..10 for the table")
    p_bool.add_argument("--p", help="bias, exact: a fraction '2/5' or a decimal '0.4' (default 1/2)")
    p_bool.add_argument("--i", type=int, default=None, help="coordinate for influence")

    p_rho = sub.add_parser("rho", parents=[common], help="run-profile tie statistics")
    p_rho.add_argument("action", choices=["dist", "profile"])
    p_rho.add_argument("--L", type=int, help="word length (default 11)")
    p_rho.add_argument("--mode", choices=["exact", "mc"], help="default exact")
    p_rho.add_argument("--samples", type=int, default=None)
    p_rho.add_argument("--word", default=None, help="binary literal, leftmost char = position 1")
    p_rho.add_argument("--t", type=int, default=None)
    p_rho.add_argument("--seed", type=int, default=None, help="Monte Carlo seed (mc mode)")

    p_ext = sub.add_parser("extremal", parents=[common], help="maximum-diversity search")
    p_ext.add_argument("--n", type=int, required=True)
    p_ext.add_argument("--k", type=int, required=True)
    p_ext.add_argument("--enumerate", action="store_true", help="enumerate maximal families instead of searching")
    p_ext.add_argument("--cap", type=int, default=None)
    p_ext.add_argument("--emit-witness", default=None)
    p_ext.add_argument("--budget", type=float, help="search time budget in seconds (default 60)")

    p_verify = sub.add_parser("verify-all", parents=[common], help="run the acceptance criteria")
    p_verify.add_argument("--quick", action="store_true", help="shrunken parameter ranges")

    return parser


_HANDLERS = {
    "family": cmd_family,
    "decompose": cmd_decompose,
    "lemma-sweep": cmd_lemma_sweep,
    "lex": cmd_lex,
    "shift": cmd_shift,
    "boolean": cmd_boolean,
    "rho": cmd_rho,
    "extremal": cmd_extremal,
    "verify-all": cmd_verify_all,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, FileNotFoundError, TypeError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2

    reports = result if isinstance(result, list) else [result]
    for rep in reports:
        for line in rep.summary_lines():
            print(line)
    if args.command == "verify-all":
        combined = Report(command="verify-all", parameters={"quick": args.quick})
        for rep in reports:
            combined.check(rep.command, True, rep.ok)
        combined.add_table(
            "criteria",
            [
                {"criterion": rep.command, "ok": rep.ok, "duration_s": rep.duration_s}
                for rep in reports
            ],
        )
        combined.finish()
        reports = reports + [combined]
        print(f"verify-all: {'PASS' if combined.ok else 'FAIL'}")
    if args.json_path:
        if len(reports) == 1:
            reports[0].write_json(args.json_path)
        else:
            with open(args.json_path, "w", encoding="utf-8") as fh:
                json.dump({"schema": 1, "reports": [r.to_json_dict() for r in reports]}, fh, indent=2)
                fh.write("\n")
    if args.csv_path:
        target = reports[-1] if args.command == "verify-all" else reports[0]
        target.write_csv(args.csv_path)
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
