"""Command-line front end: ``divlab <command> <action> [options]``.

    family       build <kind> | stats | check | cross-check
    decompose    (no action)
    lemma-sweep  grid | check
    lex          segment | partner-max
    shift        closure | apply | is-shifted
    boolean      mu | influence | gammap | counterexample-table
    rho          exact | mc | profile
    extremal     search | enumerate
    verify-all   (no action)

``family build`` takes the kind as one more action word (hub-block,
window-majority, star, full, fano, run-dominance-lift).  One rule holds for
every action, with no exception: its sub-parser declares exactly the options
it reads, with their defaults, and refuses every other with exit code 2
under its own usage (``--help`` lists what it reads).  ``main`` builds the
action's report from it, named after the parser path (``family-build-fano``,
``rho-mc``), with the declared options as parameters (``--m-max`` ->
``m_max``, ``--in`` -> ``in``) but the output paths --json, --csv, --out and
--emit-witness.  The handler only adds tables, checks, notes and a seed,
some taken from a library report, and ``main`` finishes the report;
``verify-all`` writes its criteria's reports before it.

Exit codes: 0 all assertions passed, 1 assertion failure, 2 usage error
(a bad option, value or file), 3 resource-cap refusal.  Reports are written
as JSON (--json), with every result table, and as CSV (--csv), with every
table but the JSON-only ones (the exact rationals of ``boolean
counterexample-table``).  Identical argv, including the seed, reproduces
byte-identical result tables, but for what reads the clock: ``elapsed_s``
of ``extremal search`` and criterion 10, ``duration_s`` of ``verify-all``'s
criteria table, and every result of a search its budget cuts short.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Optional

from . import booleanlab as bl
from . import bounds, extremal, runstat, shiftlex, verify
from .bitfam import (
    Family,
    FamilyStats,
    are_cross_intersecting,
    is_t_intersecting,
    load_family,
    save_family,
    stats,
)
from .constructions import (
    build_dictator_defining,
    build_hub_block_family,
    build_majority_defining,
    build_run_dominance_defining,
    build_run_dominance_family,
    build_window_majority,
    fano_plane,
    full_uniform_family,
    star,
)
from .errors import ResourceCapError
from .report import Report, write_json


def parse_bias(text: str) -> Fraction:
    """'2/5' -> Fraction(2, 5); a decimal is exact too: '0.45' -> Fraction(9, 20)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bias {text!r} has a zero denominator") from None


def _bias_option(text: str) -> Fraction:
    """parse_bias for argparse, which names the option and keeps the message."""
    try:
        return parse_bias(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def parse_r_range(text: str) -> list[int]:
    """'2..10' -> [2,...,10]; '5' -> [5]; '2,5,7' -> [2,5,7]; a text that
    names no value, such as '5..2' or ',,', is refused."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(x) for x in text.split(",") if x]
    except ValueError:
        values = []
    if not values:
        raise ValueError(f"bad r range: {text!r}")
    return values


def word_from_string(text: str) -> tuple[int, int]:
    """Binary word literal, first character = position 1 = bit 0: '100' -> (1, 3)."""
    if not text or any(c not in "01" for c in text):
        raise ValueError(f"word literal must be nonempty over 0/1, got {text!r}")
    return int(text[::-1], 2), len(text)


def _write_family(report: Report, fam: Family, path: Optional[str], what: str = "family") -> None:
    if path:
        save_family(fam, path)
        report.note(f"{what} written to {path}")


# ---------------------------------------------------------------------------
# action handlers: each adds its tables and checks to the report that main
# prepared for its action and finishes (the actions whose results come from a
# library report are lambdas in build_parser)
# ---------------------------------------------------------------------------


# family kind -> (the options it reads, its builder)
_FAMILY_KINDS = {
    "hub-block": (("n", "k", "u"), lambda a: build_hub_block_family(a.n, a.k, a.u)),
    "window-majority": (("n", "k", "r"), lambda a: build_window_majority(a.n, a.k, a.r)),
    "star": (("n", "k"), lambda a: star(a.n, a.k)),
    "full": (("n", "k"), lambda a: full_uniform_family(a.n, a.k)),
    "fano": ((), lambda a: fano_plane()),
    "run-dominance-lift": (("n", "k", "r"), lambda a: build_run_dominance_family(a.n, a.k, a.r)),
}

# junta family -> its defining spec on a (2r+1)-point centre
_JUNTAS = {
    "run-dominance": build_run_dominance_defining,
    "window-majority": build_majority_defining,
    "dictator": lambda r: build_dictator_defining(2 * r + 1),
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


def cmd_family_build(args, report: Report) -> None:
    fam = _FAMILY_KINDS[args.kind][1](args)
    row = _stats_row(fam, stats(fam))
    try:
        row["intersecting"] = is_t_intersecting(fam, 1)
    except ResourceCapError as exc:
        row["intersecting"] = None
        report.note(f"intersecting not checked: {exc}")
    report.add_table("rows", [row])
    _write_family(report, fam, args.out)


def cmd_family_stats(args, report: Report) -> None:
    fam = load_family(args.infile)
    st = stats(fam)
    report.add_table("rows", [_stats_row(fam, st)])
    report.add_table("degrees", [{"element": i + 1, "degree": d} for i, d in enumerate(st.degrees)])


def cmd_family_check(args, report: Report) -> None:
    fam = load_family(args.infile)
    report.check(f"{args.t}_intersecting", True, is_t_intersecting(fam, args.t))


def cmd_family_cross_check(args, report: Report) -> None:
    fam, other = load_family(args.infile), load_family(args.cross)
    report.check("cross_intersecting", True, are_cross_intersecting(fam, other))


def cmd_lemma_check(args, report: Report) -> None:
    rep = bounds.verify_cross_weighted_bound(args.m, args.a, args.b, args.cprime)
    rhs = bounds.binom(args.m, args.a)
    columns = enumerate(zip(rep.a_max.tolist(), rep.slack.tolist()))
    rows = [{"b_size": s, "a_max": a, "lhs": rhs - d, "rhs": rhs, "slack": d} for s, (a, d) in columns]
    report.add_table("rows", rows)
    report.check("violations", 0, len(rep.violations))
    report.check("worst_slack_nonnegative", True, rep.worst_slack >= 0)


def cmd_lemma_grid(args, report: Report) -> None:
    rows = bounds.cross_bound_sweep(args.m_max, args.a_max, args.b_max, tuple(args.cprime_list))
    report.add_table("rows", rows)
    report.check("violations", 0, sum(row["violations"] for row in rows))


def cmd_lex_segment(args, report: Report) -> None:
    seg = shiftlex.lex_segment(args.m, args.k, args.n)
    report.add_table("rows", [{"set": ",".join(map(str, s))} for s in seg.member_sets()])


def cmd_lex_partner_max(args, report: Report) -> None:
    value = int(shiftlex.lex_partner_maxima(args.b_size, args.a, args.b, args.m)[-1])
    report.add_table("rows", [{"a_max": value}])


def cmd_shift_closure(args, report: Report) -> None:
    fam = load_family(args.infile)
    out = shiftlex.shift_closure(fam)
    report.check("closure_is_shifted", True, shiftlex.is_shifted(out))
    report.check("size_preserved", len(fam), len(out))
    _write_family(report, out, args.out)


def cmd_shift_apply(args, report: Report) -> None:
    fam = load_family(args.infile)
    out = shiftlex.shift_family(fam, args.i, args.j)
    report.check("size_preserved", len(fam), len(out))
    _write_family(report, out, args.out)


def cmd_shift_is_shifted(args, report: Report) -> None:
    fam = load_family(args.infile)
    report.add_table("rows", [{"is_shifted": shiftlex.is_shifted(fam)}])


# boolean action -> (its exact quantity, the column it reports)
_BIASED_VALUES = {"mu": (bl.biased_measure, "mu"), "gammap": (bl.biased_diversity, "gamma_p")}


def cmd_boolean_value(args, report: Report) -> None:
    quantity, column = _BIASED_VALUES[args.action]
    m = quantity(_JUNTAS[args.family](args.r), args.p)
    report.add_table("rows", [{f"{column}_exact": m, column: float(m)}])


def cmd_boolean_influence(args, report: Report) -> None:
    prof = bl.total_influence(_JUNTAS[args.family](args.r), args.p)
    rows = [
        {"i": i, "influence_exact": m, "influence": float(m)}
        for i, m in enumerate(prof.per_coordinate, start=1)
    ]
    if args.i is None:
        rows.append({"i": "total", "influence_exact": prof.total, "influence": float(prof.total)})
    elif 1 <= args.i <= len(rows):
        rows = [rows[args.i - 1]]
    else:
        raise ValueError(f"coordinate --i {args.i} outside the centre [1, {len(rows)}]")
    report.add_table("rows", rows)


def cmd_rho_profile(args, report: Report) -> None:
    mask, length = word_from_string(args.word)
    if args.t is not None and args.t < 1:
        raise ValueError(f"run length threshold t={args.t} must be >= 1")
    profile = runstat.run_profile(mask, length)
    row = {
        "ones_runs": ",".join(map(str, profile.ones)),
        "zeros_runs": ",".join(map(str, profile.zeros)),
        "weight": profile.weight,
        "tie_len": profile.tie,
        "ones_dominant": profile.ones_dominant,
    }
    if args.t is not None:
        row[f"runs_ge_{args.t}"] = sum(run >= args.t for run in profile.ones + profile.zeros)
    report.add_table("rows", [row])


def cmd_extremal_search(args, report: Report) -> None:
    res = extremal.max_diversity_search(args.n, args.k, budget_seconds=args.budget)
    row = {"best_diversity": res.best_diversity, "complete": res.complete,
           "node_count": res.node_count, "elapsed_s": res.elapsed_s,
           "witness_size": len(res.witness)}
    report.add_table("rows", [row])
    report.check("witness_diversity_consistent", res.best_diversity, stats(res.witness).diversity)
    _write_family(report, res.witness, args.emit_witness, "witness")


def cmd_extremal_enumerate(args, report: Report) -> None:
    enum = extremal.enumerate_maximal_intersecting(args.n, args.k, cap=args.cap)
    best = max((stats(f).diversity for f in enum.families), default=0)
    row = {"maximal_families": len(enum.families), "max_diversity": best, "complete": enum.complete}
    report.add_table("rows", [row])
    if not enum.complete:
        report.note("enumeration stopped at the cap; results are partial")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """One sub-parser per action, declaring exactly the options it reads."""
    report_io = argparse.ArgumentParser(add_help=False)
    report_io.add_argument("--json", dest="json_path", help="write the report as JSON")
    report_io.add_argument("--csv", dest="csv_path", help="write result tables as CSV")
    infile = argparse.ArgumentParser(add_help=False)
    infile.add_argument("--in", dest="infile", required=True, help="family file")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", help="write the resulting family to this file")
    junta = argparse.ArgumentParser(add_help=False)
    junta.add_argument("--family", choices=list(_JUNTAS), default="run-dominance")
    junta.add_argument("--r", type=int, default=2, help="window parameter: a (2r+1)-point centre")
    junta.add_argument("--p", type=_bias_option, default="1/2",
                       help="bias, exact: a fraction '2/5' or a decimal '0.4'")
    word_length = argparse.ArgumentParser(add_help=False)
    word_length.add_argument("--L", type=int, default=11, help="word length")
    nk = argparse.ArgumentParser(add_help=False)
    nk.add_argument("--n", type=int, required=True)
    nk.add_argument("--k", type=int, required=True)

    parser = argparse.ArgumentParser(
        prog="divlab",
        description="Exact verification workbench for diversity of intersecting families",
        allow_abbrev=False,
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def action(actions, name: str, run, *parents, help=None) -> argparse.ArgumentParser:
        p = actions.add_parser(name, help=help, parents=[report_io, *parents], allow_abbrev=False)
        p.set_defaults(run=run, parser=p)
        return p

    def command(name: str, help: str, within=commands, dest: str = "action"):
        """A command with actions; they are added to what this returns."""
        p = within.add_parser(name, help=help, allow_abbrev=False)
        return p.add_subparsers(dest=dest, required=True)

    family = command("family", "build, inspect or check families")
    kinds = command("build", "build a family of one kind", within=family, dest="kind")
    defaults = {"n": 7, "k": 3, "u": 2, "r": 1}
    for kind, (options, _) in _FAMILY_KINDS.items():
        p = action(kinds, kind, cmd_family_build, out)
        for name in options:
            p.add_argument(f"--{name}", type=int, default=defaults[name])
    action(family, "stats", cmd_family_stats, infile)
    p = action(family, "check", cmd_family_check, infile)
    p.add_argument("--t", type=int, default=1)
    p = action(family, "cross-check", cmd_family_cross_check, infile)
    p.add_argument("--cross", required=True, help="the second family file")

    action(commands, "decompose",
           lambda a, report: report.extend(bounds.verify_triangle_chain(load_family(a.infile))),
           infile, help="triangle-center decomposition report")

    lemma = command("lemma-sweep", "cross-intersecting weighted size bound")
    p = action(lemma, "grid", cmd_lemma_grid)
    p.add_argument("--m-max", type=int, default=14)
    p.add_argument("--a-max", type=int, default=4)
    p.add_argument("--b-max", type=int, default=4)
    p.add_argument("--cprime-list", type=int, nargs="+", default=[2, 3])
    p = action(lemma, "check", cmd_lemma_check)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--cprime", type=int, default=2)

    lex = command("lex", "lexicographic segments and partner scans")
    p = action(lex, "segment", cmd_lex_segment)
    p.add_argument("--m", type=int, default=0)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--n", type=int, default=5)
    p = action(lex, "partner-max", cmd_lex_partner_max)
    p.add_argument("--b-size", type=int, default=0)
    p.add_argument("--a", type=int, default=2)
    p.add_argument("--b", type=int, default=2)
    p.add_argument("--m", type=int, required=True)

    shift = command("shift", "(i,j)-shifts and shift closure")
    action(shift, "closure", cmd_shift_closure, infile, out)
    p = action(shift, "apply", cmd_shift_apply, infile, out)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--j", type=int, required=True)
    action(shift, "is-shifted", cmd_shift_is_shifted, infile)

    boolean = command("boolean", "biased measures and influences on junta centers")
    action(boolean, "mu", cmd_boolean_value, junta)
    p = action(boolean, "influence", cmd_boolean_influence, junta)
    p.add_argument("--i", type=int, help="one coordinate (default: all, and their total)")
    action(boolean, "gammap", cmd_boolean_value, junta)
    p = action(boolean, "counterexample-table",
               lambda a, report: report.extend(bl.counterexample_table(parse_r_range(a.r))))
    p.add_argument("--r", default="2", help="r values: '5', a range '2..10' or a list '2,5,7'")

    rho = command("rho", "run-profile tie statistics")
    action(rho, "exact", lambda a, report: report.extend(runstat.rho_distribution(a.L, "exact")),
           word_length)
    p = action(rho, "mc", lambda a, report: report.extend(
        runstat.rho_distribution(a.L, "mc", a.samples, a.seed)), word_length)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed")
    p = action(rho, "profile", cmd_rho_profile)
    p.add_argument("--word", required=True, help="binary literal, leftmost char = position 1")
    p.add_argument("--t", type=int, help="also count the runs of length at least t")

    ext = command("extremal", "maximum-diversity search")
    p = action(ext, "search", cmd_extremal_search, nk)
    p.add_argument("--budget", type=float, default=60.0, help="time budget in seconds")
    p.add_argument("--emit-witness", help="write the best family found to this file")
    p = action(ext, "enumerate", cmd_extremal_enumerate, nk)
    p.add_argument("--cap", type=int, help="stop after this many maximal families")

    p = action(commands, "verify-all", lambda a, report: verify.run_all(report, a.quick),
               help="run the acceptance criteria")
    p.add_argument("--quick", action="store_true", help="shrunken parameter ranges")

    return parser


# output paths, which a report does not record as parameters
_OUTPUT_OPTIONS = ("--help", "--json", "--csv", "--out", "--emit-witness")


def _action_report(args) -> Report:
    """The report of the parsed action, with the parameters that the module
    docstring describes."""
    parameters = {
        act.option_strings[-1].lstrip("-").replace("-", "_"): getattr(args, act.dest)
        for act in args.parser._actions
        if act.option_strings and act.option_strings[-1] not in _OUTPUT_OPTIONS
    }
    return Report(command="-".join(args.parser.prog.split()[1:]), parameters=parameters)


def main(argv: Optional[list[str]] = None) -> int:
    args, unread = build_parser().parse_known_args(argv)
    if unread:
        # refused with the action's own usage, which lists what it reads
        args.parser.error(f"unrecognized arguments: {' '.join(unread)}")
    try:
        report = _action_report(args)
        reports = [*(args.run(args, report) or ()), report.finish()]
        print("\n".join(line for rep in reports for line in rep.summary_lines()))
        if args.json_path:
            write_json(reports, args.json_path)
        if args.csv_path:
            report.write_csv(args.csv_path)
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    return 0 if all(r.ok for r in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
