"""Command line front end.

Subcommands: gen, solve, separate, cutplane, verify, gap-table.  Exit
codes: 0 success or certified, 3 a violated cut was found and printed
(separate), 2 bad input of any kind, 4 the DP cell budget ran out, 5 an
exactness check failed (an LP certificate, a cut under --check-cuts, a
separator's or a kernel's self-check, or a rounding guarantee), which
is a bug in pitchcut.
Points and inequality weights on the command line are written in input
order, matching the item lines of the instance file.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
from fractions import Fraction

from . import cutloop, gaplab, knapdp
from .core import (
    BudgetExceededError,
    KnapsackError,
    VerificationError,
    compute_pitch,
    format_cut,
    is_valid,
    make_inequality,
)

_FAMILY_ALIASES = {"kc": "kc", "p12": "p12", "fs": "fixed-support",
                   "fixed-support": "fixed-support"}


class _InputError(Exception):
    """Anything the user wrote that we cannot use; becomes exit 2."""


def _fraction(text, what):
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError):
        raise _InputError("%s: bad rational literal %r" % (what, text))


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise _InputError(str(exc))
    raw = gaplab.parse_instance(text)
    return raw, raw.normalize()


def _parse_point(text, inst):
    parts = text.split(",")
    if len(parts) != inst.n:
        raise _InputError("point has %d entries, instance has %d items"
                          % (len(parts), inst.n))
    values = []
    for pos, part in enumerate(parts, start=1):
        value = _fraction(part, "point entry %d" % pos)
        if not 0 <= value <= 1:
            raise _InputError("point entry %d is outside [0, 1]" % pos)
        values.append(value)
    return inst.from_input_order(values)


def _parse_ineq(text, inst):
    if ">=" not in text:
        raise _InputError("inequality must contain '>='")
    left, right = text.split(">=", 1)
    rhs = _fraction(right, "right-hand side")
    parts = left.split(",")
    if len(parts) != inst.n:
        raise _InputError("inequality has %d weights, instance has %d items"
                          % (len(parts), inst.n))
    weights = []
    for pos, part in enumerate(parts, start=1):
        w = _fraction(part, "weight %d" % pos)
        if w < 0:
            raise _InputError("weight %d is negative" % pos)
        weights.append(w)
    sorted_w = inst.from_input_order(weights)
    try:
        return make_inequality({i: w for i, w in enumerate(sorted_w) if w},
                               rhs, "user")
    except ValueError as exc:
        raise _InputError(str(exc))


def _parse_families(text):
    names = []
    for part in text.split(","):
        key = part.strip()
        if key not in _FAMILY_ALIASES:
            raise _InputError("unknown family %r (use kc, p12, fs)" % key)
        name = _FAMILY_ALIASES[key]
        if name not in names:
            names.append(name)
    return names


def _point_text(inst, values):
    return ",".join(str(v) for v in inst.to_input_order(values))


def _cmd_gen(args):
    if args.family == "lemma4":
        raw = gaplab.gen_lemma4(args.n, args.eps)
    elif args.family == "ola":
        raw = gaplab.gen_ola(args.n)
    elif args.family == "pitch3-wild":
        raw = gaplab.gen_pitch3_wild()
    else:
        raw = gaplab.gen_random(args.n, args.seed,
                                p_equals_c=args.p_equals_c)
    text = gaplab.serialize_instance(raw)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_solve(args):
    _, inst = _load(args.file)
    if args.mode == "exact":
        result = knapdp.solve_exact(inst, inst.costs, budget=args.dp_budget)
    else:
        result = knapdp.solve_fptas(inst, inst.costs, eps=args.eps,
                                    budget=args.dp_budget)
    print(result.value)
    return 0


def _cmd_separate(args):
    _, inst = _load(args.file)
    x = _parse_point(args.point, inst)
    config = cutloop.LoopConfig(
        families=frozenset(_parse_families(args.families)), eps=args.eps,
        mode="fptas" if args.mode == "approx" else "exact",
        budget=args.dp_budget)
    cut, certified = cutloop._find_cut(inst, x, config)
    if cut is not None:
        print(format_cut(cut, inst))
        return 3
    if certified is not None:
        print("certified %s" % _point_text(inst, certified.ybar))
    else:
        print("no-cut-found")
    return 0


def _cmd_cutplane(args):
    _, inst = _load(args.file)
    families = _parse_families(args.families)
    config = cutloop.LoopConfig(
        families=frozenset(families), eps=args.eps, mode=args.mode,
        kc_mode=args.kc_mode, fs_trigger=args.fs_trigger,
        fs_pitch_limit=args.fs_pitch_limit, max_iter=args.max_iter,
        check_cuts=args.check_cuts, budget=args.dp_budget)
    start = time.perf_counter()
    report = cutloop.run(inst, config, instance_id=args.file)
    ms = int(round((time.perf_counter() - start) * 1000))
    row = gaplab._row_from_report(
        args.file, inst.n, "families=%s" % "+".join(families), report, ms)
    print("int-opt %s" % row.int_opt)
    print("lp %s" % row.lp_value)
    print("gap %s (%s)" % (row.gap, row.gap_decimal))
    print("reason %s" % row.reason)
    print("iterations %d" % report.iterations)
    print("cuts kc=%d p12=%d fs=%d" % (row.cuts_kc, row.cuts_p12, row.cuts_fs))
    if args.report:
        with open(args.report, "w", encoding="utf-8", newline="") as handle:
            gaplab.write_gap_table([row], handle)
    return 0


def _cmd_verify(args):
    _, inst = _load(args.file)
    ineq = _parse_ineq(args.ineq, inst)
    valid = is_valid(ineq, inst, budget=args.dp_budget)
    print("pitch=%d valid=%s" % (compute_pitch(ineq),
                                 "true" if valid else "false"))
    return 0


def _cmd_gap_table(args):
    ns = []
    if args.n_list:
        for part in args.n_list.split(","):
            try:
                ns.append(int(part))
            except ValueError:
                raise _InputError("bad n %r in --n-list" % part)
    elif args.family != "pitch3-wild":
        raise _InputError("--n-list is required for family %r" % args.family)
    rows = gaplab.experiment_gap_table(
        args.family, ns, eps=args.eps, k=args.k, seed=args.seed,
        max_iter=args.max_iter)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            gaplab.write_gap_table(rows, handle)
    else:
        gaplab.write_gap_table(rows, sys.stdout)
    return 0


def _eps_argument(text):
    value = Fraction(text)
    if value <= 0:
        raise ValueError("eps must be positive")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="pitchcut",
        description="Exact min-knapsack cutting planes: generate, solve, "
                    "separate, verify, and measure integrality gaps.")
    parser.add_argument("--dp-budget", type=int, default=None,
                        metavar="CELLS",
                        help="cap on dynamic-programming table cells")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a generated instance")
    gen.add_argument("--family", required=True,
                     choices=("lemma4", "ola", "pitch3-wild", "random"))
    gen.add_argument("--n", type=int, default=None)
    gen.add_argument("--eps", type=_eps_argument, default=Fraction(1, 8))
    gen.add_argument("--seed", type=int, default=1)
    gen.add_argument("--p-equals-c", action="store_true")
    gen.add_argument("-o", "--out", default=None)

    solve = sub.add_parser("solve", help="integer optimum of an instance")
    solve.add_argument("file")
    solve.add_argument("--mode", choices=("exact", "fptas"), default="exact")
    solve.add_argument("--eps", type=_eps_argument, default=Fraction(1, 100))

    separate = sub.add_parser(
        "separate", help="one violated cut at a point, or a certificate")
    separate.add_argument("file")
    separate.add_argument("--point", required=True)
    separate.add_argument("--families", default="kc,p12")
    separate.add_argument("--eps", type=_eps_argument,
                          default=Fraction(1, 100))
    separate.add_argument("--mode", choices=("exact", "approx"),
                          default="exact")

    cutplane = sub.add_parser("cutplane", help="run the cutting-plane loop")
    cutplane.add_argument("file")
    cutplane.add_argument("--families", default="kc,p12")
    cutplane.add_argument("--eps", type=_eps_argument,
                          default=Fraction(1, 100))
    cutplane.add_argument("--mode", choices=("exact", "fptas"),
                          default="exact")
    cutplane.add_argument("--kc-mode", choices=("threshold-heuristic",
                                                "exhaustive"),
                          default="threshold-heuristic")
    cutplane.add_argument("--fs-trigger", choices=("support", "full", "both"),
                          default="support")
    cutplane.add_argument("--fs-pitch-limit", type=int, default=None)
    cutplane.add_argument("--max-iter", type=int, default=1000)
    cutplane.add_argument("--check-cuts", action="store_true")
    cutplane.add_argument("--report", default=None, metavar="CSV")

    verify = sub.add_parser("verify", help="pitch and validity of a cut")
    verify.add_argument("file")
    verify.add_argument("--ineq", required=True,
                        metavar='"w1,...,wn >= beta"')

    table = sub.add_parser("gap-table", help="integrality-gap experiment")
    table.add_argument("--family", required=True,
                       choices=gaplab.GAP_TABLE_FAMILIES)
    table.add_argument("--n-list", default=None)
    table.add_argument("--eps", type=_eps_argument, default=Fraction(1, 8))
    table.add_argument("--k", type=int, default=2)
    table.add_argument("--seed", type=int, default=1)
    table.add_argument("--max-iter", type=int, default=None)
    table.add_argument("--out", default=None, metavar="CSV")

    return parser


@functools.cache
def _parser():
    # a parser is a graph of reference cycles that only a full garbage
    # collection frees, so the process builds one and reuses it
    return build_parser()


_HANDLERS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "separate": _cmd_separate,
    "cutplane": _cmd_cutplane,
    "verify": _cmd_verify,
    "gap-table": _cmd_gap_table,
}


def cli(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 0
    needs_n = args.command == "gen" and args.family != "pitch3-wild"
    try:
        if needs_n and args.n is None:
            raise _InputError("--n is required for family %r" % args.family)
        return _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 4
    except VerificationError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 5
    except (_InputError, gaplab.ParseError, KnapsackError,
            ValueError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(cli())
