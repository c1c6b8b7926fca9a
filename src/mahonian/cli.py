"""Command-line front end.

Subcommands: stat, seq, dist, table, verify.  Default output is CSV on
stdout (JSON behind --format json).  Exit codes: 0 success, 1
verification or table mismatch, 2 usage error, 3 cap or domain
violation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import oracle, special, tables
from .counting import (
    KnuthNettoDomainError,
    MahonianMethod,
    i_colored,
    i_colored_row,
    total_inversions_closed,
)
from .oracle import CapExceeded, ClassKind
from .perm import ColoredPermutation
from .stats import StatisticKind, col, cross_term, inv, maj, projection

_SEQ_NAMES = ("ic", "I", "d", "t", "r", "iinv")


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _default_cap() -> int:
    env = os.environ.get("MAHONIAN_CAP")
    if not env:
        return oracle.DEFAULT_CAP
    try:
        return _nonnegative_int(env)
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"MAHONIAN_CAP: {exc}") from None


def _emit_rows(rows: list[tuple], fmt: str, fields: tuple[str, ...]) -> None:
    if fmt == "json":
        print(json.dumps([dict(zip(fields, row)) for row in rows]))
    else:
        for row in rows:
            print(",".join(str(x) for x in row))


def cmd_stat(args) -> int:
    try:
        sigma = ColoredPermutation.parse(args.perm, args.c)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    counts = (sigma.c, inv(sigma.values), col(sigma), cross_term(sigma))
    record = {"inv": counts[1], "maj": maj(sigma.values), "col": counts[2], "cross_term": counts[3]}
    for kind in (StatisticKind.INV_C, StatisticKind.TILDE_INV_C):
        record[kind.value] = projection(kind)(*counts)
    if args.format == "json":
        print(json.dumps(record))
    else:
        for name, value in record.items():
            print(f"{name},{value}")
    return 0


def cmd_seq(args) -> int:
    if args.name == "ic":
        if args.k is None:
            rows = list(enumerate(i_colored_row(args.n_max, args.c, args.method)))
        else:
            try:
                rows = [(args.k, i_colored(args.n_max, args.k, args.c, args.method))]
            except KnuthNettoDomainError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
        _emit_rows(rows, args.format, ("k", "value"))
        return 0

    funcs = {
        "I": lambda n: total_inversions_closed(n, args.c),
        "d": lambda n: special.derangement_count(n, args.c),
        "t": lambda n: special.t_colored(n, args.c),
        "r": lambda n: special.involution_count(n, args.c),
        "iinv": lambda n: special.involution_inv_total(n, args.c),
    }
    rows = [(n, funcs[args.name](n)) for n in range(1, args.n_max + 1)]
    _emit_rows(rows, args.format, ("n", "value"))
    return 0


def cmd_dist(args) -> int:
    cap = args.cap if args.cap is not None else _default_cap()
    try:
        dist = oracle.distribution(
            args.n, args.c, ClassKind(getattr(args, "class")), StatisticKind(args.statistic), cap
        )
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    rows = sorted(dist.histogram.items())
    _emit_rows(rows, args.format, ("k", "count"))
    if args.check:
        if dist.class_kind is not ClassKind.ALL or dist.statistic is not StatisticKind.INV_C:
            print("check: only class=all statistic=inv_c is checked", file=sys.stderr)
            return 0
        if dist.histogram == oracle.gf_histogram(args.n, args.c):
            print("check: histogram matches generating function", file=sys.stderr)
            return 0
        print("check: MISMATCH against generating function", file=sys.stderr)
        return 1
    return 0


def cmd_table(args) -> int:
    which = args.which
    mismatches = 0
    if which != 3:
        rows = oracle.table_rows(which)
        for *fields, ok in rows:
            mismatches += not ok
            print(which, *fields, "ok" if ok else "MISMATCH", sep=",")
        unit = "rows" if which == 1 else "cells"
        print(f"summary,{which},{unit}={len(rows)},mismatches={mismatches}")
        return 1 if mismatches else 0

    # table 3: documented misalignment, compared against the oracle instead
    for row in tables.table3_alignment():
        explained = (
            f"matches r_0..r_6 of c={row.explained_as_c} (shifted one column)"
            if row.explained_as_c is not None
            else "unexplained"
        )
        status = "ok" if row.matches_label else f"misaligned: {explained}"
        print(f"3,row_label={row.row_label},fixture={list(row.fixture)},"
              f"computed_r1_r7={list(row.computed)},{status}")
    cap = min(_default_cap(), 10**6)
    pairs = oracle.coverage_pairs(cap, max_c=6)
    for c, n in pairs:
        scan = oracle.scan_group(n, c, cap)
        mismatches += scan.count(ClassKind.INVOLUTIONS) != special.involution_count(n, c)
    print(f"summary,3,formula_vs_oracle_cells={len(pairs)},mismatches={mismatches}")
    return 1 if mismatches else 0


def cmd_verify(args) -> int:
    report = oracle.verify_suite(args.budget)
    failures = sum(r["status"] == "fail" for r in report)
    print(json.dumps({"budget": args.budget, "failures": failures, "results": report}))
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mahonian",
        description="Exact inversion statistics and counts on colored permutations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stat", help="statistics of one colored permutation")
    p.add_argument("--perm", required=True, help='token string, e.g. "3[1] 2 1[2] 4[1]"')
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_stat)

    p = sub.add_parser("seq", help="counting sequences")
    p.add_argument("--name", choices=_SEQ_NAMES, required=True)
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--n-max", type=_nonnegative_int, required=True)
    p.add_argument("--k", type=_nonnegative_int)
    p.add_argument(
        "--method",
        choices=[m.value for m in MahonianMethod],
        default=MahonianMethod.GEN_FUNC.value,
        help="engine for --name ic",
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_seq)

    p = sub.add_parser("dist", help="exhaustive statistic distribution")
    p.add_argument("--c", type=_positive_int, required=True)
    p.add_argument("--n", type=_nonnegative_int, required=True)
    p.add_argument("--class", choices=[k.value for k in ClassKind], default="all")
    p.add_argument(
        "--statistic", choices=[s.value for s in StatisticKind], default="inv_c"
    )
    p.add_argument("--cap", type=_nonnegative_int)
    p.add_argument("--check", action="store_true")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_dist)

    p = sub.add_parser("table", help="recompute and diff a paper table")
    p.add_argument("--which", type=int, choices=(1, 2, 3, 4), required=True)
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("verify", help="run the full cross-check suite")
    p.add_argument("--budget", type=_nonnegative_int, default=oracle.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
