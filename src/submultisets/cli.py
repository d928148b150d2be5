"""Command-line front end.

    submultisets count     -m 5,9,14 -n 12 [--method incexc|dp|brute] [--budget B]
    submultisets table     -m 5,9,14
    submultisets enumerate -m 2,3,3 -n 5 [--limit K] [--start-rank R]
    submultisets check     -m 5,9,14 -n 12 [--budget B]

Every subcommand also takes --format text|json|csv (default text).
--budget B, a positive integer (default 10^7), caps the compositions brute
force may visit; count and check hand it to the library as a plain int.
Results go to stdout, diagnostics to stderr (check notes each skipped method
and why there). Exit codes: 0 success, 2
malformed input, 3 brute force over its budget, 4 cross-check disagreement.
Counts in JSON output are decimal strings, since they routinely exceed the
integer range of downstream consumers. json is imported only by the branches
that print it, since most processes print text.
"""
from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from itertools import islice

from .core import CountMethod, MultisetSpec
from .enumeration import iterate, unrank
from .oracles import DEFAULT_BUDGET_ITEMS, BudgetExceededError, count, cross_check, full_table


def multiplicity_list(text: str) -> MultisetSpec:
    """argparse type: comma-separated non-negative decimal integers."""
    if text == "":
        return MultisetSpec(())
    return MultisetSpec(tuple(nonnegative_int(part) for part in text.split(",")))


def nonnegative_int(text: str) -> int:
    """argparse type: ASCII decimal digits only. No sign, underscore,
    whitespace or non-ASCII digit, all of which int() would accept."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative decimal integer: {text!r}")
    return int(text)


def positive_int(text: str) -> int:
    value = nonnegative_int(text)
    if value < 1:
        raise ValueError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="submultisets",
        description="Count and enumerate the sub-multisets of a given cardinality "
        "of a multiset given by its element multiplicities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def instance_args(p: argparse.ArgumentParser, with_n: bool = True) -> None:
        p.add_argument(
            "-m", "--multiplicities", type=multiplicity_list, required=True,
            help="comma-separated non-negative multiplicities, e.g. 5,9,14",
        )
        if with_n:
            p.add_argument(
                "-n", "--n", dest="n", type=nonnegative_int, required=True,
                help="cardinality of the sub-multisets",
            )
        p.add_argument(
            "--format", choices=("text", "json", "csv"), default="text",
            help="output format (default text)",
        )

    p_count = sub.add_parser("count", help="print the exact count for one cardinality")
    instance_args(p_count)
    p_count.add_argument(
        "--method", choices=[m.value for m in CountMethod], default=CountMethod.DYNAMIC_PROGRAMMING.value,
        help="counting algorithm (default dp)",
    )
    p_count.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET_ITEMS,
                         help="max compositions the brute method may visit")

    p_table = sub.add_parser("table", help="print counts for every cardinality 0..N")
    instance_args(p_table, with_n=False)

    p_enum = sub.add_parser("enumerate", help="list the compositions in lexicographic order")
    instance_args(p_enum)
    p_enum.add_argument("--limit", type=nonnegative_int, default=None,
                        help="print at most this many compositions")
    p_enum.add_argument("--start-rank", type=nonnegative_int, default=0,
                        help="skip to this 0-based rank before printing")

    p_check = sub.add_parser("check", help="run all applicable methods and compare")
    instance_args(p_check)
    p_check.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET_ITEMS,
                         help="max compositions the brute method may visit")

    return parser


def _run_count(args: argparse.Namespace) -> int:
    value = count(args.multiplicities, args.n, method=args.method, budget=args.budget)
    if args.format == "json":
        import json
        print(json.dumps({"count": str(value)}))
    else:
        print(value)
    return 0


def _run_table(args: argparse.Namespace) -> int:
    table = full_table(args.multiplicities)
    if args.format == "json":
        import json
        print(json.dumps([str(c) for c in table.counts]))
    else:
        for n, c in enumerate(table.counts):
            print(f"{n},{c}")
    return 0


def _run_enumerate(args: argparse.Namespace) -> int:
    spec, n = args.multiplicities, args.n
    if args.start_rank > 0:
        try:
            first = unrank(spec, n, args.start_rank)
        except IndexError:
            first = None  # past the end of the stream: nothing to print
        stream = iter(()) if first is None else iterate(spec, n, start=first)
    else:
        stream = iterate(spec, n)
    if args.limit is not None:
        stream = islice(stream, args.limit)
    if args.format == "json":
        # Streamed array, byte-identical to json.dumps of the list of lists.
        write = sys.stdout.write
        write("[")
        sep = ""
        for x in stream:
            write(f"{sep}[{', '.join(map(str, x))}]")
            sep = ", "
        write("]\n")
    else:
        for x in stream:
            print(",".join(map(str, x)))
    return 0


def _run_check(args: argparse.Namespace) -> int:
    report = cross_check(args.multiplicities, args.n, args.budget)
    for m in CountMethod:
        if m in report.skipped:
            print(f"note: {m.value} skipped: {report.skipped[m]}", file=sys.stderr)
    if args.format == "json":
        import json
        payload: dict[str, object] = {
            m.value: (str(report.values[m]) if m in report.values else None)
            for m in CountMethod
        }
        payload["agree"] = report.agree
        print(json.dumps(payload))
    else:
        sep = "," if args.format == "csv" else " "
        for m in CountMethod:
            if m in report.values:
                print(f"{m.value}{sep}{report.values[m]}")
            else:
                print(f"{m.value}{sep}skipped")
        print("AGREE" if report.agree else "DISAGREE")
    return 0 if report.agree else 4


_DISPATCH = {
    "count": _run_count,
    "table": _run_table,
    "enumerate": _run_enumerate,
    "check": _run_check,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return _DISPATCH[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
