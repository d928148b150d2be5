"""Command-line front end.

    submultisets count     -m 5,9,14 -n 12 [--method incexc|dp|brute] [--budget B]
    submultisets table     -m 5,9,14
    submultisets enumerate -m 2,3,3 -n 5 [--limit K] [--start-rank R]
    submultisets check     -m 5,9,14 -n 12 [--budget B]

Every subcommand also takes --format text|json|csv (default text).
--budget B, a positive integer (default 10^7), caps the compositions brute
force may visit; count and check hand it to the library as a plain int.
Results go to stdout, diagnostics to stderr (check notes each skipped method
and why there). Exit codes: 0 success, 1 stdout closed by its reader
(say, `| head`; nothing goes to stderr), 2 malformed input, 3 brute force
over its budget, 4 cross-check disagreement. Counts print in full; in JSON
output they are decimal strings, since they routinely exceed the integer
range of downstream consumers.

Every integer is parsed under the interpreter's int -> str digit limit
except --start-rank, which is checked the same way but kept as text, since
its range is the count's. main lifts the limit in one block around the
command, where the rank becomes an int and counts print, and puts it back
after. A usage error shows at most 100 characters of its message.
enumerate and table write their rows from one format string per call,
streamed, one row per item. json is imported only by the branches that
print it, since most processes print text.
"""
from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Sequence
from itertools import islice

from .core import CountMethod
from .enumeration import iterate, unrank
from .oracles import DEFAULT_BUDGET_ITEMS, BudgetExceededError, count, cross_check, full_table


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose error message stays short: argparse echoes a
    bad value, an invalid choice or an unrecognized argument in full."""

    def error(self, message: str):  # exits 2, as ArgumentParser.error does
        if len(message) > 100:
            message = f"{message[:100]}... ({len(message)} characters)"
        super().error(message)


def multiplicity_list(text: str) -> tuple[int, ...]:
    """argparse type: comma-separated non-negative decimal integers."""
    if text == "":
        return ()
    return tuple([nonnegative_int(part) for part in text.split(",")])


def _digits(text: str) -> str:
    """argparse type for --start-rank: ASCII decimal digits only. No sign,
    underscore, whitespace or non-ASCII digit, all of which int() would
    accept. The text is returned unconverted."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a non-negative decimal integer: {text!r}")
    return text


def nonnegative_int(text: str) -> int:
    """argparse type: _digits, as an int."""
    return int(_digits(text))


def positive_int(text: str) -> int:
    value = nonnegative_int(text)
    if value < 1:
        raise ValueError("must be positive")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="submultisets",
        description="Count and enumerate the sub-multisets of a given cardinality "
        "of a multiset given by its element multiplicities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, run: Callable[[argparse.Namespace], int], summary: str,
                with_n: bool = True) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
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
        return p

    p_count = command("count", _run_count, "print the exact count for one cardinality")
    p_count.add_argument(
        "--method", choices=[m.value for m in CountMethod], default=CountMethod.DYNAMIC_PROGRAMMING.value,
        help="counting algorithm (default dp)",
    )
    command("table", _run_table, "print counts for every cardinality 0..N", with_n=False)
    p_enum = command("enumerate", _run_enumerate, "list the compositions in lexicographic order")
    p_enum.add_argument("--limit", type=nonnegative_int, default=None,
                        help="print at most this many compositions")
    p_enum.add_argument("--start-rank", type=_digits, default="0",
                        help="skip to this 0-based rank before printing")
    p_check = command("check", _run_check, "run all applicable methods and compare")
    for p in (p_count, p_check):
        p.add_argument("--budget", type=positive_int, default=DEFAULT_BUDGET_ITEMS,
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
        print(json.dumps([str(c) for c in table]))
    else:
        sys.stdout.writelines(map("%d,%d\n".__mod__, enumerate(table)))
    return 0


def _run_enumerate(args: argparse.Namespace) -> int:
    spec, n, start_rank = args.multiplicities, args.n, int(args.start_rank)
    try:
        start = unrank(spec, n, start_rank) if start_rank else None
        stream = iterate(spec, n, start=start)
    except IndexError:  # past the end of the stream: nothing to print
        stream = iter(())
    if args.limit is not None:
        stream = islice(stream, args.limit)
    if args.format == "json":
        # Streamed array, byte-identical to json.dumps of the list of lists.
        # Each row carries its separator; the first row's is cut off.
        rows = map((", [" + ", ".join(["%d"] * len(spec)) + "]").__mod__, stream)
        sys.stdout.write("[" + next(rows, ", ")[2:])
        sys.stdout.writelines(rows)
        sys.stdout.write("]\n")
    else:
        sys.stdout.writelines(map((",".join(["%d"] * len(spec)) + "\n").__mod__, stream))
    return 0


def _run_check(args: argparse.Namespace) -> int:
    report = cross_check(args.multiplicities, args.n, args.budget)
    for m in CountMethod:
        if m in report.skipped:
            print(f"note: {m.value} skipped: {report.skipped[m]}", file=sys.stderr)
    values = [(m.value, report.values.get(m)) for m in CountMethod]
    if args.format == "json":
        import json
        payload: dict[str, object] = {name: v if v is None else str(v) for name, v in values}
        payload["agree"] = report.agree
        print(json.dumps(payload))
    else:
        sep = "," if args.format == "csv" else " "
        sys.stdout.writelines(f"{name}{sep}{'skipped' if v is None else v}\n" for name, v in values)
        print("AGREE" if report.agree else "DISAGREE")
    return 0 if report.agree else 4


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on bad input, 0 on --help
        return exc.code if isinstance(exc.code, int) else 2
    # Ranks and counts of any size: lift the int <-> str digit limit
    # (3.10.7+, 3.11+) for the command, and put the old value back after.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        code = args.run(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # The reader stopped reading: point stdout's descriptor at devnull,
        # so what is left in its buffer goes there when the interpreter
        # flushes it at exit, not to the closed pipe.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
