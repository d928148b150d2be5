"""Reference answers and output checkers for the benchmark.

Everything but `expected_cli` is the benchmark's own code and never calls
into `submultisets`, so a defect in the package cannot hide itself by also
breaking its reference. Checkers return None for a correct output and a
one-line description of the problem otherwise.
"""
from __future__ import annotations

import json
from itertools import accumulate, islice
from math import prod
from operator import le, lt

# Two primes above any n + k the workloads generate; a wrong count that
# agrees with the true one modulo both is not a realistic failure mode.
PRIMES = (2_147_483_647, 2_147_483_629)


def _times_window(coeffs: list[int], bound: int) -> list[int]:
    """coeffs * (1 + x + ... + x^bound), truncated to the same length."""
    prefix = list(accumulate(coeffs))
    shift = bound + 1
    return prefix[:shift] + [hi - lo for hi, lo in zip(prefix[shift:], prefix)]


def suffix_tables(a: tuple[int, ...], n: int) -> list[list[int]]:
    """tables[j][s]: ways to fill positions j.. of `a` with total s <= n."""
    tables = [[1] + [0] * n]
    for m in reversed(a):
        tables.append(_times_window(tables[-1], m))
    return tables[::-1]


def exact_table(a: tuple[int, ...], limit: int | None = None) -> list[int]:
    """Counts for n = 0..limit (default N) by the generating-function product."""
    coeffs = [1] + [0] * (sum(a) if limit is None else limit)
    for m in a:
        coeffs = _times_window(coeffs, m)
    return coeffs


def exact_count(a: tuple[int, ...], n: int) -> int:
    """Exact count of one cardinality; fine for the sizes the workloads use."""
    return exact_table(a, n)[n] if n <= sum(a) else 0


def ref_unrank(a: tuple[int, ...], n: int, r: int, tables: list[list[int]]) -> tuple[int, ...]:
    """Composition at lexicographic rank r, from precomputed suffix tables."""
    out = []
    remaining = n
    for j, bound in enumerate(a):
        below = tables[j + 1]
        for v in range(min(bound, remaining) + 1):
            if r < below[remaining - v]:
                break
            r -= below[remaining - v]
        else:
            raise ValueError(f"rank out of range at position {j}")
        out.append(v)
        remaining -= v
    return tuple(out)


def first_composition(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Lexicographically smallest composition: fill from the right."""
    out = []
    for m in reversed(a):
        v = min(m, n)
        out.append(v)
        n -= v
    return tuple(reversed(out))


def last_composition(a: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Lexicographically largest composition: fill from the left."""
    out = []
    for m in a:
        v = min(m, n)
        out.append(v)
        n -= v
    return tuple(out)


class ModP:
    """Factorials modulo a prime p, for binomials C(t, j) with t < top."""

    def __init__(self, p: int, top: int) -> None:
        import numpy as np

        self.p = p
        fact = [1] * top
        for i in range(1, top):
            fact[i] = fact[i - 1] * i % p
        inv = [1] * top
        inv[-1] = pow(fact[-1], p - 2, p)
        for i in range(top - 1, 0, -1):
            inv[i - 1] = inv[i] * i % p
        self.fact = np.array(fact, dtype=np.int64)
        self.inv_fact = np.array(inv, dtype=np.int64)

    def count(self, a: tuple[int, ...], n: int) -> int:
        """Count modulo p, by inclusion-exclusion summed by weight.

        The numerator prod_j (1 - x^(a_j + 1)), truncated at degree n, is
        dotted with C(n - e + k - 1, k - 1). This shares no algorithm with
        the window convolution of `count_dp`, so it checks it independently.
        """
        import numpy as np

        p, k = self.p, len(a)
        if n > sum(a):
            return 0
        if k == 0:
            return 1 if n == 0 else 0
        num = np.zeros(n + 1, dtype=np.int64)
        num[0] = 1
        for m in a:
            d = m + 1
            if d <= n:
                num[d:] = (num[d:] - num[:-d]) % p
        # binom[t] = C(t + k - 1, k - 1), and num[e] pairs with binom[n - e].
        binom = (self.fact[k - 1:n + k] * int(self.inv_fact[k - 1]) % p
                 * self.inv_fact[:n + 1] % p)
        return int((num * binom[::-1] % p).sum() % p)


def check_count(a: tuple[int, ...], n: int, value: object,
                moduli: tuple[ModP, ...]) -> str | None:
    """A count is right if it agrees with the weight-summed form mod each prime."""
    if not isinstance(value, int) or value < 0:
        return f"count {value!r} is not a non-negative integer"
    for m in moduli:
        if value % m.p != m.count(a, n):
            return f"count {value} disagrees with inclusion-exclusion mod {m.p}"
    return None


def check_exact(value: object, expected: int, what: str) -> str | None:
    if value != expected:
        return f"{what} returned {value!r}, reference {expected}"
    return None


def check_table(a: tuple[int, ...], counts: tuple[int, ...]) -> str | None:
    """Full tables have N + 1 entries, are symmetric and sum to prod(a_j + 1)."""
    if len(counts) != sum(a) + 1:
        return f"table has {len(counts)} entries, expected {sum(a) + 1}"
    if counts != counts[::-1]:
        return "table is not symmetric"
    if sum(counts) != prod(m + 1 for m in a):
        return "table does not sum to prod(a_j + 1)"
    return None


class StreamChecker:
    """Checks a lexicographic stream chunk by chunk, so nothing is kept whole.

    Each item must have the spec's length, lie in bounds, sum to n and be
    strictly greater than the one before it.
    """

    def __init__(self, a: tuple[int, ...], n: int) -> None:
        self.a = a
        self.n = n
        self.items = 0
        self.first: tuple[int, ...] | None = None
        self.last: tuple[int, ...] | None = None
        self.problem: str | None = None

    def feed(self, chunk: list[tuple[int, ...]]) -> None:
        if not chunk or self.problem:
            return
        a = self.a
        if self.first is None:
            self.first = chunk[0]
        elif not self.last < chunk[0]:
            self.problem = f"stream not increasing at item {self.items}"
            return
        self.items += len(chunk)
        self.last = chunk[-1]
        if not all(map(lt, chunk, chunk[1:])):
            self.problem = "stream not strictly increasing"
        elif any(len(x) != len(a) for x in chunk):
            self.problem = "item of the wrong length"
        elif set(map(sum, chunk)) != {self.n}:
            self.problem = f"item does not sum to {self.n}"
        elif a and not (all(map(le, map(max, zip(*chunk)), a))
                        and min(map(min, zip(*chunk))) >= 0):
            self.problem = "item out of bounds"

    def finish(self, expected_items: int, first: tuple[int, ...] | None,
               last: tuple[int, ...] | None = None) -> str | None:
        """Compare the stream's length and ends with the reference."""
        if self.problem:
            return self.problem
        if self.items != expected_items:
            return f"stream yielded {self.items} items, expected {expected_items}"
        if first is not None and self.first != first:
            return f"stream starts at {self.first}, expected {first}"
        if last is not None and self.last != last:
            return f"stream ends at {self.last}, expected {last}"
        return None


def expected_cli(argv: tuple[str, ...]) -> tuple[int, bytes]:
    """Exit code and stdout that the README promises for a CLI invocation.

    Answers come from the library in-process and are formatted here, so a
    mismatch isolates the CLI layer: parsing, dispatch and formatting.
    """
    from submultisets import count_dp, cross_check, full_table, iterate, unrank

    command, opts = argv[0], dict(zip(argv[1::2], argv[2::2]))
    text = opts.get("-m")
    n_text = opts.get("-n")
    if text is None or (command != "table" and n_text is None):
        return 2, b""
    parts = text.split(",") if text else []
    if not all(p.isascii() and p.isdigit() for p in parts):
        return 2, b""
    a = tuple(int(p) for p in parts)
    if n_text is not None and not (n_text.isascii() and n_text.isdigit()):
        return 2, b""
    n = int(n_text) if n_text is not None else None
    fmt = opts.get("--format", "text")
    lines: list[str]
    code = 0
    if command == "count":
        value = count_dp(a, n)
        lines = [json.dumps({"count": str(value)})] if fmt == "json" else [str(value)]
    elif command == "table":
        counts = full_table(a).counts
        lines = ([json.dumps([str(c) for c in counts])] if fmt == "json"
                 else [f"{i},{c}" for i, c in enumerate(counts)])
    elif command == "enumerate":
        start = int(opts.get("--start-rank", "0"))
        stream = iterate(a, n, start=unrank(a, n, start)) if start else iterate(a, n)
        limit = opts.get("--limit")
        items = list(islice(stream, int(limit)) if limit is not None else stream)
        lines = ([json.dumps([list(x) for x in items])] if fmt == "json"
                 else [",".join(map(str, x)) for x in items])
    elif command == "check":
        report = cross_check(a, n)
        methods = ("incexc", "dp", "brute")
        values = {m.value: v for m, v in report.values.items()}
        if fmt == "json":
            payload: dict[str, object] = {m: (str(values[m]) if m in values else None)
                                          for m in methods}
            payload["agree"] = report.agree
            lines = [json.dumps(payload)]
        else:
            lines = [f"{m} {values.get(m, 'skipped')}" for m in methods]
            lines.append("AGREE" if report.agree else "DISAGREE")
        code = 0 if report.agree else 4
    else:
        raise ValueError(f"benchmark does not model the {command!r} subcommand")
    return code, "".join(line + "\n" for line in lines).encode()


def check_cli(code: int, stdout: bytes, expected: tuple[int, bytes]) -> str | None:
    want_code, want_out = expected
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    if stdout != want_out:
        return f"stdout differs from the documented output ({len(stdout)} vs {len(want_out)} bytes)"
    return None
