"""The four workloads: seeded inputs, the timed calls, and their checks.

Each workload turns a seed into an endless series of cycles of operations,
runs one operation at a time through `call(name, fn, *args)` (which the runner
may trace), and checks every output outside the timed region.

The schedules are built for steady figures across seeds. Every cycle holds
the same mix of operation kinds, and a run stops only at the end of a cycle,
so each kind (the known failures too) has exactly its share of a run; sizes
that set an operation's cost (k, n, stream length) come from a seeded
low-discrepancy sequence or are pinned, and the seed chooses everything else
(the multiplicities, ranks, order).
"""
from __future__ import annotations

import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from itertools import chain, count, islice
from random import Random
from time import perf_counter
from typing import Callable, Iterator, NamedTuple

from checks import (
    PRIMES,
    ModP,
    StreamChecker,
    check_cli,
    check_count,
    check_exact,
    check_table,
    exact_count,
    exact_table,
    expected_cli,
    first_composition,
    last_composition,
    ref_unrank,
    suffix_tables,
)

Call = Callable[..., object]


class Op(NamedTuple):
    kind: str
    a: tuple[int, ...]
    n: int
    arg: object = None


def kronecker(rng: Random, dim: int) -> Iterator[list[float]]:
    """Points of the additive recurrence x + i * alpha (mod 1) in [0, 1)^dim.

    alpha comes from the generalised golden ratio, so every stretch of the
    sequence covers the cube evenly: averages over a run vary far less from
    seed to seed than with independent draws. The seed sets the start.
    """
    g = 2.0
    for _ in range(64):
        g = (1 + g) ** (1 / (dim + 1))
    alpha = [g ** -(i + 1) for i in range(dim)]
    x = [rng.random() for _ in range(dim)]
    while True:
        x = [(xi + ai) % 1.0 for xi, ai in zip(x, alpha)]
        yield x


def _spec(rng: Random, k: int, hi: int, lo: int = 0) -> tuple[int, ...]:
    return tuple(rng.randint(lo, hi) for _ in range(k))


def _spec_with_sum(rng: Random, k: int, lo: int, hi: int, total: int) -> tuple[int, ...]:
    """Random multiplicities in [lo, hi] adjusted to sum exactly to total."""
    a = [rng.randint(lo, hi) for _ in range(k)]
    while sum(a) != total:
        j = rng.randrange(k)
        if sum(a) < total and a[j] < hi:
            a[j] += 1
        elif sum(a) > total and a[j] > lo:
            a[j] -= 1
    return tuple(a)


def interleave(rng: Random, groups: list[list[Op]]) -> list[Op]:
    """Merge the groups so each is spread evenly over the result.

    Any stretch of the schedule then holds each kind in about its share, so
    where a timed run happens to stop does not tilt the mix.
    """
    keyed = []
    for g, group in enumerate(groups):
        rng.shuffle(group)
        offset = rng.random()
        keyed += [((j + offset) / len(group), g, op) for j, op in enumerate(group)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


class Workload:
    """Base: subclasses set name, warmup and counted_ops, and define the rest."""

    name = ""
    #: Code a setup child runs after `import submultisets`.
    warmup = ""
    #: The computed work counts cover this many leading schedule operations,
    #: so they repeat exactly for a seed however fast the run goes.
    counted_ops = 0
    #: Each operation starts a process: peak memory is that of the child
    #: processes, and the calibration slice is a bare interpreter start.
    runs_processes = False

    def __init__(self) -> None:
        self.items = 0  # compositions received so far, for ns_per_item

    def cycles(self, seed: int) -> Iterator[list[Op]]:
        """Endless cycles, each with the same mix of operation kinds."""
        raise NotImplementedError

    def schedule(self, seed: int) -> Iterator[Op]:
        return chain.from_iterable(self.cycles(seed))

    def run(self, op: Op, call: Call) -> tuple[float, str | None]:
        """Run one operation; return its timed seconds and a problem or None."""
        raise NotImplementedError

    def known_failure(self, op: Op, exc: Exception) -> bool:
        """Whether an exception is a documented defect, not a wrong answer."""
        return False

    def probe(self, op: Op, call: Call) -> None:
        """Extra traced-only measurement after an operation, outside its span."""

    def computed(self, ops: list[Op]) -> dict[str, int | float]:
        """Work counts derived from the inputs alone."""
        return {}


# --------------------------------------------------------------------------
# count: the core and oracles kernels

WIDE = (50,) * 200
#: The k = 20 instance of the package's acceptance tests.
K20 = (10, 9, 10, 7, 10, 8, 10, 10, 6, 10, 10, 9, 10, 10, 8, 10, 10, 10, 7, 10)


class CountWorkload(Workload):
    """count_dp on wide specs, inclusion-exclusion on narrow ones, full tables,
    cross-checks on desk-size specs, and the fixed scale anchors."""

    name = "count"
    warmup = "from submultisets import count_dp; count_dp((2, 3, 3), 5)"
    counted_ops = 64  # one cycle
    #: Small queries (k <= 8) per cycle. They are 40 of the 64 operations,
    #: which puts the median latency inside their group, where per-call
    #: overhead such as spec validation shows.
    SMALL = 40
    #: Widths of the inclusion-exclusion queries of a cycle. Their cost is
    #: 2^k, so the largest k sets most of a cycle's time; pinning the widths
    #: (and those of the small queries, k = 2 to 8 in turn) makes every cycle
    #: cost about the same, whatever the seed.
    IE_K = (8, 10, 12, 14, 16, 18, 20)
    ANCHORS = (
        Op("dp", WIDE, 5000),
        Op("dp", WIDE, 9000),
        Op("incexc", K20, sum(K20) // 2),
        Op("incexc", K20, sum(K20)),
        Op("table", WIDE, sum(WIDE)),
    )

    def __init__(self) -> None:
        super().__init__()
        self.moduli = tuple(ModP(p, 10_500) for p in PRIMES)

    def cycles(self, seed: int) -> Iterator[list[Op]]:
        rng = Random(f"count-{seed}")
        dp_points = kronecker(rng, 2)
        ie_points = kronecker(rng, 1)
        table_points = kronecker(rng, 1)
        small_points = kronecker(rng, 1)
        while True:
            dp, ie, tables, small = [], [], [], []
            for _ in range(8):
                u, v = next(dp_points)
                a = _spec(rng, 50 + int(u * 151), 50)
                dp.append(Op("dp", a, int(v * (sum(a) + 1))))
            for k in self.IE_K:
                (v,) = next(ie_points)
                a = _spec(rng, k, 10)
                ie.append(Op("incexc", a, int(v * (sum(a) + 1))))
            for wide in (True, False):
                (u,) = next(table_points)
                a = (_spec(rng, 50 + int(u * 151), 50) if wide
                     else _spec(rng, 8 + int(u * 13), 10))
                tables.append(Op("table", a, sum(a)))
            for _ in range(2):
                a = _spec(rng, rng.randint(2, 5), 5)
                tables.append(Op("cross_check", a, rng.randint(0, sum(a))))
            for i in range(self.SMALL):
                (v,) = next(small_points)
                a = _spec(rng, 2 + i // 2 % 7, 10)
                small.append(Op(("dp", "incexc")[i % 2], a, int(v * (sum(a) + 1))))
            yield interleave(rng, [list(self.ANCHORS), dp, ie, tables, small])

    def run(self, op: Op, call: Call) -> tuple[float, str | None]:
        from submultisets import (
            MultisetSpec, count_dp, count_upper_constrained, cross_check, full_table)

        started = perf_counter()
        spec = call("core.MultisetSpec", MultisetSpec, op.a)
        if op.kind == "dp":
            value = call("oracles.count_dp", count_dp, spec, op.n)
        elif op.kind == "incexc":
            value = call("core.count_upper_constrained", count_upper_constrained, spec, op.n)
        elif op.kind == "table":
            value = call("oracles.full_table", full_table, spec)
        else:
            value = call("oracles.cross_check", cross_check, spec, op.n)
        elapsed = perf_counter() - started

        if op.kind == "dp":
            return elapsed, check_count(op.a, op.n, value, self.moduli)
        if op.kind == "incexc":
            return elapsed, check_exact(value, exact_count(op.a, op.n), "incexc")
        if op.kind == "table":
            return elapsed, check_table(op.a, value.counts)
        expected = exact_count(op.a, op.n)
        values = {m.value: v for m, v in value.values.items()}
        if not value.agree or values != dict.fromkeys(("incexc", "dp", "brute"), expected):
            return elapsed, f"cross_check gave {values}, reference {expected}"
        return elapsed, None

    def computed(self, ops: list[Op]) -> dict[str, int | float]:
        ie_terms = dp_cells = result_bits = 0
        for op in ops:
            positive = sum(1 for m in op.a if m > 0)
            if op.kind in ("incexc", "cross_check"):
                ie_terms += 2 ** len(op.a) - 1
            if op.kind in ("dp", "cross_check", "table"):
                dp_cells += positive * (op.n + 1)
            if op.kind == "table":
                result_bits += sum(c.bit_length() for c in exact_table(op.a))
            elif op.kind != "incexc":
                result_bits += exact_count(op.a, op.n).bit_length()
        return {"core.ie_terms": ie_terms, "oracles.dp_cells": dp_cells,
                "oracles.result_bits": result_bits}


# --------------------------------------------------------------------------
# enumerate: the iterate generator

CHUNK = 4096
#: Prefixes of wide streams take this many items divided by k, since an item
#: costs about k generator steps there (~190 ms on a 2-core x86 VM, about
#: four times a whole k = 8 stream). Eight per cycle, on four fixed specs,
#: form the heaviest group below the anchors, and the tail falls inside it:
#: in a run of three cycles, the 11th-highest sample is the 5th-highest of
#: their 24, where the sparse top of a mixed group would jump from run to
#: run. Resumes cost about half a k = 8 stream and make up over half of a
#: cycle, so the median falls near the top of their group: a high percentile
#: of a group stays put when a shared host briefly runs faster, where a
#: percentile between two groups would jump.
WIDE_ITEM_DEPTH = 480_000
RESUME_ITEMS = 10_000


def _open(spec: object, n: int, start: tuple[int, ...] | None) -> tuple[Iterator, object]:
    from submultisets import iterate

    stream = iterate(spec, n, start=start)
    return stream, next(stream, None)


def _take(stream: Iterator, size: int) -> list:
    return list(islice(stream, size))


class EnumerateWorkload(Workload):
    """Full streams, prefixes of wide streams, resumes from a rank, and
    shallow specs up to k = 1200, all consumed from `iterate`."""

    name = "enumerate"
    warmup = "from submultisets import iterate; next(iterate((2, 3, 3), 5))"
    counted_ops = 234  # two cycles, one per anchor
    ANCHORS = (Op("stream", (6,) * 8, 24, (None, None, 0)),
               Op("stream", WIDE, 5000, (10_000, None, 0)))
    #: Shallow-spec widths, k = 50 to 1200 in steps of 50, in two strata.
    #: Every k >= 1000 hits the recursion limit of the recursive generator;
    #: they stay in the mix and count as failures. Each cycle draws three
    #: widths below 1000 and one from 1000 up, so every cycle holds exactly
    #: one known failure and the failed share of a run does not depend on
    #: where it stops.
    SHALLOW_K = (tuple(range(50, 1000, 50)), tuple(range(1000, 1201, 50)))
    SHALLOW_DRAWS = (3, 1)

    def __init__(self) -> None:
        super().__init__()
        self._counts: dict[tuple, int] = {}

    def count(self, a: tuple[int, ...], n: int) -> int:
        key = (a, n)
        if key not in self._counts:
            self._counts[key] = exact_count(a, n)
        return self._counts[key]

    def _moderate(self, rng: Random) -> Op:
        """A whole stream of a k = 8 spec with 20k to 22k items."""
        while True:
            a = _spec(rng, 8, 6, lo=1)
            fits = [n for n, c in enumerate(exact_table(a)) if 20_000 <= c <= 22_000]
            if fits:
                return Op("stream", a, rng.choice(fits), (None, None, 0))

    def _resume(self, rng: Random, k: int) -> Op:
        """A stretch of a k <= 20 stream, starting at a uniform random rank."""
        while True:  # a rare small k = 10 spec has too few items; draw again
            a = _spec(rng, k, 10, lo=1)
            n = sum(a) // 2
            tables = suffix_tables(a, n)
            if tables[0][n] > RESUME_ITEMS:
                break
        r = rng.randrange(tables[0][n] - RESUME_ITEMS)
        return Op("stream", a, n, (RESUME_ITEMS, ref_unrank(a, n, r, tables), r))

    def cycles(self, seed: int) -> Iterator[list[Op]]:
        rng = Random(f"enumerate-{seed}")
        wide_pool = []
        for k in (100, 133, 166, 200):
            a = _spec(rng, k, 50)
            wide_pool.append(Op("stream", a, sum(a) // 2, (WIDE_ITEM_DEPTH // k, None, 0)))
        resume_k = kronecker(rng, 1)
        bags: list[list[int]] = [[], []]
        for cycle in count():
            moderate = [self._moderate(rng) for _ in range(32)]
            resumes = [self._resume(rng, 10 + int(next(resume_k)[0] * 11)) for _ in range(72)]
            shallow = []
            for bag, widths, draws in zip(bags, self.SHALLOW_K, self.SHALLOW_DRAWS):
                for _ in range(draws):
                    if not bag:
                        bag += widths
                        rng.shuffle(bag)
                    a = tuple(int(rng.random() < 0.9) for _ in range(bag.pop()))
                    shallow.append(Op("stream", a, rng.randint(2, 3), (1000, None, 0)))
            # One anchor and one known failure per 117 operations (~8 s on a
            # 2-core x86 VM): anchors and failures, which sort above every
            # other sample, then stay short of the ten samples above the tail
            # in a run of up to four cycles.
            anchor = [self.ANCHORS[cycle % 2]]
            yield interleave(rng, [anchor, moderate, wide_pool * 2, resumes, shallow])

    def run(self, op: Op, call: Call) -> tuple[float, str | None]:
        from submultisets import MultisetSpec

        limit, start, r = op.arg
        checker = StreamChecker(op.a, op.n)
        started = perf_counter()
        spec = call("core.MultisetSpec", MultisetSpec, op.a)
        stream, first = call("enumeration.iterate", _open, spec, op.n, start)
        elapsed = perf_counter() - started
        if first is not None:
            checker.feed([first])
            left = None if limit is None else limit - 1
            while left is None or left > 0:
                size = CHUNK if left is None else min(CHUNK, left)
                started = perf_counter()
                chunk = call("enumeration.iterate.next", _take, stream, size)
                elapsed += perf_counter() - started
                checker.feed(chunk)
                if len(chunk) < size:
                    break
                if left is not None:
                    left -= size
        self.items += checker.items

        total = self.count(op.a, op.n) - r
        exhausted = limit is None or limit >= total
        return elapsed, checker.finish(
            total if exhausted else limit,
            start or first_composition(op.a, op.n),
            last_composition(op.a, op.n) if exhausted else None)

    def known_failure(self, op: Op, exc: Exception) -> bool:
        return isinstance(exc, RecursionError) and len(op.a) >= 1000

    def computed(self, ops: list[Op]) -> dict[str, int | float]:
        items = 0
        for op in ops:
            limit, _, r = op.arg
            total = self.count(op.a, op.n) - r
            items += total if limit is None else min(limit, total)
        return {"enumeration.iterate.items": items}


# --------------------------------------------------------------------------
# sample: rank and unrank through the suffix tables

class SampleWorkload(Workload):
    """Uniform draws r -> unrank -> rank, mostly on a few fixed instances."""

    name = "sample"
    warmup = ("from submultisets import rank, unrank\n"
              "rank((2, 3, 3), 5, unrank((2, 3, 3), 5, 4))")
    counted_ops = 1000
    #: Draws per cycle for k = 20, 50, 100, 200; one draw of each cycle (1 in
    #: 10) uses a fresh spec of its k. The median falls at the 80th
    #: percentile of the k = 50 group and the tail inside the k = 200 group,
    #: away from the jumps in cost between groups. A high percentile of a
    #: group stays put when a shared host briefly runs small operations
    #: faster, where a low one would jump between the fast and slow costs.
    MIX = ((20, 1), (50, 5), (100, 2), (200, 2))

    def __init__(self) -> None:
        super().__init__()
        self._tables: dict[tuple, list[list[int]]] = {}

    @staticmethod
    def _instance(rng: Random, k: int) -> tuple[tuple[int, ...], int]:
        # Pinning N pins the cost of a draw; the seed picks the multiplicities.
        a = _spec_with_sum(rng, k, 1, 10, 11 * k // 2)
        return a, sum(a) // 2

    def cycles(self, seed: int) -> Iterator[list[Op]]:
        rng = Random(f"sample-{seed}")
        fixed = {k: self._instance(rng, k) for k, _ in self.MIX}
        counts = {k: exact_count(*fixed[k]) for k in fixed}
        while True:
            cycle = [k for k, weight in self.MIX for _ in range(weight)]
            rng.shuffle(cycle)
            fresh_slot = rng.randrange(len(cycle))
            ops = []
            for i, k in enumerate(cycle):
                if i == fresh_slot:
                    a, n = self._instance(rng, k)
                    ops.append(Op("draw", a, n, (rng.randrange(exact_count(a, n)), True)))
                else:
                    a, n = fixed[k]
                    ops.append(Op("draw", a, n, (rng.randrange(counts[k]), False)))
            yield ops

    def run(self, op: Op, call: Call) -> tuple[float, str | None]:
        from submultisets import MultisetSpec, rank, unrank

        r, fresh = op.arg
        started = perf_counter()
        spec = call("core.MultisetSpec", MultisetSpec, op.a)
        x = call("enumeration.unrank", unrank, spec, op.n, r)
        back = call("enumeration.rank", rank, spec, op.n, x)
        elapsed = perf_counter() - started

        key = (op.a, op.n)
        tables = self._tables.get(key) or suffix_tables(op.a, op.n)
        if not fresh:
            self._tables[key] = tables
        if back != r:
            return elapsed, f"rank(unrank({r})) = {back}"
        return elapsed, check_exact(x, ref_unrank(op.a, op.n, r, tables), "unrank")

    def computed(self, ops: list[Op]) -> dict[str, int | float]:
        seen = set()
        repeats = 0
        for op in ops:
            key = (op.a, op.n)
            repeats += key in seen
            seen.add(key)
        return {"enumeration.sample.repeat_share": repeats / len(ops)}


# --------------------------------------------------------------------------
# cli: one `python -m submultisets.cli` process at a time

class CliWorkload(Workload):
    """Documented invocations in text and json, plus malformed ones that must
    exit 2; stdout is compared byte for byte."""

    name = "cli"
    warmup = ("import io, contextlib\n"
              "from submultisets.cli import main\n"
              "with contextlib.redirect_stdout(io.StringIO()):\n"
              "    main(['count', '-m', '2,3,3', '-n', '5'])")
    counted_ops = 140  # ten cycles
    runs_processes = True

    def __init__(self, src: str) -> None:
        super().__init__()
        self.env = dict(os.environ, PYTHONPATH=src)

    def cycles(self, seed: int) -> Iterator[list[Op]]:
        rng = Random(f"cli-{seed}")

        def spec(k_hi: int, a_hi: int) -> tuple[tuple[int, ...], str, str]:
            a = _spec(rng, rng.randint(2, k_hi), a_hi)
            return a, ",".join(map(str, a)), str(rng.randint(0, sum(a)))

        while True:
            cycle = []
            for fmt in ("text", "json"):
                a, m, n = spec(8, 12)
                cycle.append(("count", "-m", m, "-n", n, "--format", fmt))
                a, m, _ = spec(6, 10)
                cycle.append(("table", "-m", m, "--format", fmt))
                a, m, n = spec(6, 8)
                cycle.append(("enumerate", "-m", m, "-n", n, "--limit", "20", "--format", fmt))
                a, m, n = spec(5, 5)
                cycle.append(("check", "-m", m, "-n", n, "--format", fmt))
            a, m, n = spec(8, 12)
            cycle.append(("count", "-m", m, "-n", n, "--method", "incexc"))
            a, m, n = spec(6, 8)
            total = exact_count(a, int(n))
            cycle.append(("enumerate", "-m", m, "-n", n, "--limit", "10",
                          "--start-rank", str(rng.randrange(total))))
            a, m, n = spec(8, 12)
            cycle += [("count", "-m", m, "-n", "-" + str(rng.randint(1, 9))),
                      ("count", "-m", m.replace(",", ",x", 1), "-n", n),
                      ("count", "-m", m)]
            rng.shuffle(cycle)
            yield [Op("cli", (), 0, argv) for argv in cycle]

    def run(self, op: Op, call: Call) -> tuple[float, str | None]:
        started = perf_counter()
        proc = call("cli.process", subprocess.run,
                    [sys.executable, "-m", "submultisets.cli", *op.arg],
                    capture_output=True, env=self.env, timeout=120)
        elapsed = perf_counter() - started
        return elapsed, check_cli(proc.returncode, proc.stdout, expected_cli(op.arg))

    def probe(self, op: Op, call: Call) -> None:
        from submultisets.cli import main

        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            call("cli.main", main, list(op.arg))

    def computed(self, ops: list[Op]) -> dict[str, int | float]:
        return {"cli.stdout_bytes": sum(len(expected_cli(op.arg)[1]) for op in ops)}


def make(name: str, src: str) -> Workload:
    if name == "cli":
        return CliWorkload(src)
    return {"count": CountWorkload, "enumerate": EnumerateWorkload,
            "sample": SampleWorkload}[name]()


NAMES = ("count", "enumerate", "sample", "cli")
