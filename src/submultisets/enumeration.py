"""Materialize the counted set: stream, rank and unrank bounded compositions.

Compositions (x_1, ..., x_k) with sum n and 0 <= x_j <= a_j are produced in
ascending lexicographic order with position 1 most significant. iterate steps
from each composition to its successor in a loop (Knuth, TAOCP 4A, 7.2.1.3)
with no recursion, so any dimension k is served; the tail a step refills is
written by slice assignment, not a Python loop. For small k the last few
positions are listed once per sum and joined to the rest in C, so most items
cost no Python step at all. rank and unrank convert between a composition
and its 0-based position in that order without enumerating, by prefix
counting against per-suffix count tables (Nijenhuis & Wilf, Combinatorial
Algorithms, 1978), which they walk as core builds them: each table keeps
only the sums its suffix can take that the positions to its left can still
make up to n, so a table is cut from below as well as from above, and core
counts its cells without building it. rank and unrank share, under one lock,
the tables of the instances called on most recently, up to _KEPT_CELLS cells
in all: an unrank and its rank, or draws over a few instances, build each
instance's tables once.
"""
from __future__ import annotations

import threading
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, product
from collections import OrderedDict
from collections.abc import Iterable, Iterator, Sequence

from .core import _magnitude, _multiplicities, _require_int, _suffix_tables, _table_cells

Composition = tuple[int, ...]

#: For specs of at most BLOCKS_MAX_K positions, iterate lists the
#: compositions of the last positions once per sum and joins each list to a
#: state of the leading positions in C. The tail is the longest run of last
#: positions whose values have at most TAIL_COMBINATIONS combinations, so
#: the lists cost a few kilobytes and well under a millisecond to build,
#: even for a stream of which only the first items are read; with bounds up
#: to 10 a block holds up to 11 items. Wider specs skip the join: an item
#: there costs O(k) to build however it is made, and early in a stream the
#: last positions often stay full, so a block holds one item and joining
#: only adds two k-long copies. Measured on a 2-vCPU VM, joining took 1.9x
#: the time of the loop alone at k = 60 and 0.3-0.8x at k = 8 and 15.
BLOCKS_MAX_K = 32
TAIL_COMBINATIONS = 128


#: The most table cells _kept holds together, about 2.9 MB at the 36 bytes
#: a cell of a k = 200, n = 550 instance, whose tables hold about 56,000:
#: room for one such instance beside several smaller ones. The sample
#: benchmark's four repeated instances (k = 20, 50, 100, 200) take 71,000 to
#: 75,000 cells. Under a cap of 76,000 or 78,000 a fresh k = 50 draw can evict
#: one of them, and throughput ranged 1.8-2.6x the one-instance store's by
#: seed, against 2.4-2.7x at 80,000 (2-vCPU VM, Python 3.11.7).
_KEPT_CELLS = 80_000

#: Recent instances' suffix tables, {(a, n): (cells, tables)}, least
#: recently used first, and _held, their cells in all; _lock guards both.
#: Nothing mutates the tables once built.
_kept: OrderedDict[tuple[tuple[int, ...], int], tuple[int, list[tuple[int, list[int]]]]] = OrderedDict()
_held = 0
_lock = threading.Lock()


def _tables_for(a: tuple[int, ...], n: int) -> list[tuple[int, list[int]]]:
    """_suffix_tables(a, n), built once while the instance stays among the
    recent ones _kept holds.

    A hit moves the instance to the most recent end. A miss counts the cells
    the build will make and, before building, evicts the least recently
    used instances until those kept and the new ones fit in _KEPT_CELLS, so
    the build reuses the memory they held; an instance over the cap on its
    own is kept alone. The newest instance is always kept, however large.

    One lock covers the whole call, the pure-Python build too, which threads
    could not run in parallel: nothing is built twice and the cap holds.
    _suffix_tables is looked up at call time, so a replacement sees each build.
    """
    global _held
    key = a, n
    with _lock:
        entry = _kept.pop(key, None)
        if entry is None:
            cells = _table_cells(a, n)
            while _kept and _held + cells > _KEPT_CELLS:
                _held -= _kept.popitem(last=False)[1][0]
            entry = cells, _suffix_tables(a, n)
            _held += cells
        _kept[key] = entry
    return entry[1]


def _validated(a: tuple[int, ...], n: int, x: Sequence[int]) -> Composition:
    x = tuple(x)
    if len(x) != len(a):
        raise ValueError(f"composition has {len(x)} entries, spec has {len(a)}")
    for j, (v, bound) in enumerate(zip(x, a)):
        if type(v) is not int or v < 0:  # no call for a valid int
            _require_int(v, f"entry {j}")
        if v > bound:
            raise ValueError(f"entry {j} is {_magnitude(v)}, over its bound {_magnitude(bound)}")
    total = sum(x)
    if total != n:
        raise ValueError(f"composition sums to {_magnitude(total)}, expected {_magnitude(n)}")
    return x


def iterate(spec: Iterable[int], n: int, *, start: Sequence[int] | None = None) -> Iterator[Composition]:
    """Yield every composition of n under the spec's bounds, in ascending
    lexicographic order.

    Yields exactly count_upper_constrained(spec, n) tuples, each exactly
    once; the stream is empty when the count is zero. Generation is
    incremental: a successor loop with no recursion, so there is no limit on
    the dimension k, walks the compositions (for small k, those of the
    leading positions, each followed by a block of tails listed once per
    sum; see BLOCKS_MAX_K). With `start` (a valid composition for the same
    spec and n) the stream begins at that composition instead of the first
    one. The spec, n and start are validated at call time, before the first
    item is requested.
    """
    a = _multiplicities(spec, n)
    if start is not None:
        start = _validated(a, n, start)
    split, combinations = len(a), 1
    while (0 < split <= BLOCKS_MAX_K
           and combinations * (a[split - 1] + 1) <= TAIL_COMBINATIONS):
        split -= 1
        combinations *= a[split] + 1
    if split == len(a):  # no tail: the loop alone
        return _successors(a, n, start)
    # The leading positions plus one that stands for the tail's sum.
    heads = a[:split] + (sum(a[split:]),)
    head_start = None if start is None else start[:split] + (n - sum(start[:split]),)
    states = _successors(heads, n, head_start)
    return chain.from_iterable(_blocks(states, a[split:], start))


def _successors(a: tuple[int, ...], n: int, start: Composition | None) -> Iterator[Composition]:
    k = len(a)
    totals = list(accumulate(reversed(a), initial=0))[::-1]  # a_j + ... + a_k
    levels = [-t for t in totals]  # ascending, for bisect
    zeros = (0,) * k
    # State: x[:j + 1] is fixed, s is still to be placed in x[j + 1:], and
    # x[i + 1:] is full. A start state has nothing left to place.
    if start is None:
        if n > totals[0]:
            return
        x, j, s = [0] * k, -1, n
    else:
        x, j, s = list(start), k - 1, 0
    i = k - 1
    while True:
        if j < i:
            # Filling greedily from the right gives the smallest completion:
            # x[q + 1:] full, the rest of s at q, zeros in between.
            q = bisect_right(levels, -s, j + 1, k) - 1
            x[q + 1:] = a[q + 1:]
            x[q] = s - totals[q + 1]
            x[j + 1:q] = zeros[:q - j - 1]
            i, s = q, totals[q + 1]
        yield tuple(x)
        # The successor raises the rightmost entry that has room below its
        # bound and a nonzero tail sum s to its right to take the unit from;
        # the scan starts left of the entries the fill left full.
        while i >= 0 and (s == 0 or x[i] == a[i]):
            s += x[i]
            i -= 1
        if i < 0:
            return
        x[i] += 1
        s -= 1
        j, i = i, k - 1


def _tails_by_sum(tail: tuple[int, ...]) -> list[list[Composition]]:
    """lists[r] = every composition of r under the tail's bounds, ascending."""
    lists: list[list[Composition]] = [[] for _ in range(sum(tail) + 1)]
    for t in product(*[range(bound + 1) for bound in tail]):  # ascending
        lists[sum(t)].append(t)
    return lists


def _blocks(
    states: Iterator[Composition], tail: tuple[int, ...], start: Composition | None
) -> Iterator[Iterator[Composition]]:
    # A state fixes the leading positions and ends with the tail's sum r; its
    # block is the state's prefix joined to every tail summing to r, in order.
    tails = _tails_by_sum(tail)
    for state in states:
        block = tails[state[-1]]
        if start is not None:
            block = block[bisect_left(block, start[len(start) - len(tail):]):]
            start = None
        yield map(state[:-1].__add__, block)


def rank(spec: Iterable[int], n: int, x: Sequence[int]) -> int:
    """0-based lexicographic position of composition x among all compositions
    of n under the spec's bounds.

    For each position, adds the number of completions below the chosen entry:
    sum over v < x_j of the count of suffixes with the leftover sum. Rejects
    x when it violates a bound or the sum. Reads the suffix tables it shares
    with unrank, kept while the instance is a recent one.
    """
    a = _multiplicities(spec, n)
    x = _validated(a, n, x)
    tables = _tables_for(a, n)
    position = 0
    remaining = n
    for j, chosen in enumerate(x):
        low, table = tables[j + 1]
        # Each v < chosen leaves the suffix sum remaining - v = low + (top - v)
        # with top - v from top - chosen + 1 up to top; the slice drops the
        # sums above the table, which the suffix cannot reach.
        top = remaining - low
        position += sum(table[top - chosen + 1:top + 1])
        remaining -= chosen
    return position


def unrank(spec: Iterable[int], n: int, r: int) -> Composition:
    """Composition of n at 0-based lexicographic position r; inverse of rank.

    Raises IndexError when r is not below the total count. Reads the suffix
    tables it shares with rank, kept while the instance is a recent one.
    """
    a = _multiplicities(spec, n)
    _require_int(r, "rank")
    if n > sum(a):  # no composition, and no table reaches n
        raise IndexError(f"rank {_magnitude(r)} out of range, only 0 compositions")
    tables = _tables_for(a, n)
    total = tables[0][1][0]
    if r >= total:
        raise IndexError(f"rank {_magnitude(r)} out of range, only {_magnitude(total)} compositions")
    out: list[int] = []
    remaining = n
    for j in range(len(a)):
        low, table = tables[j + 1]
        top = remaining - low
        v = max(0, top - len(table) + 1)
        while True:
            below = table[top - v]
            if r < below:
                break
            r -= below
            v += 1
        out.append(v)
        remaining -= v
    return tuple(out)
