"""Lexicographic streaming of compositions and rank/unrank round trips."""
import random
import sys
import threading
import tracemalloc
from itertools import islice
from time import perf_counter

import pytest

import hooks
from submultisets import core, count_upper_constrained, iterate, rank, unrank

from formulas import dumb_list, suffix_tables_reference

# The nine compositions of 5 under bounds (2, 3, 3), ascending lexicographic;
# frozen from an independent cartesian-product enumeration.
NINE = [
    (0, 2, 3), (0, 3, 2), (1, 1, 3),
    (1, 2, 2), (1, 3, 1), (2, 0, 3),
    (2, 1, 2), (2, 2, 1), (2, 3, 0),
]


def matches_dumb_list(seed, specs, min_k):
    """The stream, from its start and from each item, on random specs of
    min_k to 6 bounds up to 4."""
    rng = random.Random(seed)
    for _ in range(specs):
        a = tuple(rng.randint(0, 4) for _ in range(rng.randint(min_k, 6)))
        n = rng.randint(0, sum(a) + 1)
        expected = dumb_list(a, n)
        assert list(iterate(a, n)) == expected
        for i, x in enumerate(expected):
            assert list(iterate(a, n, start=x)) == expected[i:]


class TestIterate:
    def test_first_item(self):
        assert next(iterate((2, 3, 3), 5)) == (0, 2, 3)

    def test_counterexample_stream(self):
        assert list(iterate((2, 3, 3), 5)) == NINE

    def test_two_unit_elements(self):
        assert list(iterate((1, 1), 1)) == [(0, 1), (1, 0)]

    def test_empty_stream_when_count_zero(self):
        assert list(iterate((2, 2), 5)) == []

    def test_empty_spec(self):
        assert list(iterate((), 0)) == [()]
        assert list(iterate((), 3)) == []

    def test_zero_multiplicity_pinned(self):
        assert list(iterate((0, 2), 1)) == [(0, 1)]

    def test_matches_dumb_enumeration(self):
        matches_dumb_list(99, 200, 1)

    def test_stream_is_strictly_increasing_and_valid(self):
        a, n = (3, 2, 4), 6
        items = list(iterate(a, n))
        assert len(items) == count_upper_constrained(a, n)
        assert all(sum(x) == n for x in items)
        assert all(all(0 <= v <= m for v, m in zip(x, a)) for x in items)
        assert all(x < y for x, y in zip(items, items[1:]))

    def test_start_composition(self):
        assert list(iterate((2, 3, 3), 5, start=NINE[3])) == NINE[3:]

    def test_start_must_be_valid(self):
        # Refused by the iterate(...) call itself, before any next().
        for bad in [(0, 0, 5), (0, 2), (0, 2, 2), (-1, 3, 3), (True, 1, 3), (0.0, 2, 3)]:
            with pytest.raises(ValueError):
                iterate((2, 3, 3), 5, start=bad)

    def test_wide_spec_past_recursion_limit(self):
        items = list(iterate((1,) * 1200, 1))
        assert len(items) == 1200
        assert items[0] == (0,) * 1199 + (1,)
        assert items[-1] == (1,) + (0,) * 1199

    def test_wide_prefix_strictly_increasing_and_valid(self):
        a, n = (1,) * 3000, 3
        items = list(islice(iterate(a, n), 1000))
        assert len(items) == 1000
        assert all(sum(x) == n and all(0 <= v <= 1 for v in x) for x in items)
        assert all(x < y for x, y in zip(items, items[1:]))
        assert items[0] == (0,) * 2997 + (1, 1, 1)

    @pytest.mark.parametrize("max_k, tail_combinations", [(0, 4096), (32, 1), (32, 3), (32, 30)])
    def test_every_split_matches_dumb_enumeration(self, max_k, tail_combinations):
        # Plain successor loop (max_k 0) and blocks of every tail length.
        with hooks.tail_split(max_k, tail_combinations):
            matches_dumb_list(7, 60, 0)

    def test_wide_spec_matches_blocks(self):
        a = tuple(random.Random(3).randint(0, 3) for _ in range(40))
        n = sum(a) // 2
        plain = list(islice(iterate(a, n), 3000))
        middle = plain[1234]
        with hooks.tail_split(40):
            assert list(islice(iterate(a, n), 3000)) == plain
            assert list(islice(iterate(a, n, start=middle), 100)) == plain[1234:1334]
        assert all(x < y for x, y in zip(plain, plain[1:]))

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            iterate((1, 2), -1)


class TestRank:
    def test_first_listed(self):
        assert rank((2, 3, 3), 5, (0, 2, 3)) == 0

    def test_last_listed(self):
        assert rank((2, 3, 3), 5, (2, 3, 0)) == 8

    def test_two_unit_elements(self):
        assert rank((1, 1), 1, (1, 0)) == 1

    def test_accepts_lists(self):
        assert rank((2, 3, 3), 5, [1, 1, 3]) == 2

    def test_matches_stream_positions(self):
        a, n = (2, 3, 3), 5
        for i, x in enumerate(iterate(a, n)):
            assert rank(a, n, x) == i

    @pytest.mark.parametrize("bad", [
        (0, 2),          # wrong length
        (3, 0, 2),       # over bound
        (0, 2, 2),       # wrong sum
        (-1, 3, 3),      # negative entry
    ])
    def test_invalid_composition_rejected(self, bad):
        with pytest.raises(ValueError):
            rank((2, 3, 3), 5, bad)


class TestUnrank:
    def test_first(self):
        assert unrank((2, 3, 3), 5, 0) == (0, 2, 3)

    def test_two_unit_elements(self):
        assert unrank((1, 1), 1, 1) == (1, 0)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            unrank((2, 3, 3), 5, 9)
        with pytest.raises(IndexError, match="only 0 compositions"):
            unrank((2, 2), 5, 0)  # the stream is empty
        with pytest.raises(IndexError, match="only 0 compositions"):
            unrank((0, 2, 0), 3, 0)  # n = N + 1, next to zero bounds
        with pytest.raises(IndexError, match="only 0 compositions"):
            unrank((), 1, 0)

    def test_negative_rank_rejected(self):
        with pytest.raises(ValueError):
            unrank((2, 3, 3), 5, -1)

    def test_bool_rank_rejected(self):
        with pytest.raises(ValueError):
            unrank((2, 3, 3), 5, True)

    def test_reproduces_stream(self):
        a, n = (2, 3, 3), 5
        assert [unrank(a, n, r) for r in range(9)] == NINE

    def test_rank_past_the_digit_limit(self):
        # A decimal past 4300 digits raises ValueError (int -> str limit), so
        # messages give such a rank as a power of ten.
        with pytest.raises(IndexError) as info:
            unrank((2, 3, 3), 5, 10**5000)
        assert str(info.value) == "rank 10^5000.0 out of range, only 9 compositions"
        with pytest.raises(IndexError, match=r"^rank 10\^5000\.0 out of range, only 0"):
            unrank((2, 2), 5, 10**5000)
        with pytest.raises(ValueError) as info:
            unrank((2, 3, 3), 5, -10**5000)
        assert str(info.value) == "rank must be a non-negative integer, got -10^5000.0"
        # A count past 10^20 shows the same way.
        with pytest.raises(IndexError) as info:
            unrank((1,) * 80, 40, count_upper_constrained((1,) * 80, 40))
        assert str(info.value) == "rank 10^23.0 out of range, only 10^23.0 compositions"


class TestMessages:
    """Caller-supplied ints of any size show as one short line."""

    HUGE = 10**5000

    @pytest.mark.parametrize("x, message", [
        ((HUGE, 0, 0), "entry 0 is 10^5000.0, over its bound 2"),
        ((1, 1, 1), "composition sums to 3, expected 5"),
    ], ids=["over-bound", "sum"])
    def test_rank(self, x, message):
        with pytest.raises(ValueError) as info:
            rank((2, 3, 3), 5, x)
        assert str(info.value) == message

    def test_huge_bound_and_sum(self):
        with pytest.raises(ValueError) as info:
            rank((self.HUGE, 1), 1, (self.HUGE + 1, 0))
        assert str(info.value) == "entry 0 is 10^5000.0, over its bound 10^5000.0"
        with pytest.raises(ValueError) as info:
            rank((self.HUGE, 1), self.HUGE, (self.HUGE - 1, 0))
        assert str(info.value) == "composition sums to 10^5000.0, expected 10^5000.0"


class TestSuffixTables:
    """White-box: the tables rank and unrank read hold only the sums that can
    still reach n, which no output of theirs would show."""

    def test_each_table_covers_exactly_the_reachable_sums(self):
        rng = random.Random(11)
        for _ in range(40):
            a = tuple(rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(rng.randint(0, 9)))
            for n in range(sum(a) + 1):
                tables = core._suffix_tables(a, n)
                assert len(tables) == len(a) + 1
                for j, (low, counts) in enumerate(tables):
                    assert low == max(0, n - sum(a[:j])), (a, n, j)
                    assert low + len(counts) - 1 == min(n, sum(a[j:])), (a, n, j)
                    assert counts == [count_upper_constrained(a[j:], s)
                                      for s in range(low, low + len(counts))]

    def test_table_cells_count_the_built_tables(self):
        rng = random.Random(13)
        for _ in range(60):
            a = tuple(rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(rng.randint(0, 12)))
            for n in range(sum(a) + 1):
                assert core._table_cells(a, n) == sum(len(t) for _, t in core._suffix_tables(a, n)), (a, n)

    def test_folds_each_table_only_up_to_its_middle(self):
        # At n = N // 2 the mirror of every sum above the middle lies in its
        # table's window, so the folds return at most about half the cells.
        rng = random.Random(5)
        a = tuple(rng.choice((0, 1, 3, 6, 9, 12)) for _ in range(48))
        n = sum(a) // 2
        with hooks.recorded("_multiply_bounded") as calls:
            tables = core._suffix_tables(a, n)
        returned = [len(call.result) for call in calls["_multiply_bounded"]]
        window = sum(len(counts) for _, counts in tables)
        assert returned
        assert sum(returned) <= window / 2 + len(a)
        assert tables == suffix_tables_reference(a, n)

    def test_a_fold_cut_from_below_allocates_only_what_it_keeps(self):
        # One bound of 10^6 at n = 5 * 10^5: the table keeps one sum, and
        # its fold, cut below n, must not pad the degrees it drops (a list
        # of 5 * 10^5 ints, about 4 MB, if it did).
        with hooks.kept_tables():
            tracemalloc.start()
            try:
                assert unrank((10**6,), 5 * 10**5, 0) == (5 * 10**5,)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 100_000, peak


class TestKeptTables:
    """rank and unrank share recent instances' suffix tables, up to a cap on
    their cells: one build for a run of calls on an instance kept, and every
    check still made on each call."""

    @pytest.fixture
    def kept(self):
        """The kept tables, from an empty store; the test's are dropped after it."""
        with hooks.kept_tables() as kept:
            yield kept

    @pytest.fixture
    def builds(self, kept):
        """A function listing each instance tables were built for, with whether
        they fit the cap beside the tables kept at that point, or none were."""
        with hooks.recorded("_suffix_tables", note=hooks.fits) as calls:
            yield lambda: [(*call.args, call.note) for call in calls["_suffix_tables"]]

    def test_one_build_for_many_calls(self, builds):
        a = tuple(random.Random(4).randint(0, 6) for _ in range(30))
        n = sum(a) // 2
        total = count_upper_constrained(a, n)
        rng = random.Random(8)
        for _ in range(100):
            r = rng.randrange(total)
            assert rank(a, n, unrank(a, n, r)) == r
        assert builds() == [(a, n, True)]

    def test_a_miss_evicts_the_least_recent_before_building(self, builds):
        # 9, 9 and 7 cells under a cap of 20: two of them fit, three do not;
        # the ones are 36 cells, over the cap on their own.
        first, second, third = ((2, 3, 3), 5), ((2, 3, 3), 4), ((4, 4), 4)
        big = ((1,) * 10, 5)
        assert [core._table_cells(*i) for i in (first, second, third, big)] == [9, 9, 7, 36]
        with hooks.kept_tables(20) as store:
            for instance, expected in [
                (first, [first]), (second, [first, second]), (first, [second, first]),
                (third, [first, third]),  # second, the least recent, is evicted
                (first, [third, first]), (second, [first, second]), (third, [second, third]),
                (big, [big]), (big, [big]), (big, [big]),  # kept alone, built once
                (first, [first]),
            ]:
                unrank(*instance, 0)
                assert list(store) == expected
        # A repeat of an evicted instance builds again; every build fit.
        assert builds() == [first + (True,), second + (True,), third + (True,), second + (True,),
                            third + (True,), big + (True,), first + (True,)]

    def test_a_hit_still_checks_every_argument(self, builds):
        a, n = (2, 3, 3), 5
        unrank(a, n, 0)
        for bad in [(3, 0, 2), (0, 2, 2), (0, 2), (-1, 3, 3)]:
            with pytest.raises(ValueError):
                rank(a, n, bad)
        for bad in [-1, True, 2.0]:
            with pytest.raises(ValueError):
                unrank(a, n, bad)
        with pytest.raises(IndexError, match="only 9 compositions"):
            unrank(a, n, 9)
        with pytest.raises(ValueError):
            unrank([2, -3, 3], n, 0)
        with pytest.raises(ValueError):
            rank(a, -5, (0, 2, 3))
        assert len(builds()) == 1
        with pytest.raises(IndexError, match="only 0 compositions"):
            unrank(a, 9, 0)  # n > N exits before the lookup
        assert len(builds()) == 1
        assert unrank(a, n, 8) == NINE[8]

    def test_kept_tables_equal_a_fresh_build(self, kept):
        a = tuple(random.Random(6).randint(0, 5) for _ in range(12))
        n = sum(a) // 2
        total = count_upper_constrained(a, n)
        rng = random.Random(9)
        for _ in range(300):
            x = unrank(list(a), n, rng.randrange(total))
            rank(a, n, x)
        [(key, (cells, tables))] = kept.items()
        assert key == (a, n) and type(key[0]) is tuple
        assert tables == core._suffix_tables(a, n) == suffix_tables_reference(a, n)
        assert cells == core._table_cells(a, n) == sum(len(counts) for _, counts in tables)

    @staticmethod
    def draw_in_threads(instances):
        """Four threads on two cores, switching every microsecond, each
        cycling over the instances from its own start; returns every draw
        whose rank did not come back, or that raised."""
        totals = [count_upper_constrained(*instance) for instance in instances]
        wrong = []

        def draws(start):
            for step in range(200):
                i = (start + step) % len(instances)
                a, n = instances[i]
                r = (start * 7919 + step * 104729) % totals[i]
                try:
                    back = rank(a, n, unrank(a, n, r))
                except Exception as exc:  # x over a bound, or a race on the store
                    back = exc
                if back != r:
                    wrong.append((i, r, back))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=draws, args=(start,)) for start in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        return wrong

    @pytest.fixture
    def three(self, kept):
        """Three instances of 16 bounds, from an empty store."""
        rng = random.Random(12)
        a = tuple(rng.randint(0, 4) for _ in range(16))
        return [(a, sum(a) // 2), (a, sum(a) // 3), (a[::-1], sum(a) // 2)]

    def test_threads_read_only_their_own_instances_tables(self, three):
        # A key paired with another instance's tables, read while a build
        # runs, would give a wrong composition or rank.
        assert self.draw_in_threads(three) == []

    def test_threads_evicting_each_other(self, three):
        # Each instance fits the cap alone and no two fit together, so
        # nearly every draw evicts while other threads look up and build:
        # without the lock, racing evictions would raise KeyError, and
        # overlapping builds would keep more than the cap or leave the
        # running total wrong.
        cells = [core._table_cells(*instance) for instance in three]
        assert min(cells) * 2 > max(cells)
        with hooks.kept_tables(max(cells)) as store:
            assert self.draw_in_threads(three) == []
            kept = [cells for cells, _ in store.values()]
            assert sum(kept) <= max(cells) or len(kept) == 1
            assert sum(kept) == hooks.held()

    def test_a_miss_does_not_scale_with_the_store(self):
        # Every call is a miss on a new instance. Under a cap of 0 one
        # instance is kept; under the default, thousands, so a miss that
        # walked the kept entries would take several times as long.
        rng = random.Random(21)
        instances = set()
        while len(instances) < 6400:
            a = tuple(rng.randint(0, 9) for _ in range(rng.randint(1, 6)))
            instances.add((a, sum(a) // 2))
        instances = sorted(instances)

        def misses(cap):
            with hooks.kept_tables(cap) as store:
                started = perf_counter()
                for a, n in instances:
                    unrank(a, n, 0)
                return perf_counter() - started, len(store)

        timings = [misses(cap) for cap in (None, 0, None, 0)]  # None: the default cap
        assert timings[0][1] > 500 and timings[1][1] == 1
        ratio = min(timings[0][0], timings[2][0]) / min(timings[1][0], timings[3][0])
        assert ratio < 3, ratio


class TestBijection:
    SPECS = [((2, 3, 3), 5), ((4, 4), 3), ((1, 1, 1, 1), 2), ((0, 3, 2), 4), ((5,), 5)]

    @pytest.mark.parametrize("a,n", SPECS)
    def test_round_trips(self, a, n):
        total = count_upper_constrained(a, n)
        for r in range(total):
            x = unrank(a, n, r)
            assert rank(a, n, x) == r
        for i, x in enumerate(iterate(a, n)):
            assert unrank(a, n, rank(a, n, x)) == x
            assert rank(a, n, x) == i

    @pytest.mark.parametrize("a,n", SPECS)
    def test_rank_extremes(self, a, n):
        items = list(iterate(a, n))
        if items:
            assert rank(a, n, items[0]) == 0
            assert rank(a, n, items[-1]) == len(items) - 1
