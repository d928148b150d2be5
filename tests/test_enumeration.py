"""Lexicographic streaming of compositions and rank/unrank round trips."""
import random
from itertools import islice, product

import pytest

from submultisets import count_upper_constrained, enumeration, iterate, rank, unrank

from formulas import suffix_tables_reference

# The nine compositions of 5 under bounds (2, 3, 3), ascending lexicographic;
# frozen from an independent cartesian-product enumeration.
NINE = [
    (0, 2, 3), (0, 3, 2), (1, 1, 3),
    (1, 2, 2), (1, 3, 1), (2, 0, 3),
    (2, 1, 2), (2, 2, 1), (2, 3, 0),
]


def dumb_list(a, n):
    return sorted(x for x in product(*(range(m + 1) for m in a)) if sum(x) == n)


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
        rng = random.Random(99)
        for _ in range(200):
            k = rng.randint(1, 6)
            a = tuple(rng.randint(0, 4) for _ in range(k))
            n = rng.randint(0, sum(a) + 1)
            expected = dumb_list(a, n)
            assert list(iterate(a, n)) == expected
            for i, x in enumerate(expected):
                assert list(iterate(a, n, start=x)) == expected[i:]

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
    def test_every_split_matches_dumb_enumeration(self, monkeypatch, max_k, tail_combinations):
        # Plain successor loop (max_k 0) and blocks of every tail length.
        monkeypatch.setattr(enumeration, "BLOCKS_MAX_K", max_k)
        monkeypatch.setattr(enumeration, "TAIL_COMBINATIONS", tail_combinations)
        rng = random.Random(7)
        for _ in range(60):
            k = rng.randint(0, 6)
            a = tuple(rng.randint(0, 4) for _ in range(k))
            n = rng.randint(0, sum(a) + 1)
            expected = dumb_list(a, n)
            assert list(iterate(a, n)) == expected
            for i, x in enumerate(expected):
                assert list(iterate(a, n, start=x)) == expected[i:]

    def test_wide_spec_matches_blocks(self, monkeypatch):
        a = tuple(random.Random(3).randint(0, 3) for _ in range(40))
        n = sum(a) // 2
        plain = list(islice(iterate(a, n), 3000))
        middle = plain[1234]
        monkeypatch.setattr(enumeration, "BLOCKS_MAX_K", 40)
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


class TestSuffixTables:
    """White-box: the tables rank and unrank read hold only the sums that can
    still reach n, which no output of theirs would show."""

    def test_each_table_covers_exactly_the_reachable_sums(self):
        rng = random.Random(11)
        for _ in range(40):
            a = tuple(rng.choice((0, 0, 1, 2, 3, 5, 8)) for _ in range(rng.randint(0, 9)))
            for n in range(sum(a) + 1):
                tables = enumeration._suffix_tables(a, n)
                assert len(tables) == len(a) + 1
                for j, (low, counts) in enumerate(tables):
                    assert low == max(0, n - sum(a[:j])), (a, n, j)
                    assert low + len(counts) - 1 == min(n, sum(a[j:])), (a, n, j)
                    assert counts == [count_upper_constrained(a[j:], s)
                                      for s in range(low, low + len(counts))]

    def test_folds_each_table_only_up_to_its_middle(self, monkeypatch):
        # At n = N // 2 the mirror of every sum above the middle lies in its
        # table's window, so the folds return at most about half the cells.
        a = tuple(random.Random(5).choice((0, 1, 3, 6, 9, 12)) for _ in range(48))
        n = sum(a) // 2
        fold = enumeration._multiply_bounded
        returned = []

        def counted_fold(*args):
            out = fold(*args)
            returned.append(len(out))
            return out

        monkeypatch.setattr(enumeration, "_multiply_bounded", counted_fold)
        tables = enumeration._suffix_tables(a, n)
        window = sum(len(counts) for _, counts in tables)
        assert sum(returned) <= window / 2 + len(a)
        assert tables == suffix_tables_reference(a, n)


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
