"""Acceptance gate: one test per release criterion, timed where required.

Run `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.
"""
import functools
import random
import time
from itertools import product
from math import comb, prod

from submultisets import (
    CountMethod,
    count,
    count_brute_force,
    count_dp,
    count_upper_constrained,
    full_table,
    iterate,
    rank,
    unrank,
)
from submultisets.cli import main as cli_main
from submultisets.core import count_wrong_formula

from formulas import count_two_elements


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number}: FAIL  {description}")
                raise
            print(f"criterion {number}: PASS  {description}")
        return wrapper
    return decorate


def small_grid():
    """Every multiplicity vector with dimension <= 4 and entries <= 5."""
    for k in range(5):
        yield from product(range(6), repeat=k)


@criterion(1, "counterexample: true count 9 by all methods, naive formula 10, < 1 ms")
def test_counterexample_instance():
    started = time.perf_counter()
    by_incexc = count_upper_constrained((2, 3, 3), 5)
    by_dp = count_dp((2, 3, 3), 5)
    by_brute = count_brute_force((2, 3, 3), 5)
    wrong = count_wrong_formula((2, 3, 3), 5)
    elapsed = time.perf_counter() - started
    assert by_incexc == by_dp == by_brute == 9
    assert wrong == 10
    assert elapsed < 0.001, f"took {elapsed:.6f}s"


@criterion(2, "two-element closed form, including the off-by-one trap")
def test_two_element_examples():
    assert count_two_elements(5, 5, 5) == 6
    assert count_upper_constrained((5, 5), 5) == 6
    assert count_two_elements(3, 4, 5) == 3
    assert count_upper_constrained((3, 4), 5) == 3
    # The tempting interval formula min(n,a1) - max(1, n-a2) + 2 gives 4 on
    # the second instance; the actual interval has 3 points.
    assert min(5, 3) - max(1, 5 - 4) + 2 == 4
    assert count_two_elements(3, 4, 5) == 3


@criterion(3, "three-class instance (5,9,14) n=12: all methods give 57, < 100 ms")
def test_three_class_instance():
    started = time.perf_counter()
    values = [count((5, 9, 14), 12, method=m) for m in CountMethod]
    elapsed = time.perf_counter() - started
    assert values == [57, 57, 57]
    assert elapsed < 0.1, f"took {elapsed:.6f}s"


@criterion(4, "exhaustive grid k<=4, a_j<=5, all n: three methods agree, < 60 s")
def test_exhaustive_method_agreement():
    started = time.perf_counter()
    instances = 0
    for a in small_grid():
        for n in range(sum(a) + 2):
            reference = count_dp(a, n)
            assert count_upper_constrained(a, n) == reference, (a, n)
            assert count_brute_force(a, n) == reference, (a, n)
            instances += 1
    elapsed = time.perf_counter() - started
    assert instances > 15000
    assert elapsed < 60, f"took {elapsed:.1f}s"


@criterion(5, "identity suite on 500 random specs (k<=10, a_j<=20), < 30 s")
def test_identities_on_random_specs():
    started = time.perf_counter()
    rng = random.Random(20260810)
    for _ in range(500):
        k = rng.randint(1, 10)
        a = tuple(rng.randint(0, 20) for _ in range(k))
        total = sum(a)
        table = full_table(a)
        for n in range(total + 1):
            assert table[n] == table[total - n], (a, n)
        assert sum(table.counts) == prod(m + 1 for m in a), a
        for n in range(min(a) + 1):
            assert table[n] == comb(n + k - 1, k - 1), (a, n)
        # spot-tie the closed form to the same values
        n = rng.randint(0, total)
        assert count_upper_constrained(a, n) == table[n], (a, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 30, f"took {elapsed:.1f}s"


@criterion(6, "enumeration over the grid: counts, validity, order, round trips, < 120 s")
def test_enumeration_over_grid():
    started = time.perf_counter()
    for a in small_grid():
        for n in range(sum(a) + 2):
            expected = count_upper_constrained(a, n)
            previous = None
            seen = 0
            for i, x in enumerate(iterate(a, n)):
                assert len(x) == len(a)
                assert sum(x) == n
                assert all(0 <= v <= m for v, m in zip(x, a))
                if previous is not None:
                    assert previous < x
                previous = x
                assert rank(a, n, x) == i, (a, n, x)
                assert unrank(a, n, i) == x, (a, n, i)
                seen += 1
            assert seen == expected, (a, n)
    elapsed = time.perf_counter() - started
    assert elapsed < 120, f"took {elapsed:.1f}s"


@criterion(7, "scale: dp k=200 < 1 s, incexc k=20 < 5 s, incexc k=64 and k=200 answered, equal to dp")
def test_scale_targets():
    started = time.perf_counter()
    big = count_dp((50,) * 200, 5000)
    dp_elapsed = time.perf_counter() - started
    assert big > 0
    assert dp_elapsed < 1.0, f"dp took {dp_elapsed:.3f}s"

    a = (10, 9, 10, 7, 10, 8, 10, 10, 6, 10, 10, 9, 10, 10, 8, 10, 10, 10, 7, 10)
    for n in (sum(a) // 2, sum(a)):  # n = N leaves no subset prunable
        started = time.perf_counter()
        via_incexc = count_upper_constrained(a, n)
        ie_elapsed = time.perf_counter() - started
        assert via_incexc == count_dp(a, n)
        assert ie_elapsed < 5.0, f"incexc at n={n} took {ie_elapsed:.3f}s"

    assert count_upper_constrained((1,) * 64, 3) == count_dp((1,) * 64, 3) == 41664

    started = time.perf_counter()
    wide = count_upper_constrained((50,) * 200, 5000)
    wide_elapsed = time.perf_counter() - started
    assert wide == big
    assert wide_elapsed < 1.0, f"incexc at k=200 took {wide_elapsed:.3f}s"


@criterion(8, "CLI contract: documented invocations, byte-exact stdout and exit codes")
def test_cli_contract(capsys):
    def invoke(*argv):
        code = cli_main(list(argv))
        return code, capsys.readouterr().out

    assert invoke("count", "-m", "2,3,3", "-n", "5") == (0, "9\n")
    assert invoke("count", "-m", "5,5", "-n", "5") == (0, "6\n")
    assert invoke("count", "-m", "3,4", "-n", "-1") == (2, "")
    assert invoke("check", "-m", "5,9,14", "-n", "12") == \
        (0, "incexc 57\ndp 57\nbrute 57\nAGREE\n")
