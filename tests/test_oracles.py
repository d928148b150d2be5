"""Brute-force and DP oracles, tabulation and cross-checking."""
import inspect
import random
from itertools import permutations, product
from math import comb, prod

import pytest

import hooks
from submultisets import (
    DEFAULT_BUDGET_ITEMS,
    AgreementReport,
    BudgetExceededError,
    CountMethod,
    CountTable,
    core,
    count,
    count_brute_force,
    count_dp,
    count_upper_constrained,
    cross_check,
    full_table,
)

from formulas import dumb_count

WIDE = (50,) * 200


def fold_cells(entry, *args):
    """entry(*args), the number of bounds of each window fold it calls, the
    cells the folds' products returned, and the cells of their windows, which
    a fold with no mirror would all return (each fold run again lists them)."""
    with hooks.recorded("_window_fold", "_multiply_bounded") as calls:
        result = entry(*args)
    folds, products = calls["_window_fold"], []
    for call in folds:
        core._window_fold(*call.args, **call.kwargs, products=products)
    returned = sum(len(call.result) for call in calls["_multiply_bounded"])
    return result, [len(call.args[0]) for call in folds], returned, sum(len(c) for _, c in products)


class TestBruteForce:
    @pytest.mark.parametrize("a,n,expected", [
        ((2, 3, 3), 5, 9),
        ((5, 5), 5, 6),
        ((4,), 5, 0),
        ((), 0, 1),
        ((), 2, 0),
        ((0, 0, 3), 2, 1),
    ])
    def test_golden_values(self, a, n, expected):
        assert count_brute_force(a, n) == expected

    def test_budget_refusal_carries_estimate(self):
        # 36 candidate vectors, but the C(5 + 1, 1) = 6 compositions of 5
        # have 12 entries.
        with pytest.raises(BudgetExceededError) as excinfo:
            count_brute_force((5, 5), 5, 1)
        assert str(excinfo.value) == "instance has an estimated 12 steps, over the budget of 1"

    def test_refusal_of_a_huge_instance_is_one_short_line(self):
        # At n = 7500 both bounds on the stream of 15000 ones, 2^15000 and
        # C(22499, 14999), are past the interpreter's default limit of 4300
        # digits on int -> str conversion: the estimate is a power of ten.
        ones = (1,) * 15000
        message = "instance has an estimated 10^4515.4 steps, over the budget of "
        with pytest.raises(BudgetExceededError, match=r"^" + message.replace("^", r"\^") + "10000000$"):
            count_brute_force(ones, 7500)
        with pytest.raises(BudgetExceededError, match=r"budget of 10\^30\.0$"):
            count_brute_force(ones, 7500, 10**30)
        with pytest.raises(BudgetExceededError, match=r"budget of 99999999999999999999$"):
            count_brute_force(ones, 7500, 10**20 - 1)
        # At n = 2 the stream has at most C(15001, 14999) items of 15000 entries.
        report = cross_check(ones, 2)
        assert report.skipped == {CountMethod.BRUTE_FORCE: "instance has an estimated 1687612500000 "
                                  "steps, over the budget of 10000000"}
        assert report.agree

    def test_budget_boundary_is_inclusive(self):
        # (5, 5) has 6 compositions of 5 with no bounds, 12 entries, at every
        # entry point that takes a budget.
        assert count_brute_force((5, 5), 5, 12) == 6
        assert count((5, 5), 5, method="brute", budget=12) == 6
        assert cross_check((5, 5), 5, 12).values[CountMethod.BRUTE_FORCE] == 6
        with pytest.raises(BudgetExceededError):
            count_brute_force((5, 5), 5, 11)
        with pytest.raises(BudgetExceededError):
            count((5, 5), 5, method="brute", budget=11)
        assert CountMethod.BRUTE_FORCE in cross_check((5, 5), 5, 11).skipped

    def test_deep_spec_of_zeros(self):
        assert count_brute_force((0,) * 5000 + (2,), 1) == 1

    def test_wide_spec_without_recursion(self):
        # One nonzero position per level would pass the recursion limit
        # of a position-by-position walk.
        # A budget far past any machine word is an int like any other.
        assert count_brute_force((1,) * 1200, 0, 2**1200) == 1
        assert count_brute_force((1,) * 1200, 1, 2**1200) == 1200


# Every entry point that takes a budget, with each method of count.
BUDGET_TAKERS = {
    "count_brute_force": lambda budget: count_brute_force((2, 3, 3), 5, budget),
    **{f"count-{m.value}": (lambda budget, m=m: count((2, 3, 3), 5, method=m, budget=budget))
       for m in CountMethod},
    "cross_check": lambda budget: cross_check((2, 3, 3), 5, budget),
}


class TestBudget:
    """The budget is a plain positive int, checked by every entry point that
    takes one, whatever the method."""

    @pytest.mark.parametrize("budget", [0, -3, True, False, 2.5, "5"])
    @pytest.mark.parametrize("entry", list(BUDGET_TAKERS))
    def test_invalid_budget_refused(self, entry, budget):
        # Nothing counts before the budget is checked.
        with hooks.recorded("count_upper_constrained", "count_dp", "count_brute_force",
                            "iterate") as calls:
            with pytest.raises(ValueError, match="budget"):
                BUDGET_TAKERS[entry](budget)
        assert not any(calls.values())

    def test_default_budget(self):
        for entry in (count_brute_force, count, cross_check):
            assert inspect.signature(entry).parameters["budget"].default == DEFAULT_BUDGET_ITEMS
        # 10^8 candidate vectors and C(43, 7) compositions are over the default of 10^7.
        with pytest.raises(BudgetExceededError, match=f"budget of {DEFAULT_BUDGET_ITEMS}$"):
            count_brute_force((9,) * 8, 36)
        assert CountMethod.BRUTE_FORCE in cross_check((9,) * 8, 36).skipped


class TestValueClasses:
    def test_count_table(self):
        table = full_table((1, 1))
        assert isinstance(table, CountTable)
        assert table == (1, 2, 1) != (1, 2)
        assert (len(table), table[1], table[-1]) == (3, 2, 1)
        assert type(table.counts) is tuple and table.counts == (1, 2, 1)
        with pytest.raises(AttributeError):
            table.counts = (1,)

    def test_agreement_report(self):
        report = cross_check((2, 3, 3), 5)
        assert isinstance(report, AgreementReport)
        assert report.values == {method: 9 for method in CountMethod}
        assert report.skipped == {}
        assert report.agree


class TestDp:
    @pytest.mark.parametrize("a,n,expected", [
        ((2, 3, 3), 5, 9),
        ((5, 9, 14), 12, 57),
        ((5, 5), 5, 6),
        ((), 0, 1),
        ((), 4, 0),
        ((3, 3), 100, 0),
        ((10**5, 10**5), 10**5, 10**5 + 1),
        ((10**5, 10**5), 2 * 10**5, 1),
        # Repeated bounds whose half product alone cannot reach n.
        ((1, 1, 9), 5, 4),
        ((2, 2, 3, 9), 7, 36),
        ((2, 2, 7), 5, 9),
        ((1, 1, 2, 2, 12), 9, 36),
        ((3, 3, 3, 20), 13, 64),
        ((4, 4, 1, 1, 1, 15), 12, 200),
        # A deck of cards by rank: the rank patterns of a five-card hand,
        # counted by brute force.
        ((4,) * 13, 5, 6175),
        # Routed to the recurrence; past n = 50 one bound can be exceeded.
        (WIDE, 0, 1),
        (WIDE, 1, 200),
        (WIDE, 51, comb(250, 51) - 200),
    ])
    def test_golden_values(self, a, n, expected):
        assert count_dp(a, n) == expected

    def test_gate_routes_only_wide_specs_of_few_distinct_bounds(self):
        with hooks.recorded("_by_recurrence") as calls:
            routed = calls["_by_recurrence"]
            assert count_dp(WIDE, 5000) == count_upper_constrained(WIDE, 5000)
            assert full_table(WIDE)[5000] == count_upper_constrained(WIDE, 5000)
            assert [call.args[1] for call in routed] == [5000, 5000]
            # Few bounds, or many that are mostly distinct, keep the folds.
            count_dp((2, 3, 3), 5)
            full_table((5, 9, 14) * 5)
            count_dp(tuple(range(1, 60)), 800)
            full_table(tuple(range(1, 60)) * 2)
            assert [call.args[1] for call in routed] == [5000, 5000]

    def test_folds_each_product_only_up_to_its_middle(self):
        # At n = N // 2 both folds, Q's and R's onto Q, mirror the degrees
        # above each product's middle, so they return about half the cells.
        rng = random.Random(7)
        a = tuple(rng.randint(1, 40) for _ in range(60))
        n = sum(a) // 2
        value, folds, returned, window = fold_cells(count_dp, a, n)
        assert value == count_upper_constrained(a, n)
        assert len(folds) == 2 and min(folds) > 0
        assert returned <= window / 2 + len(a)

    @pytest.mark.parametrize("k,n", [(5, 2), (10, 0), (10, 10), (12, 7)])
    def test_unit_multiplicities_give_subsets(self, k, n):
        assert count_dp((1,) * k, n) == comb(k, n)

    def test_wide_instances_beyond_incexc_capacity(self):
        assert count_dp((1,) * 100, 3) == comb(100, 3)
        assert count_dp((2,) * 80, 1) == 80

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            count_dp((2, 3), -1)

    def test_bool_n_rejected(self):
        with pytest.raises(ValueError):
            count_dp((2, 3), True)


class TestFullTable:
    def test_two_fives(self):
        table = full_table((5, 5))
        assert table.counts == (1, 2, 3, 4, 5, 6, 5, 4, 3, 2, 1)

    def test_empty_spec(self):
        assert full_table(()).counts == (1,)

    def test_all_zero_spec(self):
        assert full_table((0, 0, 0)).counts == (1,)

    @pytest.mark.parametrize("a", [(1,), (2,), (2, 3, 3), (2, 3, 4), (0, 5, 1, 2), (0, 5, 1, 3)])
    def test_mirrors_odd_and_even_totals(self, a):
        # The upper half is mirrored from the lower one; brute force counts
        # every n on its own.
        assert full_table(a).counts == tuple(count_brute_force(a, n) for n in range(sum(a) + 1))

    @pytest.mark.parametrize("a,expected", [
        # A bound above N // 2 is clamped to it; zero bounds drop out.
        ((5, 1), (1, 2, 2, 2, 2, 2, 1)),
        ((0, 7, 0, 2), (1, 2, 3, 3, 3, 3, 3, 3, 2, 1)),
    ])
    def test_golden_rows(self, a, expected):
        assert full_table(a).counts == expected

    def test_counterexample_entry(self):
        assert full_table((2, 3, 3))[5] == 9

    @pytest.fixture(scope="class")
    def wide_table(self):
        return full_table(WIDE)

    @pytest.mark.parametrize("n", [0, 1, 51, 2500, 5000])
    def test_wide_table_entries(self, wide_table, n):
        # The recurrence's table, against inclusion-exclusion and its mirror.
        assert wide_table[n] == wide_table[len(wide_table) - 1 - n] == count_upper_constrained(WIDE, n)

    def test_matches_per_n_counts(self):
        for a in [(2, 3, 3), (0, 4), (1, 1, 1), (6,)]:
            table = full_table(a)
            assert len(table) == sum(a) + 1
            for n in range(sum(a) + 1):
                assert table[n] == count_dp(a, n)

    def test_endpoints_and_sum(self):
        for a in [(2, 3, 3), (5, 9, 14), (1,), (0, 2)]:
            table = full_table(a)
            assert table[0] == 1
            assert table[len(table) - 1] == 1
            assert sum(table.counts) == prod(m + 1 for m in a)

    def test_folds_each_product_only_up_to_its_middle(self):
        # The table needs degrees up to N // 2 of every product, so one whose
        # total T lies past N // 2 saves only the degrees from T // 2 up to
        # N // 2: over the whole fold about a third of the cells, not half.
        rng = random.Random(7)
        a = tuple(rng.randint(1, 40) for _ in range(60))
        table, folds, returned, window = fold_cells(full_table, a)
        total = sum(a)
        for n in (total // 3, total // 2):
            assert table[n] == table[total - n] == count_upper_constrained(a, n)
        assert sum(table) == prod(m + 1 for m in a)
        assert folds == [len(a)]
        assert returned <= window * 2 / 3

    def test_factor_order_is_irrelevant(self):
        for a in permutations((2, 3, 1, 0)):
            assert full_table(a).counts == full_table((0, 1, 2, 3)).counts


class TestMethodDispatch:
    def test_all_methods_agree_on_counterexample(self):
        for method in CountMethod:
            assert count((2, 3, 3), 5, method=method) == 9

    def test_default_method_handles_wide_specs(self):
        assert count((1,) * 100, 2) == comb(100, 2)

    def test_budget_reaches_brute_force(self):
        with pytest.raises(BudgetExceededError):
            count((5, 5), 5, method=CountMethod.BRUTE_FORCE, budget=1)

    def test_method_by_value(self):
        assert count((2, 3, 3), 5, method="incexc") == 9
        assert count((2, 3, 3), 5, method="dp") == 9
        with pytest.raises(BudgetExceededError):
            count((2, 3, 3), 5, method="brute", budget=1)

    @pytest.mark.parametrize("method", [None, "x", "DYNAMIC_PROGRAMMING"])
    def test_unknown_method_rejected(self, method):
        with pytest.raises(ValueError):
            count((2, 3, 3), 5, method=method)


class TestSympyExpansion:
    """A fourth oracle, outside the package: sympy expands the generating
    function and its coefficient of x^n is the count."""

    def test_coefficient_equals_counts(self):
        sympy = pytest.importorskip("sympy")
        x = sympy.Symbol("x")
        specs = list(product(range(4), repeat=3)) + [(), (5, 9, 14), (2, 3, 3), (0, 7, 1, 2, 6)]
        for a in specs:
            polynomial = sympy.Poly(1, x)
            for m in a:
                polynomial *= sympy.Poly([1] * (m + 1), x)
            for n in range(sum(a) + 2):
                coefficient = int(polynomial.coeff_monomial(x**n))
                assert coefficient == count_dp(a, n) == count_upper_constrained(a, n), (a, n)


class TestOracleEquivalence:
    def test_random_specs(self):
        rng = random.Random(175)
        for _ in range(40):
            k = rng.randint(1, 5)
            a = tuple(rng.randint(0, 6) for _ in range(k))
            if prod(m + 1 for m in a) > 10**5:
                continue
            n = rng.randint(0, sum(a) + 1)
            reference = count_dp(a, n)
            assert count_brute_force(a, n) == reference
            assert count_upper_constrained(a, n) == reference

    def test_against_dumb_enumeration(self):
        for a in product(range(3), repeat=4):
            for n in range(sum(a) + 1):
                assert count_dp(a, n) == dumb_count(a, n)


class TestCrossCheck:
    def test_counterexample_all_methods(self):
        report = cross_check((2, 3, 3), 5)
        assert report.values == {
            CountMethod.INCLUSION_EXCLUSION: 9,
            CountMethod.DYNAMIC_PROGRAMMING: 9,
            CountMethod.BRUTE_FORCE: 9,
        }
        assert report.skipped == {}
        assert report.agree

    def test_two_element_instance(self):
        report = cross_check((3, 4), 5)
        assert set(report.values.values()) == {3}
        assert report.agree

    def test_budget_exclusion_path(self):
        report = cross_check((5, 5), 5, 1)
        assert CountMethod.BRUTE_FORCE not in report.values
        assert CountMethod.BRUTE_FORCE in report.skipped
        assert report.values[CountMethod.INCLUSION_EXCLUSION] == 6
        assert report.values[CountMethod.DYNAMIC_PROGRAMMING] == 6
        assert report.agree

    def test_all_methods_run_at_64_positions(self):
        a = (1,) * 20 + (0,) * 44  # k = 64, but only 2^20 compositions
        report = cross_check(a, 10)
        assert report.values == dict.fromkeys(CountMethod, comb(20, 10))
        assert report.skipped == {}
        assert report.agree

    def test_disagreement_is_reported_not_raised(self):
        report = AgreementReport(
            values={CountMethod.DYNAMIC_PROGRAMMING: 1, CountMethod.BRUTE_FORCE: 2},
            skipped={},
        )
        assert not report.agree
