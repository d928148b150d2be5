"""Closed-form counting: golden values, identities and error contracts."""
import pickle
from itertools import product
from math import comb, factorial, prod

import pytest

from submultisets import CountMethod, MultisetSpec, count_upper_constrained
from submultisets.core import as_spec, count_wrong_formula
from submultisets.oracles import count_dp

from formulas import (
    binom_zero_convention,
    count_lower_constrained,
    count_two_elements,
    count_unconstrained,
)


def dumb_count(a, n):
    """Independent oracle: full cartesian-product enumeration."""
    return sum(1 for x in product(*(range(m + 1) for m in a)) if sum(x) == n)


class TestMultisetSpec:
    def test_fields(self):
        spec = MultisetSpec((5, 9, 14))
        assert spec.multiplicities == (5, 9, 14)

    def test_list_input_coerced_to_tuple(self):
        assert MultisetSpec([2, 3, 3]).multiplicities == (2, 3, 3)

    def test_empty_spec(self):
        assert MultisetSpec(()).multiplicities == ()

    def test_zero_multiplicity_allowed(self):
        assert MultisetSpec((0, 2, 0)).multiplicities == (0, 2, 0)

    @pytest.mark.parametrize("bad", [(-1,), (2, -3), ("2",), (1.5,), (True, 2), (False,)])
    def test_invalid_multiplicities_rejected(self, bad):
        with pytest.raises(ValueError):
            MultisetSpec(bad)

    def test_equal_and_hashed_by_multiplicities(self):
        spec = MultisetSpec((1, 2))
        assert spec == MultisetSpec([1, 2])
        assert hash(spec) == hash(MultisetSpec([1, 2]))
        assert len({spec, MultisetSpec([1, 2]), MultisetSpec((2, 1))}) == 2
        assert spec != (1, 2)
        assert spec != MultisetSpec((1, 2, 0))

    def test_immutable(self):
        spec = MultisetSpec((1, 2))
        with pytest.raises(AttributeError):
            spec.multiplicities = (3,)
        with pytest.raises(AttributeError):
            del spec.multiplicities
        assert spec.multiplicities == (1, 2)

    def test_repr_and_pickle_round_trip(self):
        spec = MultisetSpec((5, 0, 14))
        assert eval(repr(spec), {"MultisetSpec": MultisetSpec}) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_as_spec_passthrough_and_coercion(self):
        spec = MultisetSpec((1, 2))
        assert as_spec(spec) is spec
        assert as_spec([1, 2]) == spec
        assert as_spec((1, 2)) == spec


class TestBinomZeroConvention:
    @pytest.mark.parametrize("alpha,beta,expected", [
        (5, 0, 1),
        (-1, 2, 0),
        (3, 5, 0),
        (10, 2, 45),
        (-3, -2, 0),
        (4, -1, 0),
        (0, 0, 1),
    ])
    def test_examples(self, alpha, beta, expected):
        assert binom_zero_convention(alpha, beta) == expected

    def test_matches_factorial_ratio_in_range(self):
        for alpha in range(0, 12):
            for beta in range(0, alpha + 1):
                expected = factorial(alpha) // (factorial(beta) * factorial(alpha - beta))
                assert binom_zero_convention(alpha, beta) == expected

    def test_zero_outside_range(self):
        for alpha in range(-6, 6):
            for beta in range(-6, 6):
                if alpha < 0 or beta < 0 or alpha < beta:
                    assert binom_zero_convention(alpha, beta) == 0


class TestCountUnconstrained:
    def test_three_summands_of_eight(self):
        assert count_unconstrained(3, 8) == 45
        # independent check: enumerate all 3-vectors summing to 8
        assert dumb_count((8, 8, 8), 8) == 45

    def test_single_summand_forced(self):
        assert count_unconstrained(1, 7) == 1

    def test_two_summands(self):
        assert count_unconstrained(2, 5) == 6

    def test_zero_dimension(self):
        assert count_unconstrained(0, 0) == 1
        with pytest.raises(ValueError):
            count_unconstrained(0, 3)

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError):
            count_unconstrained(3, -1)
        with pytest.raises(ValueError):
            count_unconstrained(-2, 0)
        # bool and float are no counts, for k as for n
        for k, n in ((True, 3), (2.0, 3), (2, True), (2, 3.0)):
            with pytest.raises(ValueError):
                count_unconstrained(k, n)


class TestCountLowerConstrained:
    def test_zero_bounds_reduce_to_unconstrained(self):
        assert count_lower_constrained((0, 0, 0), 8) == count_unconstrained(3, 8) == 45

    def test_forced_solution(self):
        assert count_lower_constrained((1, 1), 2) == 1

    def test_two_positions(self):
        # x1 in {2,3,4} with x2 = 5 - x1 >= 1
        assert count_lower_constrained((2, 1), 5) == 3

    def test_zero_when_sum_unreachable(self):
        assert count_lower_constrained((4, 4), 5) == 0

    def test_against_enumeration(self):
        for bounds in product(range(3), repeat=3):
            for n in range(10):
                expected = sum(
                    1 for x in product(range(n + 1), repeat=3)
                    if sum(x) == n and all(v >= b for v, b in zip(x, bounds))
                )
                assert count_lower_constrained(bounds, n) == expected

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            count_lower_constrained((), 0)


class TestCountUpperConstrained:
    @pytest.mark.parametrize("a,n,expected", [
        ((2, 3, 3), 5, 9),
        ((5, 5), 5, 6),
        ((5, 9, 14), 12, 57),
        ((2, 2), 5, 0),
        ((4,), 5, 0),
        ((3, 4), 5, 3),
    ])
    def test_golden_values(self, a, n, expected):
        assert count_upper_constrained(a, n) == expected

    def test_boundary_values(self):
        assert count_upper_constrained((3, 1, 2), 0) == 1
        assert count_upper_constrained((3, 1, 2), 6) == 1  # the full selection
        assert count_upper_constrained((3, 1, 2), 7) == 0

    def test_empty_spec(self):
        assert count_upper_constrained((), 0) == 1
        assert count_upper_constrained((), 1) == 0

    def test_zero_multiplicities_forced(self):
        assert count_upper_constrained((0, 0), 0) == 1
        assert count_upper_constrained((0, 5, 0), 3) == 1

    def test_matches_dumb_enumeration(self):
        for a in product(range(4), repeat=3):
            for n in range(sum(a) + 2):
                assert count_upper_constrained(a, n) == dumb_count(a, n), (a, n)

    def test_capacity_error_beyond_63(self):
        # The weight sum has no dimension cap: k = 64 and beyond are answered.
        assert count_upper_constrained((1,) * 64, 3) == count_dp((1,) * 64, 3) == comb(64, 3)
        assert count_upper_constrained((1,) * 1000, 500) == count_dp((1,) * 1000, 500)

    def test_malformed_spec_rejected(self):
        with pytest.raises(ValueError):
            count_upper_constrained((2, -3), 1)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            count_upper_constrained((2, 3), -1)

    def test_bool_n_rejected(self):
        # bool is an int subclass; True must not pass for n = 1.
        with pytest.raises(ValueError):
            count_upper_constrained((2, 3), True)


class TestSequenceIdentities:
    SPECS = [(2, 3, 3), (5, 5), (5, 9, 14), (1, 1, 1, 1), (0, 4, 2), (7,)]

    @pytest.mark.parametrize("a", SPECS)
    def test_complement_symmetry(self, a):
        total = sum(a)
        for n in range(total + 1):
            assert count_upper_constrained(a, n) == count_upper_constrained(a, total - n)

    @pytest.mark.parametrize("a", SPECS)
    def test_total_sum_identity(self, a):
        total = sum(a)
        assert sum(count_upper_constrained(a, n) for n in range(total + 1)) == \
            prod(m + 1 for m in a)

    @pytest.mark.parametrize("a", SPECS)
    def test_reduces_to_stars_and_bars_below_min(self, a):
        k = len(a)
        for n in range(min(a) + 1):
            assert count_upper_constrained(a, n) == count_unconstrained(k, n)

    @pytest.mark.parametrize("a", SPECS)
    def test_symmetric_and_unimodal(self, a):
        total = sum(a)
        seq = [count_upper_constrained(a, n) for n in range(total + 1)]
        assert seq == seq[::-1]
        first_half = seq[: total // 2 + 1]
        assert all(x <= y for x, y in zip(first_half, first_half[1:]))


class TestCountTwoElements:
    @pytest.mark.parametrize("a1,a2,n,expected", [
        (5, 5, 5, 6),
        (3, 4, 5, 3),
        (2, 2, 5, 0),
        (0, 0, 0, 1),
        (4, 0, 2, 1),
    ])
    def test_golden_values(self, a1, a2, n, expected):
        assert count_two_elements(a1, a2, n) == expected

    def test_agrees_with_general_count_on_grid(self):
        for a1 in range(9):
            for a2 in range(9):
                for n in range(17):
                    assert count_two_elements(a1, a2, n) == \
                        count_upper_constrained((a1, a2), n), (a1, a2, n)

    def test_interval_formula_off_by_one_regression(self):
        # The tempting closed form min(n,a1) - max(1, n-a2) + 2 overcounts by
        # one whenever n > a2; the interval really is
        # [max(0, n-a2), min(n, a1)], giving 3 values here, not 4.
        a1, a2, n = 3, 4, 5
        naive = min(n, a1) - max(1, n - a2) + 2
        assert naive == 4
        assert count_two_elements(a1, a2, n) == 3

    def test_negative_input_rejected(self):
        with pytest.raises(ValueError):
            count_two_elements(-1, 2, 3)


class TestCountWrongFormula:
    def test_overcounts_the_counterexample(self):
        assert count_wrong_formula((2, 3, 3), 5) == 10
        assert count_upper_constrained((2, 3, 3), 5) == 9
        assert count_wrong_formula((2, 3, 3), 5) - count_upper_constrained((2, 3, 3), 5) == 1

    def test_coincides_when_no_overshoot_possible(self):
        # C(10 - 5 + 2 - 1, 1) = 6 happens to equal the true count here.
        assert count_wrong_formula((5, 5), 5) == 6 == count_upper_constrained((5, 5), 5)

    def test_empty_spec_rejected(self):
        with pytest.raises(ValueError):
            count_wrong_formula((), 0)


def test_count_method_members():
    assert {m.value for m in CountMethod} == {"incexc", "dp", "brute"}


def test_package_surface_is_pinned():
    import submultisets

    assert sorted(submultisets.__all__) == [
        "AgreementReport", "BudgetExceededError", "CountMethod", "CountTable",
        "DEFAULT_BUDGET_ITEMS", "MultisetSpec", "count",
        "count_brute_force", "count_dp", "count_upper_constrained",
        "cross_check", "full_table", "iterate", "rank", "unrank",
    ]
    for name in ("Budget", "as_spec", "binom_zero_convention", "count_lower_constrained",
                 "count_unconstrained"):
        assert not hasattr(submultisets, name), name
