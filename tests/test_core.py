"""Closed-form counting: golden values, identities and error contracts."""
import copy
import pickle
from itertools import product
from math import comb, factorial, prod

import pytest

import hooks
from submultisets import (
    CountMethod,
    MultisetSpec,
    core,
    count,
    count_brute_force,
    count_dp,
    count_upper_constrained,
    cross_check,
    full_table,
    iterate,
    rank,
    unrank,
)
from submultisets.core import count_wrong_formula

from formulas import (
    binom_zero_convention,
    count_lower_constrained,
    count_two_elements,
    count_unconstrained,
    dumb_count,
)


class TestMultisetSpec:
    def test_fields(self):
        spec = MultisetSpec((5, 9, 14))
        assert isinstance(spec, tuple)
        assert spec == (5, 9, 14)
        assert spec[1] == 9 and len(spec) == 3

    def test_list_input_coerced_to_tuple(self):
        assert MultisetSpec([2, 3, 3]) == (2, 3, 3)
        assert MultisetSpec(iter([2, 3, 3])) == (2, 3, 3)

    def test_empty_spec(self):
        assert MultisetSpec(()) == ()

    def test_zero_multiplicity_allowed(self):
        assert MultisetSpec((0, 2, 0)) == (0, 2, 0)

    @pytest.mark.parametrize("bad", [(-1,), (2, -3), ("2",), (1.5,), (True, 2), (False,)])
    def test_invalid_multiplicities_rejected(self, bad):
        with pytest.raises(ValueError):
            MultisetSpec(bad)

    def test_equal_and_hashed_by_multiplicities(self):
        spec = MultisetSpec((1, 2))
        assert spec == (1, 2) == MultisetSpec([1, 2])
        assert hash(spec) == hash((1, 2))
        assert len({spec, (1, 2), MultisetSpec((2, 1))}) == 2
        assert spec != MultisetSpec((1, 2, 0))

    def test_immutable(self):
        spec = MultisetSpec((1, 2))
        with pytest.raises(AttributeError):
            spec.multiplicities = (3,)
        with pytest.raises(TypeError):
            spec[0] = 3
        with pytest.raises(TypeError):
            del spec[0]
        assert spec == (1, 2)

    def test_repr_and_pickle_round_trip(self):
        spec = MultisetSpec((5, 0, 14))
        assert eval(repr(spec), {"MultisetSpec": MultisetSpec}) == spec
        copies = [copy.copy(spec), copy.deepcopy(spec)]
        copies += [pickle.loads(pickle.dumps(spec, protocol))
                   for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for other in copies:
            assert type(other) is MultisetSpec and other == spec
        # A copy, and a load from pickle protocol 2 or later, builds the spec
        # through __new__ and so through the gate again: a spec that skipped
        # the gate is refused.
        forged = tuple.__new__(MultisetSpec, (1, -1))
        for rebuild in [copy.copy, copy.deepcopy] + [
                lambda s, p=p: pickle.loads(pickle.dumps(s, p))
                for p in range(2, pickle.HIGHEST_PROTOCOL + 1)]:
            with pytest.raises(ValueError):
                rebuild(forged)


def report_fields(report):
    return report.values, report.skipped, report.agree


# Every entry point that takes an instance, with each method of count, as a
# function of (spec, n) whose result compares with ==; full_table takes no n.
INSTANCE_TAKERS = {
    **{f"count-{m.value}": (lambda spec, n, m=m: count(spec, n, method=m)) for m in CountMethod},
    "count_upper_constrained": count_upper_constrained,
    "count_dp": count_dp,
    "count_brute_force": count_brute_force,
    "full_table": lambda spec, n: full_table(spec),
    "cross_check": lambda spec, n: report_fields(cross_check(spec, n)),
    "iterate": lambda spec, n: list(iterate(spec, n)),
    "rank": lambda spec, n: rank(spec, n, (2, 3, 0)),
    "unrank": lambda spec, n: unrank(spec, n, 8),
}


# Every integer argument of the library at every entry point that takes it,
# as (what the message calls it, its least value, a call with value v in it).
INT_ARGUMENTS = [
    *[pytest.param("multiplicity", 0, lambda v, take=take: take((2, v, 3), 5), id=f"multiplicity-{entry}")
      for entry, take in INSTANCE_TAKERS.items()],
    *[pytest.param("n", 0, lambda v, take=take: take((2, 3, 3), v), id=f"n-{entry}")
      for entry, take in INSTANCE_TAKERS.items() if entry != "full_table"],
    pytest.param("entry 0", 0, lambda v: rank((2, 3, 3), 5, (v, 3, 2)), id="entry-rank"),
    pytest.param("entry 0", 0, lambda v: iterate((2, 3, 3), 5, start=(v, 3, 2)), id="entry-iterate"),
    pytest.param("rank", 0, lambda v: unrank((2, 3, 3), 5, v), id="rank-unrank"),
    pytest.param("budget", 1, lambda v: count((2, 3, 3), 5, budget=v), id="budget-count"),
    pytest.param("budget", 1, lambda v: cross_check((2, 3, 3), 5, v), id="budget-cross_check"),
    pytest.param("budget", 1, lambda v: count_brute_force((2, 3, 3), 5, v), id="budget-count_brute_force"),
]


class TestInputGate:
    """Every entry point validates its instance in one gate, takes the spec
    in any form, reads it once and hands its kernels exact tuples."""

    @pytest.mark.parametrize("what, least, call", INT_ARGUMENTS)
    def test_every_integer_argument_has_one_refusal(self, what, least, call):
        # One rule and one message: an int, not a bool, of at least least.
        kind = "positive" if least else "non-negative"
        refused = [(True, "True"), (-1, "-1"), (1.5, "1.5"), (1.0, "1.0"), (2.0, "2.0"),
                   ("1", "'1'"), (-10**5000, "-10^5000.0")] + [(0, "0")] * least
        for value, shown in refused:
            with pytest.raises(ValueError) as info:
                call(value)
            assert str(info.value) == f"{what} must be a {kind} integer, got {shown}"

    @pytest.mark.parametrize("entry", list(INSTANCE_TAKERS))
    def test_every_entry_point_shares_the_gate(self, entry):
        take = INSTANCE_TAKERS[entry]
        forms = [[2, 3, 3], (2, 3, 3), MultisetSpec((2, 3, 3)), iter([2, 3, 3])]
        results = [take(spec, 5) for spec in forms]
        assert all(result == results[0] for result in results), results

    def test_kernels_get_exact_tuples(self):
        # Below 33 positions iterate joins tails to the leading positions;
        # (1,) * 40 hands the whole spec to the successor loop. From an empty
        # store, rank and unrank build the tables of both.
        kernels = ["_successors", "_suffix_tables", "_normalized"]
        with hooks.kept_tables(), hooks.recorded(*kernels) as calls:
            for a, n in [((2, 3, 3), 5), ((1,) * 40, 3)]:
                spec = MultisetSpec(a)
                count_upper_constrained(spec, n)
                full_table(spec)
                cross_check(spec, n)
                list(iterate(spec, n))
                rank(spec, n, unrank(spec, n, 1))
        seen = {name: {type(call.args[0]) for call in record} for name, record in calls.items()}
        assert seen == dict.fromkeys(kernels, {tuple})


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

    def test_paper_formula_set_by_set(self):
        # The paper's inclusion-exclusion, one term per set L of violated
        # bounds: the vectors with x_j >= a_j + 1 on L and x_j >= 0 elsewhere,
        # signed (-1)^|L|. The code sums the same terms by weight instead.
        for k in range(1, 5):
            for a in product(range(4), repeat=k):
                for n in range(sum(a) + 2):
                    expected = sum(
                        (-1) ** sum(chosen)
                        * count_lower_constrained(tuple(m + 1 if c else 0 for m, c in zip(a, chosen)), n)
                        for chosen in product((0, 1), repeat=k)
                    )
                    assert count_upper_constrained(a, n) == expected, (a, n)

    @pytest.mark.parametrize("bounds", [(), (0,), (4,), (2, 2), (1, 1, 1), (0, 1, 2), (3, 1, 3, 0), (1, 2, 2, 5)])
    def test_signed_weights_tally_the_sets(self, bounds):
        # Every weight up to the limit that some set of bounds has is a key,
        # even where its sets cancel (bounds 0, 1, 2 at weight 3), and the
        # nonzero coefficients are the signed tally of the sets by weight.
        full = sum(m + 1 for m in bounds)
        for limit in range(full + 1):
            tally = {}
            for chosen in product((0, 1), repeat=len(bounds)):
                weight = sum(m + 1 for m, c in zip(bounds, chosen) if c)
                if weight <= limit:
                    tally[weight] = tally.get(weight, 0) + (-1) ** sum(chosen)
            weights = core._signed_weights(bounds, limit)
            assert set(weights) == set(tally), (bounds, limit)
            nonzero = {e: t for e, t in weights.items() if t}
            assert nonzero == {e: t for e, t in tally.items() if t}, (bounds, limit)

    def test_any_dimension_is_answered(self):
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
