"""The brute-force oracle, and the functions that pick or compare methods.

count_brute_force counts the lexicographic stream of compositions
(exponential, and refused when an estimate of its steps is over a budget,
a plain positive int). It shares nothing with core's closed form or its DP:
it counts the instance as given, so it also checks their normalization. count
runs one method by its CountMethod, and cross_check runs every method
through count and reports whether they agree, with brute force skipped,
not failed, over its budget.
"""
from __future__ import annotations

from collections.abc import Iterable
from math import comb, prod

from .core import (
    CountMethod,
    _is_int,
    _magnitude,
    _multiplicities,
    count_dp,
    count_upper_constrained,
)

#: Default cap on the estimated steps of the brute-force oracle.
DEFAULT_BUDGET_ITEMS = 10_000_000


class BudgetExceededError(Exception):
    """The brute-force oracle would take more steps than allowed."""


def _check_budget(budget: int) -> None:
    """Refuse, with ValueError, a budget that is not a positive int (a bool
    is no count)."""
    if not _is_int(budget) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {_magnitude(budget)}")


def count_brute_force(spec: Iterable[int], n: int, budget: int = DEFAULT_BUDGET_ITEMS) -> int:
    """Count sub-multisets of cardinality n by explicit enumeration.

    Counts the items of the iterate stream, a loop with no recursion, so the
    work is proportional to the number of compositions listed. Refuses to
    start when the estimate of its steps exceeds the budget, a positive int
    (ValueError otherwise). The estimate is prod(a_j + 1), the candidate
    vectors, or when that is over, the smaller of it and
    k * C(n + k - 1, k - 1): the entries of the compositions of n with no
    bounds, as the stream writes each composition's k entries.
    """
    _check_budget(budget)
    a = _multiplicities(spec, n)
    estimate = prod(m + 1 for m in a)
    if estimate > budget:  # k >= 1 here, as the empty product is 1
        estimate = min(estimate, len(a) * comb(n + len(a) - 1, len(a) - 1))
    if estimate > budget:
        raise BudgetExceededError(
            f"instance has an estimated {_magnitude(estimate)} steps, "
            f"over the budget of {_magnitude(budget)}"
        )
    from .enumeration import iterate  # here, so a count by dp or incexc never loads it
    return sum(1 for _ in iterate(a, n))


class AgreementReport:
    """Outcome of running every applicable counting method on one instance:
    the value of each method that ran, why each other one was skipped, and
    whether the values agree."""

    __slots__ = ("values", "skipped", "agree")

    def __init__(self, values: dict[CountMethod, int], skipped: dict[CountMethod, str]) -> None:
        self.values = values
        self.skipped = skipped
        self.agree = len(set(values.values())) <= 1


def count(
    spec: Iterable[int],
    n: int,
    method: CountMethod | str = CountMethod.DYNAMIC_PROGRAMMING,
    budget: int = DEFAULT_BUDGET_ITEMS,
) -> int:
    """Count sub-multisets of cardinality n with the chosen method, given as
    a CountMethod member or its value ("incexc", "dp", "brute"); any other
    method raises ValueError. budget caps brute force; whatever the method,
    it must be a positive int, or ValueError is raised."""
    _check_budget(budget)
    method = CountMethod(method)
    if method is CountMethod.INCLUSION_EXCLUSION:
        return count_upper_constrained(spec, n)
    if method is CountMethod.BRUTE_FORCE:
        return count_brute_force(spec, n, budget)
    return count_dp(spec, n)


def cross_check(spec: Iterable[int], n: int, budget: int = DEFAULT_BUDGET_ITEMS) -> AgreementReport:
    """Run every method on one instance, each through count, and report
    their values.

    Inclusion-exclusion and the DP always run. Brute force refuses an
    instance over its budget; that is recorded as skipped, not failed, and
    the report's agree flag covers the methods that actually ran. An invalid
    budget is refused with ValueError before any method runs.
    """
    _check_budget(budget)
    a = _multiplicities(spec, n)
    values: dict[CountMethod, int] = {}
    skipped: dict[CountMethod, str] = {}
    for method in CountMethod:
        try:
            values[method] = count(a, n, method, budget)
        except BudgetExceededError as exc:
            skipped[method] = str(exc)
    return AgreementReport(values, skipped)
