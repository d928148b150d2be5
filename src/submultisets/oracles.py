"""Independent counting methods used to validate the closed form.

Two methods beside the inclusion-exclusion formula. A generating-function
dynamic program takes the coefficient of x^n in the product of
(1 + x + ... + x^{a_j}) over all elements: Q^2 R, with Q the product over
one of each two equal bounds and R the rest, by core._window_fold, or by
core._by_recurrence where many bounds share few values. It shares with the
formula only core._normalized, which reduces the instance to n <= N/2 and
bounds in 1..n first; full_table takes the same product to degree N // 2
and mirrors it. A count of the lexicographic stream of compositions
(exponential, and refused over a budget of candidate vectors, a plain
positive int) shares nothing with either: it counts the instance as given,
so it also checks the normalization. Both serve any dimension; the DP is
polynomial in it.
"""
from __future__ import annotations

from collections.abc import Iterable
from math import prod
from operator import mul

from .core import (
    CountMethod,
    _by_recurrence,
    _is_int,
    _magnitude,
    _multiplicities,
    _normalized,
    _recurrence_pays,
    _window_fold,
    count_upper_constrained,
)
from .enumeration import iterate

#: Default cap on the compositions the brute-force oracle may visit.
DEFAULT_BUDGET_ITEMS = 10_000_000


class BudgetExceededError(Exception):
    """The brute-force oracle would visit more compositions than allowed."""


def _check_budget(budget: int) -> None:
    """Refuse, with ValueError, a budget that is not a positive int (a bool
    is no count)."""
    if not _is_int(budget) or budget < 1:
        raise ValueError(f"budget must be a positive integer, got {_magnitude(budget)}")


class CountTable(tuple):
    """Per-cardinality sub-multiset counts, indexed by n (0..N)."""

    __slots__ = ()

    @property
    def counts(self) -> tuple[int, ...]:
        """The counts as a plain tuple."""
        return tuple(self)


def count_brute_force(spec: Iterable[int], n: int, budget: int = DEFAULT_BUDGET_ITEMS) -> int:
    """Count sub-multisets of cardinality n by explicit enumeration.

    Counts the items of the iterate stream, a loop with no recursion, so the
    work is proportional to the number of compositions listed. Refuses to
    start when the instance estimate prod(a_j + 1) exceeds the budget, a
    positive int (ValueError otherwise).
    """
    _check_budget(budget)
    a = _multiplicities(spec, n)
    estimate = prod(m + 1 for m in a)
    if estimate > budget:
        raise BudgetExceededError(
            f"instance has an estimated {_magnitude(estimate)} compositions, "
            f"over the budget of {_magnitude(budget)}"
        )
    return sum(1 for _ in iterate(a, n))


def count_dp(spec: Iterable[int], n: int) -> int:
    """Count sub-multisets of cardinality n as a generating-function
    coefficient.

    Normalizes the instance first (n complemented to at most N/2, bounds
    clamped to n, zero bounds dropped). A bound that occurs twice gives a
    squared factor, so the bounds split into two equal halves C and C and
    the odd ones out R, and the product P of the factors
    (1 + x + ... + x^{a_j}) is Q^2 R, with Q the product over C. Q is folded
    in ascending order up to degree min(n, sum(C)), with no lower cut:
    since n <= N/2, every degree of Q can still reach n. The factors of R
    are folded onto Q, each product kept to the degrees that can still
    reach n once the rest of R and the second Q are multiplied in, and
    each product of both folds computed only up to its middle. That gives
    F = QR, and the coefficient of x^n in P is the dot product of F[s] with
    Q[n - s]. Polynomial cost, arbitrary dimension; a spec of equal bounds
    folds only half of them.

    When those folds outnumber what the recurrence of core._by_recurrence
    costs, which depends on the distinct bounds only (core._recurrence_pays),
    p_n is taken from that recurrence instead: (50,) * 200 at n = 5000 is
    5000 steps of three terms, not 100 folds. Both give the same count.
    """
    instance = _normalized(_multiplicities(spec, n), n)
    if instance is None:
        return 0
    a, n = instance
    # Equal bounds sit side by side once sorted: each second one of a run
    # pairs with the one before it.
    pairs: list[int] = []
    odd: list[int] = []
    for m in sorted(a):
        if odd and odd[-1] == m:
            pairs.append(odd.pop())
        else:
            odd.append(m)
    if _recurrence_pays(a, len(pairs) + len(odd)):
        return _by_recurrence(a, n)[n]
    q = _window_fold(pairs, n, reach=n)  # R's fold starts from it, Q's full degree too
    top = len(q[1]) - 1
    # F = QR starts at degree n - top or 0, so F[i] meets Q at degree top - i.
    return sum(map(mul, _window_fold(odd, n, start=q, reach=top)[1], reversed(q[1])))


def full_table(spec: Iterable[int]) -> CountTable:
    """Counts for every cardinality 0..N in a single polynomial product.

    The table is a palindrome (x_j -> a_j - x_j maps cardinality n to N - n),
    so the product is taken to degree N // 2 and the degrees above mirror it.
    Every degree up to N // 2 is an entry, so the instance is (spec, N // 2),
    normalized as count_dp's is. Where the cost gate of count_dp says the
    recurrence is cheaper than folding every bound, as for (50,) * 200, the
    product comes from core._by_recurrence. Otherwise the factors are folded
    in ascending order of their bounds, each product only up to its middle
    and with no cut from below: the product is commutative, and that order
    gives every partial product the lowest degree any order can, so the
    fewest cells and the smallest integers.
    """
    a = _multiplicities(spec, 0)
    total = sum(a)
    a, n = _normalized(a, total // 2)
    if _recurrence_pays(a, len(a)):
        half = _by_recurrence(a, n)
    else:
        half = _window_fold(sorted(a), n, reach=n)[1]
    return CountTable(half + half[:total + 1 - len(half)][::-1])


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
    """Run every method on one instance and report their values.

    Inclusion-exclusion and the DP always run. Brute force refuses an
    instance over its budget; that is recorded as skipped, not failed, and
    the report's agree flag covers the methods that actually ran. An invalid
    budget is refused with ValueError before any method runs.
    """
    _check_budget(budget)
    a = _multiplicities(spec, n)
    values = {
        CountMethod.INCLUSION_EXCLUSION: count_upper_constrained(a, n),
        CountMethod.DYNAMIC_PROGRAMMING: count_dp(a, n),
    }
    skipped: dict[CountMethod, str] = {}
    try:
        values[CountMethod.BRUTE_FORCE] = count_brute_force(a, n, budget)
    except BudgetExceededError as exc:
        skipped[CountMethod.BRUTE_FORCE] = str(exc)
    return AgreementReport(values, skipped)
