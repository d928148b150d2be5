"""Independent counting methods used to validate the closed form.

Two methods beside the inclusion-exclusion formula. A generating-function
dynamic program takes the coefficient of x^n in the product of
(1 + x + ... + x^{a_j}) over all elements. It folds each repeated bound
once: with Q the product over one of each two equal bounds and R the
factors left over, the product is Q^2 R, so it folds Q, then R onto Q, and
ends with one dot product against Q, keeping each partial product to the
degrees from which n is still reachable. When many bounds share few values,
core._recurrence_pays sends it instead to core._by_recurrence, which steps
through the product's coefficients by a linear recurrence as long as the
distinct bounds make it. It shares with the formula only core._normalized,
which reduces the instance to n <= N/2 and bounds in 1..n first;
full_table normalizes (spec, N // 2) the same way, takes the product to that
degree, by the recurrence under the same gate or else folded in ascending
order of the bounds, and mirrors its lower half. A count of the
lexicographic stream of compositions (exponential, and refused over a budget
of candidate vectors, a plain positive int) shares nothing with either: it
counts the instance as given, so it also checks the normalization. Both
serve any dimension; the DP is polynomial in it.
"""
from __future__ import annotations

from math import prod
from operator import mul

from .core import (
    CountMethod,
    SpecLike,
    _by_recurrence,
    _is_int,
    _multiplicities,
    _normalized,
    _recurrence_pays,
    _Value,
    _window_fold,
    as_spec,
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
        raise ValueError(f"budget must be a positive integer, got {budget!r}")


class CountTable(_Value):
    """Per-cardinality sub-multiset counts, indexed by n (0..N)."""

    __slots__ = ("counts",)
    counts: tuple[int, ...]

    def __init__(self, counts: tuple[int, ...]) -> None:
        object.__setattr__(self, "counts", counts)

    def __len__(self) -> int:
        return len(self.counts)

    def __getitem__(self, n: int) -> int:
        return self.counts[n]


def count_brute_force(spec: SpecLike, n: int, budget: int = DEFAULT_BUDGET_ITEMS) -> int:
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
            f"instance has an estimated {estimate} compositions, over the "
            f"budget of {budget}"
        )
    return sum(1 for _ in iterate(a, n))


def count_dp(spec: SpecLike, n: int) -> int:
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
    reach n once the rest of R and the second Q are multiplied in: none
    above n, and none below n minus the bounds of R still to come and the
    top degree of Q. That gives F = QR, and the coefficient of x^n in P is
    the dot product of F[s] with Q[n - s]. Polynomial cost, arbitrary
    dimension; a spec of equal bounds folds only half of them.

    When those folds outnumber what the recurrence of core._by_recurrence
    costs, which depends on the distinct bounds only (core._recurrence_pays),
    p_n is taken from that recurrence instead: (50,) * 200 at n = 5000 is
    5000 steps of three terms, not 100 folds. Both give the same count.
    """
    instance = _normalized(spec, n)
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
    q = _window_fold(pairs, n, reach=n)
    top = len(q) - 1
    # F = QR starts at degree n - top or 0, so F[i] meets Q at degree top - i.
    return sum(map(mul, _window_fold(odd, n, start=q, reach=top), reversed(q)))


def full_table(spec: SpecLike) -> CountTable:
    """Counts for every cardinality 0..N in a single polynomial product.

    The table is a palindrome (x_j -> a_j - x_j maps cardinality n to N - n),
    so the product is taken to degree N // 2 and the degrees above mirror it.
    Every degree up to N // 2 is an entry, so the instance is (spec, N // 2),
    normalized as count_dp's is. Where the cost gate of count_dp says the
    recurrence is cheaper than folding every bound, as for (50,) * 200, the
    product comes from core._by_recurrence. Otherwise the factors are folded
    in ascending order of their bounds, with no product cut from below: the
    product is commutative, and that order gives every partial product the
    lowest degree any order can, so the fewest cells and the smallest
    integers.
    """
    spec = as_spec(spec)
    total = sum(spec.multiplicities)
    a, n = _normalized(spec, total // 2)
    if _recurrence_pays(a, len(a)):
        half = _by_recurrence(a, n)
    else:
        half = _window_fold(sorted(a), n, reach=n)
    return CountTable(tuple(half + half[:total + 1 - len(half)][::-1]))


class AgreementReport(_Value):
    """Outcome of running every applicable counting method on one instance."""

    __slots__ = ("values", "skipped")
    values: dict[CountMethod, int]
    skipped: dict[CountMethod, str]

    def __init__(self, values: dict[CountMethod, int], skipped: dict[CountMethod, str]) -> None:
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "skipped", skipped)

    @property
    def agree(self) -> bool:
        return len(set(self.values.values())) <= 1


def count(
    spec: SpecLike,
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


def cross_check(spec: SpecLike, n: int, budget: int = DEFAULT_BUDGET_ITEMS) -> AgreementReport:
    """Run every method on one instance and report their values.

    Inclusion-exclusion and the DP always run. Brute force refuses an
    instance over its budget; that is recorded as skipped, not failed, and
    the report's agree flag covers the methods that actually ran. An invalid
    budget is refused with ValueError before any method runs.
    """
    _check_budget(budget)
    spec = as_spec(spec)
    values = {
        CountMethod.INCLUSION_EXCLUSION: count_upper_constrained(spec, n),
        CountMethod.DYNAMIC_PROGRAMMING: count_dp(spec, n),
    }
    skipped: dict[CountMethod, str] = {}
    try:
        values[CountMethod.BRUTE_FORCE] = count_brute_force(spec, n, budget)
    except BudgetExceededError as exc:
        skipped[CountMethod.BRUTE_FORCE] = str(exc)
    return AgreementReport(values, skipped)
