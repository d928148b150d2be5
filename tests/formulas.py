"""Closed forms the tests use as an oracle, outside the package's API."""
from math import comb


def _require_counts(**values: int) -> None:
    # bool is an int subclass but no count; type() refuses it with the rest.
    for name, value in values.items():
        if type(value) is not int or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")


def binom_zero_convention(alpha: int, beta: int) -> int:
    """C(alpha, beta), taken to be 0 when alpha < 0, beta < 0 or alpha < beta.

    The zero cases are the combinatorially meaningful extension: there is no
    way to choose beta items out of fewer than beta.
    """
    if beta < 0 or alpha < beta:
        return 0
    return comb(alpha, beta)


def count_unconstrained(k: int, n: int) -> int:
    """Number of length-k sequences of non-negative integers summing to n.

    Stars and bars: C(n + k - 1, k - 1). This is also the sub-multiset count
    whenever n does not exceed any multiplicity.
    """
    _require_counts(k=k, n=n)
    if k == 0:
        if n == 0:
            return 1  # the empty sequence sums to 0
        raise ValueError("k must be at least 1 when n > 0")
    return comb(n + k - 1, k - 1)


def count_lower_constrained(bounds: tuple[int, ...], n: int) -> int:
    """Number of length-k sequences summing to n with x_j >= a_j for every j.

    Shifting each x_j down by a_j reduces this to the unconstrained count of
    n - sum(a); the zero convention makes the result 0 when n < sum(a).
    """
    _require_counts(n=n)
    for bound in bounds:
        _require_counts(bound=bound)
    k = len(bounds)
    if k == 0:
        raise ValueError("lower-constrained count needs at least one position")
    return binom_zero_convention(n - sum(bounds) + k - 1, k - 1)


def count_two_elements(a1: int, a2: int, n: int) -> int:
    """Sub-multiset count for the two-element case, in closed form.

    x_1 ranges over the integers in [max(0, n - a2), min(n, a1)], so the
    count is the length of that interval, clamped at zero. Beware the
    tempting variant min(n, a1) - max(1, n - a2) + 2: it overcounts by one
    whenever n > a2.
    """
    _require_counts(a1=a1, a2=a2, n=n)
    return max(0, min(n, a1) - max(0, n - a2) + 1)


def suffix_tables_reference(bounds: tuple[int, ...], n: int) -> list[tuple[int, list[int]]]:
    """(low, counts) for each suffix j = 0..k of bounds: counts[s - low] is
    the number of ways positions j.. make up s, for s from
    max(0, n - sum(bounds[:j])) to min(n, sum(bounds[j:])).

    Each suffix's product of 1 + x + ... + x^m is expanded in full by plain
    convolution and only then cut to that window: no cut while folding and
    no mirror. Needs n <= sum(bounds).
    """
    product = [1]
    products = [product]
    for m in reversed(bounds):
        product = [sum(product[s - v] for v in range(max(0, s - len(product) + 1), min(m, s) + 1))
                   for s in range(len(product) + m)]
        products.append(product)
    products.reverse()
    tables = []
    for j, full in enumerate(products):
        low = max(0, n - sum(bounds[:j]))
        tables.append((low, full[low:min(n, sum(bounds[j:])) + 1]))
    return tables
