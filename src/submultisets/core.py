"""Closed-form counting of bounded compositions.

A multiset with element multiplicities (a_1, ..., a_k) has one sub-multiset of
cardinality n for every integer vector (x_1, ..., x_k) with

    x_1 + ... + x_k = n   and   0 <= x_j <= a_j .

This module counts those vectors exactly, in arbitrary precision: the
unconstrained stars-and-bars count, the lower-constrained variant, and the
headline upper-constrained count obtained by inclusion-exclusion over the set
of violated upper bounds. Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from math import comb
from typing import Sequence, Union

# The inclusion-exclusion sum ranges over all subsets of the k positions,
# driven by machine-word subset masks; beyond this many positions the subset
# walk is both unaddressable and hopeless, and callers get an explicit error
# instead of a silently slower algorithm.
IE_MAX_DIMENSION = 63


class CapacityError(Exception):
    """An algorithm was asked for an instance size it refuses by design."""


@dataclass(frozen=True)
class MultisetSpec:
    """A multiset given by its element multiplicities (a_1, ..., a_k).

    The order of entries fixes the position meaning everywhere else in the
    package (composition entries, lexicographic enumeration). Entries may be
    zero; a zero-multiplicity element simply forces x_j = 0.
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        mults = tuple(self.multiplicities)
        for m in mults:
            # bool is an int subclass but no multiplicity; the exact-type
            # test first keeps the common case as cheap as one isinstance.
            if type(m) is not int and (isinstance(m, bool) or not isinstance(m, int)):
                raise ValueError(f"multiplicity must be an integer, got {m!r}")
            if m < 0:
                raise ValueError(f"multiplicity must be non-negative, got {m}")
        object.__setattr__(self, "multiplicities", mults)

    @property
    def dimension(self) -> int:
        """Number of distinct elements, k."""
        return len(self.multiplicities)

    @property
    def cardinality(self) -> int:
        """Total number of items counting repeats, N = sum of multiplicities."""
        return sum(self.multiplicities)


SpecLike = Union[MultisetSpec, Sequence[int]]


def as_spec(value: SpecLike) -> MultisetSpec:
    """Coerce a multiplicity sequence into a validated MultisetSpec."""
    if isinstance(value, MultisetSpec):
        return value
    return MultisetSpec(tuple(value))


class CountMethod(enum.Enum):
    """Selects which counting algorithm to run; all agree on shared inputs."""

    INCLUSION_EXCLUSION = "incexc"
    DYNAMIC_PROGRAMMING = "dp"
    BRUTE_FORCE = "brute"


def _check_n(n: int) -> None:
    if type(n) is not int and (isinstance(n, bool) or not isinstance(n, int)):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")


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
    _check_n(n)
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    if k == 0:
        if n == 0:
            return 1  # the empty sequence sums to 0
        raise ValueError("k must be at least 1 when n > 0")
    return comb(n + k - 1, k - 1)


def count_lower_constrained(spec: SpecLike, n: int) -> int:
    """Number of length-k sequences summing to n with x_j >= a_j for every j.

    Shifting each x_j down by a_j reduces this to the unconstrained count of
    n - sum(a); the zero convention makes the result 0 when n < sum(a).
    """
    spec = as_spec(spec)
    _check_n(n)
    k = spec.dimension
    if k == 0:
        raise ValueError("lower-constrained count needs at least one position")
    return binom_zero_convention(n - spec.cardinality + k - 1, k - 1)


def count_upper_constrained(spec: SpecLike, n: int) -> int:
    """Number of sub-multisets of cardinality n, i.e. of vectors with
    sum n and 0 <= x_j <= a_j.

    Computed by inclusion-exclusion over which upper bounds are violated:
    each subset L of positions contributes (-1)^|L| times the unconstrained
    count of vectors forced to exceed the bounds in L. Runs through all 2^k
    subsets, so the cost is exponential in the dimension; k is capped at
    IE_MAX_DIMENSION and larger instances are told to use count_dp, which is
    polynomial. The alternating sum is accumulated exactly and must come out
    non-negative; anything else is an internal bug, not a valid outcome.
    """
    a = as_spec(spec).multiplicities
    _check_n(n)
    k = len(a)
    if k > IE_MAX_DIMENSION:
        raise CapacityError(
            f"inclusion-exclusion iterates 2^k subsets and supports at most "
            f"k = {IE_MAX_DIMENSION} positions, got k = {k}; use the "
            f"DYNAMIC_PROGRAMMING method (count_dp) instead"
        )
    if k == 0:
        return 1 if n == 0 else 0

    choose = k - 1
    base = n + k - 1
    total = comb(base, choose)  # the empty subset: all unconstrained vectors

    # Walk the subset masks in Gray-code order so each step toggles a single
    # position; `weight` tracks |L| + sum of a_j over L incrementally and the
    # term sign flips on every step. Binomial tops repeat heavily across
    # subsets, hence the memo.
    deltas = [m + 1 for m in a]
    weight = 0
    mask = 0
    negative = False
    memo: dict[int, int] = {}
    memo_get = memo.get
    for i in range(1, 1 << k):
        low = i & -i
        mask ^= low
        if mask & low:
            weight += deltas[low.bit_length() - 1]
        else:
            weight -= deltas[low.bit_length() - 1]
        negative = not negative
        top = base - weight
        if top >= choose:
            term = memo_get(top)
            if term is None:
                term = comb(top, choose)
                memo[top] = term
            total = total - term if negative else total + term
    if total < 0:
        raise RuntimeError(
            f"internal error: inclusion-exclusion accumulator ended negative "
            f"({total}) for multiplicities {a}, n={n}"
        )
    return total


def count_two_elements(a1: int, a2: int, n: int) -> int:
    """Sub-multiset count for the two-element case, in closed form.

    x_1 ranges over the integers in [max(0, n - a2), min(n, a1)], so the
    count is the length of that interval, clamped at zero. Beware the
    tempting variant min(n, a1) - max(1, n - a2) + 2: it overcounts by one
    whenever n > a2.
    """
    for name, value in (("a1", a1), ("a2", a2), ("n", n)):
        if not isinstance(value, int) or value < 0:
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return max(0, min(n, a1) - max(0, n - a2) + 1)


def count_wrong_formula(spec: SpecLike, n: int) -> int:
    """The complement-substitution count C(sum(a) - n + k - 1, k - 1).

    NOT a correct sub-multiset count: substituting y_j = a_j - x_j turns the
    upper bounds into y_j >= 0 only if no y_j can exceed a_j, which the
    substitution does not guarantee, so invalid vectors with some x_j < 0 get
    counted too. Kept as a negative control for tests; see
    count_upper_constrained for the real thing.
    """
    spec = as_spec(spec)
    _check_n(n)
    k = spec.dimension
    if k == 0:
        raise ValueError("this formula needs at least one position")
    return binom_zero_convention(spec.cardinality - n + k - 1, k - 1)


def hypergeometric_support_cardinality(class_sizes: SpecLike, sample_size: int) -> int:
    """Number of distinguishable samples when drawing sample_size items
    without replacement from a population split into classes of the given
    sizes, items within a class being interchangeable.

    This is the support cardinality of the multivariate hypergeometric
    distribution with those class sizes, and identically the sub-multiset
    count of count_upper_constrained.
    """
    return count_upper_constrained(class_sizes, sample_size)
