"""Closed-form counting of bounded compositions.

A multiset with element multiplicities (a_1, ..., a_k) has one sub-multiset of
cardinality n for every integer vector (x_1, ..., x_k) with

    x_1 + ... + x_k = n   and   0 <= x_j <= a_j .

This module counts those vectors exactly, in arbitrary precision: the
unconstrained stars-and-bars count, the lower-constrained variant, and the
headline upper-constrained count obtained by inclusion-exclusion over the set
of violated upper bounds, summed by the weight of each set so that the cost
is polynomial in k and n. It also holds the two pieces the other exact
counters share: _normalized, which reduces an instance to one with the same
count and n <= N/2, bounds at most n and no zero bounds, and the window
convolution by 1 + x + ... + x^m, kept to the nonzero support of the
product, that the dynamic program and the rank tables build on. Everything
here is a pure function of its arguments.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import accumulate
from math import comb
from operator import sub
from typing import Sequence, Union


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


def _normalized(a: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int] | None:
    """An instance with the same count as (a, n), or None when n > N and the
    count is 0.

    The complement x_j -> a_j - x_j maps the compositions of n one-to-one to
    those of N - n, so n becomes min(n, N - n). No entry can then exceed n,
    so every bound is clamped to n, and zero bounds, which force x_j = 0, are
    dropped. At n = 0 that leaves the empty spec, with its one composition.
    """
    total = sum(a)
    if n > total:
        return None
    n = min(n, total - n)
    if n == 0:
        return (), 0
    return tuple([m if m < n else n for m in a if m]), n


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

    This is also the support cardinality of the multivariate hypergeometric
    distribution: the number of distinguishable samples of size n drawn
    without replacement from classes of sizes a_1, ..., a_k.

    Computed by inclusion-exclusion over which upper bounds are violated:
    each subset L of positions contributes (-1)^|L| C(n - e + k - 1, k - 1),
    the unconstrained count of vectors forced past the bounds in L, where
    e = sum of (a_j + 1) over L. Subsets of equal weight e share their term,
    and the signed number of subsets of each weight is the coefficient of
    x^e in the product of (1 - x^{a_j + 1}), truncated at degree n. So the
    sum has at most min(n + 1, 2^k) terms and serves any k. It is
    accumulated exactly and must come out non-negative; anything else is an
    internal bug, not a valid outcome.
    """
    a = as_spec(spec).multiplicities
    _check_n(n)
    instance = _normalized(a, n)
    if instance is None:
        return 0
    a, n = instance
    k = len(a)
    if k == 0:
        return 1  # n = 0: only the empty sub-multiset

    # terms[e] = signed number of subsets L of weight e, built one factor
    # (1 - x^d) at a time; the snapshot keeps each step on the old terms.
    terms = {0: 1}
    for m in a:
        d = m + 1
        limit = n - d
        for e, t in list(terms.items()):
            if e <= limit:
                terms[e + d] = terms.get(e + d, 0) - t
    choose = k - 1
    base = n + k - 1
    total = sum(t * comb(base - e, choose) for e, t in terms.items())
    if total < 0:
        raise RuntimeError(
            f"internal error: inclusion-exclusion sum ended negative "
            f"({total}) for multiplicities {a}, n={n}"
        )
    return total


def _multiply_bounded(coeffs: list[int], bound: int, limit: int) -> list[int]:
    """Multiply a coefficient list by 1 + x + ... + x^bound, truncated at
    degree limit.

    coeffs holds the nonzero support of a product of such factors, at most
    limit + 1 long, and so does the result: degrees 0..min(len(coeffs) - 1 +
    bound, limit). New
    coefficient t is the window sum of the old coefficients t-bound..t, taken
    from one prefix-sum pass; past the old support the prefix sums stay flat.
    """
    size = min(len(coeffs) + bound, limit + 1)
    prefix = list(accumulate(coeffs))
    prefix += [prefix[-1]] * (size - len(prefix))
    shift = bound + 1
    if shift >= size:
        return prefix
    return prefix[:shift] + list(map(sub, prefix[shift:], prefix))


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

