"""Closed-form counting of bounded compositions.

A multiset with element multiplicities (a_1, ..., a_k) has one sub-multiset of
cardinality n for every integer vector (x_1, ..., x_k) with

    x_1 + ... + x_k = n   and   0 <= x_j <= a_j .

This module counts those vectors exactly, in arbitrary precision, by
inclusion-exclusion over the set of violated upper bounds, summed by the
weight of each set so that the cost is polynomial in k and n. It also holds
what the rest of the package shares: _Value, the immutable base of its
value classes, plain slotted classes rather than dataclasses so that
importing the package stays cheap; the input gate _multiplicities, which
every entry point that takes an instance (spec, n) calls first; _normalized,
which reduces an instance to one with the same count and n <= N/2, bounds at
most n and no zero bounds; the window convolution by 1 + x + ... + x^m,
which the rank tables fold themselves, and its fold over a spec onto a given
start product, kept to the degrees that can still reach n once what remains
is multiplied in, that the dynamic program and the full table build on;
and, for specs of many bounds but few distinct values, the same product's
coefficients by a linear recurrence whose length depends only on the
distinct bounds, with the one cost gate that picks it over the folds.
Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import enum
from collections.abc import Sequence
from itertools import accumulate
from math import comb
from operator import sub


def _is_int(value: object) -> bool:
    """True for an int that is not a bool: bool is an int subclass but no
    count. The exact-type test first keeps the common case one comparison."""
    return type(value) is int or (isinstance(value, int) and not isinstance(value, bool))


class _Value:
    """Base of the package's value classes. A subclass names its fields in
    __slots__, in constructor order, and sets each once in __init__ through
    object.__setattr__; after that the instance is immutable, equal to an
    instance of the same class with equal fields, hashed, shown and pickled
    by those fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = zip(self.__slots__, self._fields())
        return f"{type(self).__qualname__}({', '.join(f'{k}={v!r}' for k, v in fields)})"

    def __reduce__(self) -> tuple:
        return type(self), self._fields()


class MultisetSpec(_Value):
    """A multiset given by its element multiplicities (a_1, ..., a_k).

    The order of entries fixes the position meaning everywhere else in the
    package (composition entries, lexicographic enumeration). Entries may be
    zero; a zero-multiplicity element simply forces x_j = 0.
    """

    __slots__ = ("multiplicities",)
    multiplicities: tuple[int, ...]

    def __init__(self, multiplicities: Sequence[int]) -> None:
        mults = tuple(multiplicities)
        for m in mults:
            if not _is_int(m):
                raise ValueError(f"multiplicity must be an integer, got {m!r}")
            if m < 0:
                raise ValueError(f"multiplicity must be non-negative, got {m}")
        object.__setattr__(self, "multiplicities", mults)


SpecLike = MultisetSpec | Sequence[int]


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


def _multiplicities(spec: SpecLike, n: int) -> tuple[int, ...]:
    """The multiplicities of the instance (spec, n), once both are validated.

    The input gate of every entry point that takes an instance: spec must be
    a MultisetSpec or a sequence of non-negative ints and n a non-negative
    int, or ValueError is raised.
    """
    a = as_spec(spec).multiplicities
    if not _is_int(n):
        raise ValueError(f"n must be an integer, got {n!r}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    return a


def _normalized(spec: SpecLike, n: int) -> tuple[tuple[int, ...], int] | None:
    """A validated instance with the same count as (spec, n), or None when
    n > N and the count is 0.

    The complement x_j -> a_j - x_j maps the compositions of n one-to-one to
    those of N - n, so n becomes min(n, N - n). No entry can then exceed n,
    so every bound is clamped to n, and zero bounds, which force x_j = 0, are
    dropped. At n = 0 that leaves the empty spec, with its one composition.
    """
    a = _multiplicities(spec, n)
    total = sum(a)
    if n > total:
        return None
    n = min(n, total - n)
    if n == 0:
        return (), 0
    return tuple([m if m < n else n for m in a if m]), n


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
    instance = _normalized(spec, n)
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


def _multiply_bounded(coeffs: list[int], bound: int, limit: int, drop: int = 0) -> list[int]:
    """Multiply a coefficient list by 1 + x + ... + x^bound, keeping degrees
    drop..limit, counted from the degree of coeffs[0].

    coeffs holds a window of the nonzero support of a product of such
    factors, at most limit + 1 long, and so does the result: degrees
    drop..min(len(coeffs) - 1 + bound, limit), with drop <= bound. New
    coefficient t is the window sum of the old coefficients t-bound..t, taken
    from one prefix-sum pass; past the old support the prefix sums stay flat.
    """
    size = min(len(coeffs) + bound, limit + 1)
    prefix = list(accumulate(coeffs))
    prefix += [prefix[-1]] * (size - len(prefix))
    shift = bound + 1
    if shift >= size:
        return prefix[drop:]
    return prefix[drop:shift] + list(map(sub, prefix[shift:], prefix))


def _window_fold(
    bounds: Sequence[int],
    n: int,
    start: list[int] | None = None,
    reach: int = 0,
) -> list[int]:
    """Fold the factors 1 + x + ... + x^m over bounds, in order, onto start
    (a product from degree 0, by default [1]), keeping each product at
    degrees low, low + 1, ..., up to n or its top degree if that is lower,
    and return the last product.

    Only degrees that can still reach n are kept. reach is the top degree of
    a product still to be multiplied in after bounds, and low is n minus it
    and the bounds still to fold, or 0: from a lower degree even their top
    degrees fall short of n. An entry cut off below low could only feed
    degrees below the next product's low, so the cut loses nothing that is
    read. So the last product starts at degree max(0, n - reach): with
    reach = 0 it is [the coefficient of x^n], and reach >= n cuts nothing.
    Needs n <= sum(bounds) + reach.
    """
    rest = sum(bounds) + reach
    low, coeffs = 0, [1] if start is None else start
    for m in bounds:
        if m:  # a factor of 1 changes nothing
            rest -= m
            cut = n - rest if n > rest else 0
            coeffs = _multiply_bounded(coeffs, m, n - low, cut - low)
            low = cut
    return coeffs


def _by_recurrence(bounds: Sequence[int], n: int) -> list[int]:
    """The coefficients p_0, ..., p_n of P, the product of the factors
    1 + x + ... + x^m over bounds, by a linear recurrence whose length
    depends only on the distinct nonzero bounds, not on how often each
    occurs.

    P = prod_j (1 - x^{a_j + 1}) / (1 - x)^k is D-finite (Stanley,
    "Differentiably finite power series", 1980): with c_d the number of
    bounds equal to d, k = sum c_d, F = prod_d (1 - x^{d + 1}) over the
    distinct nonzero bounds and H = sum_d c_d (d + 1) x^d F / (1 - x^{d + 1}),
    its log-derivative gives (1 - x) F P' = [k F - (1 - x) H] P. Comparing
    the coefficients of x^s gives

        (s + 1) p_{s+1} = sum_{j >= 1} (alpha_j + beta_j s) p_{s+1-j},

    with beta_j = F_{j-1} - F_j and alpha_j = k F_{j-1} - H_{j-1} + H_{j-2}
    - (j - 1) beta_j, all small integers: one exact division per
    coefficient and at most 2^{|D| + 1} - 1 terms, of which those with
    j > n never reach p_n. For c bounds all equal to m there are three:
    (s + 1) p_{s+1} = (s + c) p_s + (s - m - c(m + 1)) p_{s-m}
    + (cm + m + 1 - s) p_{s-m-1}.
    """
    counts: dict[int, int] = {}
    for m in bounds:
        if m:
            counts[m] = counts.get(m, 0) + 1

    def add(out: dict[int, int], poly: dict[int, int], shift: int, scale: int) -> dict[int, int]:
        """out + scale x^shift poly, polynomials as {degree: coefficient}."""
        for i, v in poly.items():
            out[i + shift] = out.get(i + shift, 0) + scale * v
        return out

    # F and H one distinct bound at a time, H by the product rule.
    f: dict[int, int] = {0: 1}
    h: dict[int, int] = {}
    for d, c in counts.items():
        f, h = add(dict(f), f, d + 1, -1), add(add(dict(h), h, d + 1, -1), f, d, c * (d + 1))
    k = sum(counts.values())
    terms = []
    for j in range(1, min(n, max(f) + 1) + 1):  # H has degree max(f) - 1
        slope = f.get(j - 1, 0) - f.get(j, 0)
        const = k * f.get(j - 1, 0) - h.get(j - 1, 0) + h.get(j - 2, 0) - (j - 1) * slope
        if const or slope:
            terms.append((j, const, slope))
    # p is padded with zeros below degree 0, so term j reads p[s + width + 1 - j].
    width = terms[-1][0] if terms else 0
    terms = [(width + 1 - j, const, slope) for j, const, slope in terms]
    p = [0] * width + [1]
    for s in range(n):
        total = 0
        for offset, const, slope in terms:
            total += (const + slope * s) * p[s + offset]
        p.append(total // (s + 1))
    return p[width:]


def _recurrence_pays(bounds: Sequence[int], folds: int) -> bool:
    """True when _by_recurrence over bounds, nonzero, costs less than a
    window fold of folds factors to the same degree.

    Both costs grow with the degree: a fold by about folds cells per degree,
    the recurrence by its T <= 2^{|D| + 1} - 1 terms, each a Python step
    and so about four times a cell. The crossover, measured for full tables
    and for count_dp's trimmed paired fold with one to six distinct bounds
    and k up to 320, lies near or below folds = 12 * 2^|D| wherever it fell
    in that range. Specs with fewer than 24 folds never pay, so they cost
    one comparison here.
    """
    return folds >= 24 and 12 << len(set(bounds)) <= folds


def count_wrong_formula(spec: SpecLike, n: int) -> int:
    """The complement-substitution count C(sum(a) - n + k - 1, k - 1).

    NOT a correct sub-multiset count: substituting y_j = a_j - x_j turns the
    upper bounds into y_j >= 0 only if no y_j can exceed a_j, which the
    substitution does not guarantee, so invalid vectors with some x_j < 0 get
    counted too. Kept as a negative control for tests; see
    count_upper_constrained for the real thing.
    """
    a = _multiplicities(spec, n)
    k = len(a)
    if k == 0:
        raise ValueError("this formula needs at least one position")
    top = sum(a) - n + k - 1
    return comb(top, k - 1) if top >= k - 1 else 0

