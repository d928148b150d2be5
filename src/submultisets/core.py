"""Exact counting of bounded compositions: the closed form, the DP and the table.

A multiset with element multiplicities (a_1, ..., a_k) has one sub-multiset of
cardinality n for every integer vector (x_1, ..., x_k) with

    x_1 + ... + x_k = n   and   0 <= x_j <= a_j .

count_upper_constrained counts those vectors exactly, in arbitrary precision,
by inclusion-exclusion over the set of violated upper bounds, summed by the
weight of each set so that the cost is polynomial in k and n. count_dp takes
the count as the coefficient of x^n in the product of the factors
1 + x + ... + x^m, and full_table takes every coefficient. Both share with
the closed form _normalized, which reduces an instance to one with the same
count and n <= N/2. The product comes from _window_fold, the one fold, or
from _by_recurrence, a linear recurrence, as the one cost gate
_recurrence_pays picks. _signed_weights is the one expansion of the product
of the factors 1 - x^{m + 1}: the closed form sums it by weight over every
bound, and the recurrence takes its coefficients from it over the distinct
bounds. The rank tables enumeration walks are the products
_window_fold records: _suffix_tables builds them, and _table_cells counts
their cells from the same window without building them. The input gate
_multiplicities, which every entry point calls first, MultisetSpec, a tuple
that has passed it, _require_int, the package's one integer check, and
_magnitude, which writes a caller's int of any size into a message as one
short line, are here too. Everything here is a pure function of its arguments.
"""
from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from itertools import accumulate
from math import comb, log10
from operator import mul, sub


def _magnitude(value: object) -> str:
    """A caller's value as one short line for a message: an int of size
    below 10^20 in decimal, a larger one as a signed power of ten, where a
    decimal past 4300 digits raises ValueError (int -> str limit); anything
    else by repr."""
    if not isinstance(value, int) or -10**20 < value < 10**20:
        return repr(value)
    return f"{'-' if value < 0 else ''}10^{log10(abs(value)):.1f}"


def _require_int(value: object, what: str, least: int = 0) -> None:
    """Refuse, with the one ValueError for an integer argument, a value that
    is not an int of at least least (0, or 1 for a budget). A bool is an int
    subclass but no count; any other int subclass passes. The exact-type
    test first keeps the common case one comparison before the bound."""
    if type(value) is not int and (type(value) is bool or not isinstance(value, int)) or value < least:
        kind = "positive" if least else "non-negative"
        raise ValueError(f"{what} must be a {kind} integer, got {_magnitude(value)}")


class MultisetSpec(tuple):
    """A multiset given by its element multiplicities (a_1, ..., a_k): the
    tuple itself, built only after every entry passed the input gate, so an
    entry point takes it without checking it again.

    The order of entries fixes the position meaning everywhere else in the
    package (composition entries, lexicographic enumeration). Entries may be
    zero; a zero-multiplicity element simply forces x_j = 0.
    """

    __slots__ = ()

    def __new__(cls, multiplicities: Iterable[int]) -> MultisetSpec:
        return tuple.__new__(cls, _multiplicities(multiplicities, 0))


class CountMethod(enum.Enum):
    """Selects which counting algorithm to run; all agree on shared inputs."""

    INCLUSION_EXCLUSION = "incexc"
    DYNAMIC_PROGRAMMING = "dp"
    BRUTE_FORCE = "brute"


def _multiplicities(spec: Iterable[int], n: int) -> tuple[int, ...]:
    """The multiplicities of the instance (spec, n) as an exact tuple, once
    both are validated.

    The input gate of every entry point that takes an instance: spec must be
    an iterable of non-negative ints, read once, and n a non-negative int,
    or ValueError is raised. A MultisetSpec has passed it already, so its
    entries are not checked again. The kernels get an exact tuple, never a
    MultisetSpec: indexing and slicing a tuple subclass is slower.
    """
    a = tuple(spec)
    if type(spec) is not MultisetSpec:
        for m in a:
            if type(m) is not int or m < 0:  # no call for a valid int
                _require_int(m, "multiplicity")
    _require_int(n, "n")
    return a


def _normalized(a: tuple[int, ...], n: int) -> tuple[tuple[int, ...], int] | None:
    """An instance with the same count as (a, n), which _multiplicities has
    validated, or None when n > N and the count is 0.

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


def _signed_weights(bounds: Iterable[int], limit: int) -> dict[int, int]:
    """The product of the factors 1 - x^{m + 1} over bounds, truncated at
    degree limit, as {degree: coefficient}: the coefficient of x^e is the
    signed number of sets L of bounds of weight e, the sum of m + 1 over L,
    each set counted (-1)^|L|.

    Built one factor at a time; the snapshot keeps each step on the old
    terms. Every weight up to limit that some set has is a key, zero
    coefficients included, where the sets of that weight cancel.
    """
    terms = {0: 1}
    for m in bounds:
        d = m + 1
        top = limit - d
        for e, t in list(terms.items()):
            if e <= top:
                terms[e + d] = terms.get(e + d, 0) - t
    return terms


def count_upper_constrained(spec: Iterable[int], n: int) -> int:
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
    x^e in the product of (1 - x^{a_j + 1}) over every bound, truncated at
    degree n: _signed_weights(a, n). So the sum has at most min(n + 1, 2^k)
    terms and serves any k. It is accumulated exactly and must come out
    non-negative; anything else is an internal bug, not a valid outcome.
    """
    instance = _normalized(_multiplicities(spec, n), n)
    if instance is None:
        return 0
    a, n = instance
    k = len(a)
    if k == 0:
        return 1  # n = 0: only the empty sub-multiset

    choose = k - 1
    base = n + k - 1
    total = sum(t * comb(base - e, choose) for e, t in _signed_weights(a, n).items())
    if total < 0:
        raise RuntimeError(
            f"internal error: inclusion-exclusion sum ended negative "
            f"({total}) for multiplicities {a}, n={n}"
        )
    return total


def _multiply_bounded(coeffs: list[int], bound: int, limit: int, drop: int) -> list[int]:
    """Multiply a coefficient list by 1 + x + ... + x^bound, keeping degrees
    drop..limit, counted from the degree of coeffs[0].

    coeffs holds a window of the nonzero support of a product of such
    factors, at most limit + 1 long, and so does the result: degrees
    drop..min(len(coeffs) - 1 + bound, limit), with drop <= bound. New
    coefficient t is the window sum of the old coefficients t-bound..t, taken
    from one prefix-sum pass; past the old support the prefix sums stay flat.
    """
    size = len(coeffs) + bound
    size = size if size <= limit else limit + 1  # no call to min: a step per factor
    prefix = list(accumulate(coeffs))
    shift = bound + 1
    # With shift >= size every window starts at degree 0: the result is the
    # prefix sums, so only the degrees kept are padded.
    if drop and shift >= size:
        return prefix[drop:] + [prefix[-1]] * (size - max(drop, len(prefix)))
    prefix += [prefix[-1]] * (size - len(prefix))
    if shift >= size:  # drop is 0: the padded sums themselves, no copy
        return prefix
    return prefix[drop:shift] + list(map(sub, prefix[shift:], prefix))


def _window_fold(
    bounds: Sequence[int],
    n: int,
    start: tuple[int, list[int], int] | None = None,
    reach: int = 0,
    products: list[tuple[int, list[int]]] | None = None,
) -> tuple[int, list[int], int]:
    """Fold the factors 1 + x + ... + x^m over bounds, in order, onto start,
    (0, [1], 0) by default, and return the last product. A product is
    (low, coeffs, total): coeffs[s - low] is its coefficient of x^s from low
    up to top = min(n, total), and total is its full degree. With products,
    each product, after a zero bound too, is appended there as (low, coeffs).

    Only degrees that can still reach n are kept. reach is the top degree of
    a product still to be multiplied in after bounds, and low is n minus it
    and the bounds still to fold, together rest, or 0: from a lower degree
    even their top degrees fall short of n, and an entry cut off below low
    feeds only degrees below the next low. So reach >= n cuts nothing.
    Needs n <= sum(bounds) + reach.

    Each product is a palindrome about total / 2 (x_j -> a_j - x_j maps the
    ways to make s onto those to make total - s), so only its degrees up to
    half = total // 2 are folded, and those above are copied from their
    mirrors, wherever the mirror lies in the window (total - top >= low). It
    always does when 2n <= total + rest, a sum no step changes: either
    top = total, so rest >= n and low = 0; or top = n, and total - n is at
    least both 0 and n - rest, so at least low.
    """
    low, coeffs, total = (0, [1], 0) if start is None else start
    rest = sum(bounds) + reach
    for m in bounds:
        if m:  # a factor of 1 changes nothing
            rest -= m
            total += m
            cut = n - rest if n > rest else 0
            top = n if n < total else total
            half = total // 2
            # Mirror only where that saves over 8 cells: with no minimum, 400
            # count_dp queries of k <= 8 ran 5-7% slower (best of 40 rounds).
            if half + 8 < top and total - top >= cut:
                # A fold reads no more than the degrees it keeps.
                coeffs = _multiply_bounded(coeffs[:half - low + 1], m, half - low, cut - low)
                coeffs += coeffs[total - top - cut:total - half - cut][::-1]
            else:
                coeffs = _multiply_bounded(coeffs, m, n - low, cut - low)
            low = cut
        if products is not None:
            products.append((low, coeffs))
    return low, coeffs, total


def _suffix_tables(a: tuple[int, ...], n: int) -> list[tuple[int, list[int]]]:
    """tables[j] = (low, counts): counts[s - low] is the number of ways to
    finish positions j.. with sum s, the products _window_fold records
    over the reversed spec.

    A table covers the sums from low = max(0, n - (a_1 + ... + a_{j-1})) to
    top = min(n, S_j), where S_j = a_j + ... + a_k. Above that the suffix
    cannot reach s, and below it the positions to the left cannot make up
    the rest of n, so rank and unrank never read there. Needs n <= N.
    """
    tables = [(0, [1])]
    _window_fold(a[::-1], n, products=tables)
    tables.reverse()
    return tables


def _table_cells(a: tuple[int, ...], n: int) -> int:
    """len summed over the tables of _suffix_tables(a, n), in O(k) and
    without building them: table j holds the sums from max(0, n - P_j) up
    to min(n, S_j), where P_j = a_1 + ... + a_{j-1} and S_j = a_j + ... + a_k,
    and the empty suffix's table holds one. Needs n <= N.
    """
    cells, before, after = 1, 0, sum(a)
    for m in a:
        cells += min(n, after) - max(0, n - before) + 1
        before += m
        after -= m
    return cells


def _by_recurrence(bounds: Sequence[int], n: int) -> list[int]:
    """The coefficients p_0, ..., p_n of P, the product of the factors
    1 + x + ... + x^m over bounds, by a linear recurrence whose length
    depends only on the distinct nonzero bounds, not on how often each
    occurs.

    P = prod_j (1 - x^{a_j + 1}) / (1 - x)^k is D-finite (Stanley,
    "Differentiably finite power series", 1980): with c_d the number of
    bounds equal to d, k = sum c_d, F = prod_d (1 - x^{d + 1}) over the set D
    of distinct nonzero bounds and H = sum_d c_d (d + 1) x^d F / (1 - x^{d + 1}),
    where F / (1 - x^{d + 1}) is the same product over D without d, its
    log-derivative gives (1 - x) F P' = [k F - (1 - x) H] P. So F and each
    term of H are expansions by _signed_weights, the one that
    count_upper_constrained sums over every bound. Comparing the
    coefficients of x^s gives

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

    # F and each term of H, cut at degree n, the highest the terms read.
    f = _signed_weights(counts, n)
    h: dict[int, int] = {}
    for d, c in counts.items():
        for e, t in _signed_weights([b for b in counts if b != d], n - d).items():
            h[e + d] = h.get(e + d, 0) + c * (d + 1) * t
    k = sum(counts.values())
    terms = []
    # Cut F and H are safe only because j runs over F's keys: every weight
    # up to n of a set of D is one, zero coefficients included, and a term of
    # H at degree i < n comes from a set of weight i + 1 (its d added), so j
    # up to max(f) + 1 reaches every term below degree n.
    for j in range(1, min(n, max(f) + 1) + 1):
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


class CountTable(tuple):
    """Per-cardinality sub-multiset counts, indexed by n (0..N)."""

    __slots__ = ()

    @property
    def counts(self) -> tuple[int, ...]:
        """The counts as a plain tuple."""
        return tuple(self)


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

    When those folds outnumber what the recurrence of _by_recurrence costs,
    which depends on the distinct bounds only (_recurrence_pays), p_n is
    taken from that recurrence instead: (50,) * 200 at n = 5000 is 5000
    steps of three terms, not 100 folds. Both give the same count.
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
    product comes from _by_recurrence. Otherwise the factors are folded in
    ascending order of their bounds, each product only up to its middle and
    with no cut from below: the product is commutative, and that order gives
    every partial product the lowest degree any order can, so the fewest
    cells and the smallest integers.
    """
    a = _multiplicities(spec, 0)
    total = sum(a)
    a, n = _normalized(a, total // 2)
    if _recurrence_pays(a, len(a)):
        half = _by_recurrence(a, n)
    else:
        half = _window_fold(sorted(a), n, reach=n)[1]
    return CountTable(half + half[:total + 1 - len(half)][::-1])


def count_wrong_formula(spec: Iterable[int], n: int) -> int:
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

