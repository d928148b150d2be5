"""Property tests: the normalized, support-trimmed counters against the
unnormalized brute-force oracle and against each other, the recurrence
kernel against the window fold and either route of count_dp and full_table
against the other, the shape of the count table, the enumeration stream at
wide dimension, the rank tables against a full-window reference, and
rank/unrank against that stream."""
from contextlib import contextmanager
from itertools import islice
from math import prod
from operator import le

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from submultisets import (
    count_brute_force,
    count_dp,
    count_upper_constrained,
    full_table,
    iterate,
    oracles,
    rank,
    unrank,
)
from submultisets.core import _by_recurrence, _window_fold
from submultisets.enumeration import _suffix_tables

from formulas import suffix_tables_reference


@st.composite
def instances(draw, max_k, max_bound):
    """A multiplicity vector and an n from 0 to one past its cardinality."""
    a = tuple(draw(st.lists(st.integers(0, max_bound), max_size=max_k)))
    return a, draw(st.integers(0, sum(a) + 1))


def specs(max_k, max_bound):
    return st.lists(st.integers(0, max_bound), max_size=max_k).map(tuple)


@st.composite
def wide_specs(draw, max_k=2000):
    """Up to max_k bounds in 0..3, mostly 1, built from one drawn seed rather
    than drawn one by one, which would make each example slow to generate."""
    rng = draw(st.randoms(use_true_random=False))
    return tuple(rng.choice((0, 1, 1, 2, 3)) for _ in range(draw(st.integers(0, max_k))))


@settings(deadline=None, max_examples=150)
@given(instances(max_k=40, max_bound=12))
def test_incexc_equals_dp(instance):
    a, n = instance
    assert count_upper_constrained(a, n) == count_dp(a, n)


@settings(deadline=None, max_examples=150)
@given(instances(max_k=6, max_bound=4))
def test_incexc_equals_brute_force(instance):
    a, n = instance
    assert count_upper_constrained(a, n) == count_brute_force(a, n) == count_dp(a, n)


@settings(deadline=None, max_examples=100)
@given(specs(max_k=6, max_bound=4))
def test_full_table_equals_brute_force_at_every_n(a):
    # full_table mirrors its lower half; brute force counts each n as given.
    assert full_table(a).counts == tuple(count_brute_force(a, n) for n in range(sum(a) + 1))


@st.composite
def alphabet_specs(draw, max_k=60, max_bound=5):
    """Up to max_k bounds drawn from one to three values, so most pair up."""
    alphabet = draw(st.lists(st.integers(0, max_bound), min_size=1, max_size=3))
    return tuple(draw(st.lists(st.sampled_from(alphabet), max_size=max_k)))


@settings(deadline=None, max_examples=150)
@given(
    st.one_of(
        specs(max_k=8, max_bound=30),
        alphabet_specs(),
        st.builds(lambda m, k: (m,) * k, st.integers(0, 12), st.integers(0, 24)),
        st.lists(st.integers(0, 30), max_size=8, unique=True).map(tuple),
    ),
    st.integers(0, 3),
    st.lists(st.integers(0, 60), max_size=1).map(tuple),
    st.data(),
)
def test_dp_equals_incexc_at_every_n(a, zeros, big, data):
    # Zero bounds and bounds above n are what normalizing drops and clamps.
    # Few values (most bounds pair), all equal (none left over when k is
    # even and no big bound is drawn) and all distinct (none pair until n
    # clamps them) put count_dp's split of the bounds at and between its
    # ends; the split must not depend on the order of the bounds.
    a = a + (0,) * zeros + big
    b = data.draw(st.permutations(a))
    for n in range(sum(a) + 2):
        assert count_dp(b, n) == count_dp(a, n) == count_upper_constrained(a, n)


@settings(deadline=None, max_examples=100)
@given(
    st.one_of(
        specs(max_k=8, max_bound=12),
        alphabet_specs(max_k=40, max_bound=8),
        st.lists(st.integers(0, 20), max_size=7, unique=True).map(tuple),
    )
)
def test_recurrence_equals_window_fold_at_every_n(a):
    # Called directly, whatever the gate would pick; the recurrence drops
    # its terms that reach further back than n, so each n is its own call.
    for n in range(sum(a) + 1):
        assert _by_recurrence(a, n) == _window_fold(sorted(a), n, reach=n)


@contextmanager
def gate_forced(on):
    """count_dp and full_table take the recurrence (on) or the window folds
    (off) for every spec, whatever the cost gate says."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracles, "_recurrence_pays", lambda bounds, folds: on)
        yield


@st.composite
def routed_specs(draw):
    """Specs of the kind the gate sends to the recurrence: 24 to 300 bounds
    from one to three values, with zero bounds mixed in. The values are at
    most 300 / k, which keeps N <= 300 and so the inclusion-exclusion
    reference at every n affordable."""
    k = draw(st.integers(24, 300))
    alphabet = draw(st.lists(st.integers(1, max(1, 300 // k)), min_size=1, max_size=3))
    rng = draw(st.randoms(use_true_random=False))
    a = [rng.choice(alphabet) for _ in range(k)]
    a += [0] * draw(st.integers(0, 3))
    rng.shuffle(a)
    return tuple(a)


@settings(deadline=None, max_examples=10)
@given(routed_specs())
def test_routed_count_dp_equals_incexc_at_every_n(a):
    # Each n is checked in turn, so a wrong route fails at its first wrong
    # count. count_upper_constrained normalizes n to min(n, N - n) first, so
    # its lower half, taken once, holds its value at every n.
    total = sum(a)
    half = []
    for n in range(total + 2):
        if n <= total // 2:
            half.append(count_upper_constrained(a, n))
        expected = half[min(n, total - n)] if n <= total else 0
        for on in (True, False):
            with gate_forced(on):
                assert count_dp(a, n) == expected


@settings(deadline=None, max_examples=100)
@given(st.one_of(specs(max_k=30, max_bound=10), routed_specs()), st.data())
def test_full_table_sums_to_the_number_of_sub_multisets(a, data):
    # Either route, recurrence or folds, must give the same table, summing to
    # prod(a_j + 1) and matching inclusion-exclusion at sampled n.
    tables = []
    for on in (True, False):
        with gate_forced(on):
            tables.append(full_table(a).counts)
    assert tables[0] == tables[1] == full_table(a).counts
    assert sum(tables[0]) == prod(m + 1 for m in a)
    for n in data.draw(st.lists(st.integers(0, sum(a)), max_size=4)):
        assert tables[0][n] == count_upper_constrained(a, n)


@settings(deadline=None, max_examples=100)
@given(specs(max_k=8, max_bound=6), st.booleans(), st.integers(1, 3), st.data())
def test_rank_unrank_round_trip_past_half(a, at_total, past, data):
    # n above N/2 is where the suffix tables are cut short of n.
    total = sum(a)
    n = total if at_total else total // 2 + 1
    if n <= total:
        r = data.draw(st.integers(0, count_dp(a, n) - 1))
        x = unrank(a, n, r)
        assert rank(a, n, x) == r
    with pytest.raises(IndexError):
        unrank(a, total + past, 0)


@settings(deadline=None, max_examples=100)
@given(specs(max_k=24, max_bound=12), st.booleans(), st.data())
def test_suffix_tables_equal_the_full_window_reference(a, odd, data):
    # The tables mirror each sum above the middle where the mirror lies in
    # the window, which holds at every n up to N / 2 and fails at some
    # tables above it. One more bound of 1 makes N odd or even as drawn.
    if sum(a) % 2 != odd:
        a += (1,)
    total = sum(a)
    picks = {total // 2, (total + 1) // 2, total // 3, total - total // 3,
             data.draw(st.integers(0, total))}
    for n in picks:
        assert _suffix_tables(a, n) == suffix_tables_reference(a, n)


@settings(deadline=None, max_examples=20)
@given(st.lists(st.integers(0, 12), min_size=60, max_size=60).map(tuple), st.data())
def test_rank_unrank_round_trip_at_the_middle_of_a_wide_spec(a, data):
    n = sum(a) // 2
    r = data.draw(st.integers(0, count_dp(a, n) - 1))
    assert rank(a, n, unrank(a, n, r)) == r


@settings(deadline=None, max_examples=100)
@given(specs(max_k=30, max_bound=10))
def test_full_table_is_unimodal(a):
    counts = full_table(a).counts
    steps = list(zip(counts, counts[1:]))
    rises = [i for i, (x, y) in enumerate(steps) if y > x]
    falls = [i for i, (x, y) in enumerate(steps) if y < x]
    assert not rises or not falls or max(rises) < min(falls)


@settings(deadline=None, max_examples=30)
@given(wide_specs(), st.data())
def test_iterate_prefix_strictly_increasing_and_valid(a, data):
    n = data.draw(st.integers(0, sum(a) + 1))
    head = list(islice(iterate(a, n), 1000))
    assert all(x < y for x, y in zip(head, head[1:]))
    assert all(sum(x) == n and all(map(le, x, a)) for x in head)


# Without the shrink phase: shrinking a failure here tries hundreds of wide
# specs, each listing up to 10^4 + 1 tuples of up to 2000 entries, which took
# minutes; the failing example is reported as drawn instead.
@settings(deadline=None, max_examples=40, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(wide_specs(), st.integers(0, 4), st.booleans())
def test_iterate_stream_length_equals_count_dp(a, offset, from_top):
    # n within 4 of 0 or of N + 1 keeps count_dp cheap at any k. The stream
    # is cut after 10^4 + 1 items, so a wrong count_dp cannot make the test
    # list more than that: it must read the full length up to 10^4 items and
    # run past 10^4 exactly when count_dp says so.
    n = max(0, sum(a) + 1 - offset) if from_top else offset
    cap = 10**4
    listed = sum(1 for _ in islice(iterate(a, n), cap + 1))
    expected = count_dp(a, n)
    assert listed == (expected if expected <= cap else cap + 1)


@settings(deadline=None, max_examples=80)
@given(specs(max_k=6, max_bound=4), st.integers(0, 2), st.integers(0, 2))
def test_rank_unrank_match_the_stream_at_every_n(a, leading, trailing):
    # Zero bounds at either end put the lower and upper cuts of the suffix
    # tables next to positions that take nothing.
    a = (0,) * leading + a + (0,) * trailing
    total = sum(a)
    for n in range(total + 1):
        for i, x in enumerate(iterate(a, n)):
            assert rank(a, n, x) == i
            assert unrank(a, n, i) == x
    with pytest.raises(IndexError):
        unrank(a, total + 1, 0)
