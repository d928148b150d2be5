"""Property tests: the normalized, support-trimmed counters against the
unnormalized brute-force oracle and against each other, the shape of the
count table, the enumeration stream at wide dimension, and rank/unrank
against that stream."""
from itertools import islice
from math import prod
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submultisets import (
    count_brute_force,
    count_dp,
    count_upper_constrained,
    full_table,
    iterate,
    rank,
    unrank,
)


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
@given(specs(max_k=30, max_bound=10))
def test_full_table_sums_to_the_number_of_sub_multisets(a):
    assert sum(full_table(a).counts) == prod(m + 1 for m in a)


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


@settings(deadline=None, max_examples=40)
@given(wide_specs(), st.integers(0, 4), st.booleans())
def test_iterate_stream_length_equals_count_dp(a, offset, from_top):
    # n within 4 of 0 or of N + 1 keeps count_dp cheap at any k; the stream
    # is listed in full whenever it has at most 10^4 items.
    n = max(0, sum(a) + 1 - offset) if from_top else offset
    expected = count_dp(a, n)
    if expected <= 10**4:
        assert sum(1 for _ in iterate(a, n)) == expected


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
