"""Property tests: the normalized, support-trimmed counters against the
unnormalized brute-force oracle and against each other."""
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submultisets import (
    count_brute_force,
    count_dp,
    count_upper_constrained,
    full_table,
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


@settings(deadline=None, max_examples=60)
@given(specs(max_k=8, max_bound=30), st.integers(0, 3), st.integers(0, 60))
def test_dp_equals_incexc_at_every_n(a, zeros, big):
    # Zero bounds and bounds above n are what normalizing drops and clamps.
    a = a + (0,) * zeros + (big,)
    for n in range(sum(a) + 2):
        assert count_dp(a, n) == count_upper_constrained(a, n)


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
