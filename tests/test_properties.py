"""Property tests: the inclusion-exclusion weight sum against the other counters."""
from hypothesis import given, settings
from hypothesis import strategies as st

from submultisets import count_brute_force, count_dp, count_upper_constrained


@st.composite
def instances(draw, max_k, max_bound):
    """A multiplicity vector and an n from 0 to one past its cardinality."""
    a = tuple(draw(st.lists(st.integers(0, max_bound), max_size=max_k)))
    return a, draw(st.integers(0, sum(a) + 1))


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
