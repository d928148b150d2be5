"""Closed forms the tests use as an oracle, outside the package's API."""


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
