"""The suite's one way into the package's private state: the store of kept
rank tables, a recorder of calls, and the routes and tail splits tests force.
Each hook is a context manager, not a fixture, so a hypothesis body can open
one per example; it puts back what it changed when its block ends."""
from collections import OrderedDict
from contextlib import contextmanager
from types import SimpleNamespace

import pytest

from submultisets import core, enumeration, oracles


@contextmanager
def kept_tables(cap=None):
    """An empty store of rank tables for the block, under a cap of cap cells
    if given, yielded live: {(a, n): (cells, tables)}, least recently used
    first. The caller's store and cap come back after the block."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_kept", OrderedDict())
        mp.setattr(enumeration, "_held", 0)
        if cap is not None:
            mp.setattr(enumeration, "_KEPT_CELLS", cap)
        yield enumeration._kept


def held():
    """The store's running total of kept cells."""
    return enumeration._held


def fits(a, n):
    """Whether the tables of (a, n) fit the cap beside those kept, or none are."""
    return not enumeration._kept or held() + core._table_cells(a, n) <= enumeration._KEPT_CELLS


#: Each function a recorder watches, with the module its callers look it up in
#: (_tables_for finds _suffix_tables at call time, count_brute_force imports iterate).
WATCHED = {
    **dict.fromkeys(["_normalized", "_window_fold", "_multiply_bounded", "_by_recurrence"], core),
    **dict.fromkeys(["_suffix_tables", "_successors", "iterate"], enumeration),
    **dict.fromkeys(["count_upper_constrained", "count_dp", "count_brute_force"], oracles),
}


@contextmanager
def recorded(*names, note=None):
    """{name: [call, ...]}: each call of the named functions in the block,
    recorded as it starts, with its args, kwargs and note(*args, **kwargs)
    if note is given, then its result; a list result is copied as returned,
    since callers extend the lists kernels return."""
    calls = {name: [] for name in names}
    with pytest.MonkeyPatch.context() as mp:
        for name in names:
            def spy(*args, _inner=getattr(WATCHED[name], name), _calls=calls[name], **kwargs):
                call = SimpleNamespace(args=args, kwargs=kwargs, note=note and note(*args, **kwargs))
                _calls.append(call)
                result = _inner(*args, **kwargs)
                call.result = list(result) if type(result) is list else result
                return result
            mp.setattr(WATCHED[name], name, spy)
        yield calls


@contextmanager
def gate_forced(on):
    """count_dp and full_table take the recurrence (on) or the window folds
    (off) for every spec, whatever the cost gate says."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(core, "_recurrence_pays", lambda bounds, folds: on)
        yield


@contextmanager
def tail_split(max_k, tail_combinations=None):
    """iterate joins tails for specs of at most max_k positions, each tail
    of at most tail_combinations value combinations if that is given."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "BLOCKS_MAX_K", max_k)
        if tail_combinations is not None:
            mp.setattr(enumeration, "TAIL_COMBINATIONS", tail_combinations)
        yield
