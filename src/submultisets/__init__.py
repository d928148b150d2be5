"""Exact counting and enumeration of a multiset's sub-multisets by cardinality.

A multiset is described by its element multiplicities (a_1, ..., a_k); its
sub-multisets of cardinality n correspond one-to-one to the bounded
compositions (x_1, ..., x_k) with sum n and 0 <= x_j <= a_j. This package
counts them exactly (inclusion-exclusion closed form, generating-function
dynamic program, or budget-guarded brute force), tabulates all cardinalities,
streams the compositions in lexicographic order, and ranks/unranks them.

`import submultisets` loads `core` alone, with its names: the counters, the
table and the spec. Every other module loads the first time one of its names
is looked up here, and that name is then bound in this module, so later
lookups cost no more than core's: iterate, rank and unrank load
`enumeration`; count, count_brute_force, cross_check, AgreementReport,
BudgetExceededError and DEFAULT_BUDGET_ITEMS load `oracles`.
"""
from .core import (
    CountMethod,
    CountTable,
    MultisetSpec,
    count_dp,
    count_upper_constrained,
    count_wrong_formula,  # not public: a negative control for perfbench's self-test
    full_table,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "BudgetExceededError",
    "CountMethod",
    "CountTable",
    "DEFAULT_BUDGET_ITEMS",
    "MultisetSpec",
    "count",
    "count_brute_force",
    "count_dp",
    "count_upper_constrained",
    "cross_check",
    "full_table",
    "iterate",
    "rank",
    "unrank",
]

_ENUMERATION = frozenset({"iterate", "rank", "unrank"})
_ORACLES = frozenset({"AgreementReport", "BudgetExceededError", "DEFAULT_BUDGET_ITEMS", "count",
                      "count_brute_force", "cross_check"})


def __getattr__(name: str):
    # Called only for a name not yet bound here (PEP 562). An unknown name
    # raises AttributeError, so `from submultisets import oracles` still
    # falls back to importing the submodule.
    if name in _ENUMERATION:
        from . import enumeration as module
    elif name in _ORACLES:
        from . import oracles as module
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
