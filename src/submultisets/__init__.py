"""Exact counting and enumeration of a multiset's sub-multisets by cardinality.

A multiset is described by its element multiplicities (a_1, ..., a_k); its
sub-multisets of cardinality n correspond one-to-one to the bounded
compositions (x_1, ..., x_k) with sum n and 0 <= x_j <= a_j. This package
counts them exactly (inclusion-exclusion closed form, generating-function
dynamic program, or budget-guarded brute force), tabulates all cardinalities,
streams the compositions in lexicographic order, and ranks/unranks them.
"""
from .core import (
    CountMethod,
    MultisetSpec,
    count_upper_constrained,
    count_wrong_formula,  # not public: a negative control for perfbench's self-test
)
from .enumeration import iterate, rank, unrank
from .oracles import (
    DEFAULT_BUDGET_ITEMS,
    AgreementReport,
    Budget,
    BudgetExceededError,
    CountTable,
    count,
    count_brute_force,
    count_dp,
    cross_check,
    full_table,
)

__version__ = "0.1.0"

__all__ = [
    "AgreementReport",
    "Budget",
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
