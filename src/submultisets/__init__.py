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
    CountTable,
    MultisetSpec,
    count_dp,
    count_upper_constrained,
    count_wrong_formula,  # not public: a negative control for perfbench's self-test
    full_table,
)
from .enumeration import iterate, rank, unrank
from .oracles import (
    DEFAULT_BUDGET_ITEMS,
    AgreementReport,
    BudgetExceededError,
    count,
    count_brute_force,
    cross_check,
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
