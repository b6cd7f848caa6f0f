"""The one canonical ``contains`` semantics.

The paper concedes that ``contains`` (and range) rules cannot use the
``(class, property, value)`` index: their triggering cost grows with the
rule base size and the match percentage (Section 3.4, Figures 13 and
15).  :mod:`repro.text.ngrams` states what ``contains`` means once, for
every path that evaluates it — the filter's scan join, the counting
matcher's in-memory substring dictionary (:mod:`repro.filter.counting`)
and the LMR's evaluator.  See docs/FILTER_ALGORITHM.md.
"""

from repro.text.ngrams import contains_match, contains_sql_condition

__all__ = [
    "contains_match",
    "contains_sql_condition",
]
