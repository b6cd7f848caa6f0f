"""The one canonical ``contains`` semantics and its trigram tokenizer.

The paper concedes that ``contains`` (and range) rules cannot use the
``(class, property, value)`` index: their triggering cost grows with the
rule base size and the match percentage (Section 3.4, Figures 13 and
15).  :mod:`repro.text.ngrams` states what ``contains`` means once, for
every path that evaluates it — the filter's scan join, the counting
matcher's in-memory trigram postings (:mod:`repro.filter.counting`), the
SQL query translator and the LMR's evaluator — and provides the trigram
tokenizer the counting matcher indexes needles with.  See
docs/FILTER_ALGORITHM.md for the exactness argument.
"""

from repro.text.ngrams import (
    TRIGRAM_LENGTH,
    contains_match,
    contains_sql_condition,
    is_indexable,
    trigrams,
)

__all__ = [
    "TRIGRAM_LENGTH",
    "contains_match",
    "contains_sql_condition",
    "is_indexable",
    "trigrams",
]
