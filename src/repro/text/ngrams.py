"""Trigram tokenization and the one canonical ``contains`` semantics.

Every path that evaluates a ``contains`` predicate — the filter's
triggering join, the SQL query translator and the LMR's in-memory
evaluator — must agree on what "contains" means.  The semantics, stated
once and enforced through the helpers below:

- **Exact substring over canonical string values.**  ``needle contains``
  matches iff the needle occurs verbatim in the value: case-sensitive,
  accent-sensitive, compared codepoint by codepoint.  There is no
  normalization, collation or word splitting.
- **The empty needle matches every value.**  Python's ``'' in x`` is
  ``True`` and SQLite's ``instr(x, '') = 1 > 0`` — both backends agree
  by construction.
- **Values and needles are compared as text**, even when a needle
  happens to look numeric; the SQL renderer must therefore quote
  ``contains`` constants unconditionally (SQLite's ``instr`` applies
  numeric affinity to unquoted operands: ``instr('12345', 234) = 2``).

:func:`contains_match` is the Python-side implementation and
:func:`contains_sql_condition` renders the equivalent SQL fragment;
``tests/query/test_contains_crosspath.py`` asserts that all consumers
produce identical matches.

Tokenization for the counting matcher's in-memory postings
(:mod:`repro.filter.counting`) is plain character trigrams — every
window of :data:`TRIGRAM_LENGTH` consecutive codepoints.  The exactness
lemma the postings rely on: if ``needle`` is a substring of ``value``
and ``len(needle) >= TRIGRAM_LENGTH``, every trigram of ``needle`` is
also a trigram of ``value`` — so probing for rules whose trigram set is
a subset of the value's trigram set can only *over*-approximate the
true matches, never miss one.  Needles shorter than a trigram have no
trigrams and are brute-forced per ``(class, property)`` bucket
(:func:`is_indexable`).
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "TRIGRAM_LENGTH",
    "trigrams",
    "is_indexable",
    "contains_match",
    "contains_sql_condition",
]

#: Window length of the n-gram tokenizer.  Three is the classic choice
#: (pg_trgm, code-search trigram indexes): long enough that postings
#: lists stay selective, short enough that most real needles qualify.
TRIGRAM_LENGTH = 3


@lru_cache(maxsize=4096)
def trigrams(text: str) -> frozenset[str]:
    """The set of character trigrams of ``text`` (empty when too short).

    Memoized: benchmark workloads and real metadata alike probe the same
    property values over and over, and needles are tokenized once per
    registration anyway.
    """
    if len(text) < TRIGRAM_LENGTH:
        return frozenset()
    return frozenset(
        text[i : i + TRIGRAM_LENGTH]
        for i in range(len(text) - TRIGRAM_LENGTH + 1)
    )


def is_indexable(needle: str) -> bool:
    """Whether a ``contains`` needle enters the trigram postings.

    Shorter needles have no trigrams; the counting matcher brute-forces
    them per bucket (and the linter flags them with ``MDV039``).
    """
    return len(needle) >= TRIGRAM_LENGTH


def contains_match(value: str, needle: str) -> bool:
    """The canonical ``contains`` semantics (see the module docstring)."""
    return needle in value


def contains_sql_condition(value_sql: str, needle_sql: str) -> str:
    """The SQL fragment equivalent to :func:`contains_match`.

    Both operands are already-rendered SQL expressions; string constants
    must be quoted by the caller so no numeric affinity applies.
    ``instr`` agrees with Python ``in`` on every case the language can
    produce: case sensitivity, UTF-8 codepoints and the empty needle.
    """
    return f"instr({value_sql}, {needle_sql}) > 0"
