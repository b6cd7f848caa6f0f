"""The one canonical ``contains`` semantics.

Every path that evaluates a ``contains`` predicate — the filter's
triggering join (which the MDP's browse runs too) and the LMR's
in-memory evaluator — must agree on what "contains" means.  The semantics, stated
once and enforced through the helpers below:

- **Exact substring over canonical string values.**  ``needle contains``
  matches iff the needle occurs verbatim in the value: case-sensitive,
  accent-sensitive, compared codepoint by codepoint.  There is no
  normalization, collation or word splitting.
- **The empty needle matches every value.**  Python's ``'' in x`` is
  ``True`` and SQLite's ``instr(x, '') = 1 > 0`` — both backends agree
  by construction.
- **Values and needles are compared as text**, even when a needle
  happens to look numeric; SQL must therefore bind or quote
  ``contains`` constants as text unconditionally (SQLite's ``instr`` applies
  numeric affinity to unquoted operands: ``instr('12345', 234) = 2``).

:func:`contains_match` is the Python-side implementation and
:func:`contains_sql_condition` renders the equivalent SQL fragment;
``tests/query/test_contains_crosspath.py`` asserts that all consumers
produce identical matches.

The counting matcher (:mod:`repro.filter.counting`) answers
``contains`` with a substring dictionary: it looks up each of the
value's windows of every registered needle length.  That is this
semantics by definition — a needle occurs in a value exactly when it
equals one of the value's windows of its length, the empty needle being
the window of length 0 — so the dictionary needs no verify step.
"""

from __future__ import annotations

__all__ = [
    "contains_match",
    "contains_sql_condition",
]


def contains_match(value: str, needle: str) -> bool:
    """The canonical ``contains`` semantics (see the module docstring)."""
    return needle in value


def contains_sql_condition(value_sql: str, needle_sql: str) -> str:
    """The SQL fragment equivalent to :func:`contains_match`.

    Both operands are already-rendered SQL expressions; string constants
    must be bound or quoted as text by the caller so no numeric affinity
    applies.
    ``instr`` agrees with Python ``in`` on every case the language can
    produce: case sensitivity, UTF-8 codepoints and the empty needle.
    """
    return f"instr({value_sql}, {needle_sql}) > 0"
