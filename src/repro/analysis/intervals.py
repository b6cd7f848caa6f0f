"""Abstract value domains for predicate reasoning.

The linter and the subsumption checker both reason about the set of
values a single ``(variable, property)`` slot may take under a conjunct
of ``= != < <= > >= contains`` predicates.  Two small domains cover the
rule language:

- :class:`NumericConstraints` — an interval with open/closed endpoints,
  plus an equality pin and a set of excluded points, for numeric
  properties;
- :class:`StringConstraints` — an equality pin, excluded values and
  required substrings, for string properties.

Both support the three questions the analyzer asks: *is the conjunct
satisfiable*, *is one predicate implied by the others* (always true) and
*does one atomic constraint imply another* (subsumption).
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = [
    "NumericConstraints",
    "StringConstraints",
    "predicate_implies",
]

_ORDERING = frozenset({"<", "<=", ">", ">="})


@dataclass
class NumericConstraints:
    """Conjunction of numeric comparisons against one value slot.

    ``lower``/``upper`` are the tightest bounds seen so far (``None`` =
    unbounded); the ``*_strict`` flags record open endpoints.  ``eq``
    pins the slot to a single value; ``excluded`` collects ``!=`` points.
    """

    lower: float | None = None
    lower_strict: bool = False
    upper: float | None = None
    upper_strict: bool = False
    eq: float | None = None
    conflicting_eq: bool = False
    excluded: set[float] = field(default_factory=set)

    def add(self, operator: str, value: float) -> None:
        """Narrow the constraint set by one predicate."""
        if operator == "=":
            if self.eq is None:
                self.eq = value
            elif self.eq != value:
                self.conflicting_eq = True
        elif operator == "!=":
            self.excluded.add(value)
        elif operator == ">":
            if self.lower is None or value >= self.lower:
                self.lower, self.lower_strict = value, True
        elif operator == ">=":
            if self.lower is None or value > self.lower:
                self.lower, self.lower_strict = value, False
        elif operator == "<":
            if self.upper is None or value <= self.upper:
                self.upper, self.upper_strict = value, True
        elif operator == "<=":
            if self.upper is None or value < self.upper:
                self.upper, self.upper_strict = value, False
        else:  # pragma: no cover - callers filter operators
            raise ValueError(f"not a numeric operator: {operator!r}")

    def allows(self, value: float) -> bool:
        """Whether ``value`` satisfies every recorded constraint."""
        if self.conflicting_eq:
            return False
        if self.eq is not None and value != self.eq:
            return False
        if value in self.excluded:
            return False
        if self.lower is not None:
            if value < self.lower or (self.lower_strict and value == self.lower):
                return False
        if self.upper is not None:
            if value > self.upper or (self.upper_strict and value == self.upper):
                return False
        return True

    def is_satisfiable(self) -> bool:
        """Whether any value satisfies the conjunction."""
        if self.conflicting_eq:
            return False
        if self.eq is not None:
            return self.allows(self.eq)
        if self.lower is not None and self.upper is not None:
            if self.lower > self.upper:
                return False
            if self.lower == self.upper:
                if self.lower_strict or self.upper_strict:
                    return False
                return self.lower not in self.excluded
        # An open interval over the reals minus finitely many points is
        # never empty (rule constants are finite literals).
        return True

    def implies(self, operator: str, value: float) -> bool:
        """Whether every allowed value satisfies ``slot operator value``."""
        if not self.is_satisfiable():
            return True  # vacuously
        if self.eq is not None:
            return _compare(self.eq, operator, value)
        if operator == "=":
            return False  # a non-pinned satisfiable set is never a point
        if operator == "!=":
            return not self.allows(value)
        if operator in (">", ">="):
            if self.lower is None:
                return False
            if self.lower > value:
                return True
            if self.lower == value:
                return self.lower_strict or operator == ">="
            return False
        if operator in ("<", "<="):
            if self.upper is None:
                return False
            if self.upper < value:
                return True
            if self.upper == value:
                return self.upper_strict or operator == "<="
            return False
        raise ValueError(f"not a numeric operator: {operator!r}")


@dataclass
class StringConstraints:
    """Conjunction of string comparisons against one value slot."""

    eq: str | None = None
    conflicting_eq: bool = False
    excluded: set[str] = field(default_factory=set)
    substrings: set[str] = field(default_factory=set)

    def add(self, operator: str, value: str) -> None:
        if operator == "=":
            if self.eq is None:
                self.eq = value
            elif self.eq != value:
                self.conflicting_eq = True
        elif operator == "!=":
            self.excluded.add(value)
        elif operator == "contains":
            self.substrings.add(value)
        else:  # pragma: no cover - callers filter operators
            raise ValueError(f"not a string operator: {operator!r}")

    def is_satisfiable(self) -> bool:
        if self.conflicting_eq:
            return False
        if self.eq is not None:
            if self.eq in self.excluded:
                return False
            return all(sub in self.eq for sub in self.substrings)
        # Without an equality pin, some long-enough string containing all
        # required substrings and avoiding the finitely many exclusions
        # always exists.
        return True

    def implies(self, operator: str, value: str) -> bool:
        """Whether every allowed value satisfies ``slot operator value``."""
        if not self.is_satisfiable():
            return True  # vacuously
        if self.eq is not None:
            return _compare_str(self.eq, operator, value)
        if operator == "=":
            return False
        if operator == "!=":
            if value in self.excluded:
                return True
            # `contains s` implies `!= v` whenever s is not inside v.
            return any(sub not in value for sub in self.substrings)
        if operator == "contains":
            # contains t implies contains s when s is a substring of t;
            # every value contains the empty needle.
            return value == "" or any(value in sub for sub in self.substrings)
        raise ValueError(f"not a string operator: {operator!r}")


def _compare(left: float, operator: str, right: float) -> bool:
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ValueError(f"unknown operator {operator!r}")


def _compare_str(left: str, operator: str, right: str) -> bool:
    if operator == "=":
        return left == right
    if operator == "!=":
        return left != right
    if operator == "contains":
        return right in left
    raise ValueError(f"unknown string operator {operator!r}")


def predicate_implies(
    op_a: str, value_a: str, op_b: str, value_b: str, numeric: bool
) -> bool:
    """Whether ``slot op_a value_a`` implies ``slot op_b value_b``.

    This is the single-predicate containment the subsumption checker
    uses: atom A is at least as strict as atom B iff every value
    satisfying A satisfies B.  Values arrive in their canonical stored
    string form (see ``Literal.sql_value``).
    """
    if numeric:
        constraints = NumericConstraints()
        constraints.add(op_a, float(value_a))
        return constraints.implies(op_b, float(value_b))
    if op_a in _ORDERING or op_b in _ORDERING:
        return op_a == op_b and value_a == value_b
    string_constraints = StringConstraints()
    string_constraints.add(op_a, value_a)
    return string_constraints.implies(op_b, value_b)
