"""Unit tests for the abstract constraint domains."""

from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.intervals import (
    NumericConstraints,
    StringConstraints,
    predicate_implies,
)
from tests.conftest import prop_settings

NUMERIC_OPERATORS = ["=", "!=", "<", "<=", ">", ">="]


class TestNumericConstraints:
    def test_empty_is_satisfiable(self):
        assert NumericConstraints().is_satisfiable()

    def test_contradictory_bounds(self):
        constraints = NumericConstraints()
        constraints.add("<", 5.0)
        constraints.add(">", 9.0)
        assert not constraints.is_satisfiable()

    def test_touching_open_bounds(self):
        constraints = NumericConstraints()
        constraints.add("<", 5.0)
        constraints.add(">=", 5.0)
        assert not constraints.is_satisfiable()

    def test_touching_closed_bounds(self):
        constraints = NumericConstraints()
        constraints.add("<=", 5.0)
        constraints.add(">=", 5.0)
        assert constraints.is_satisfiable()

    def test_point_interval_excluded(self):
        constraints = NumericConstraints()
        constraints.add("<=", 5.0)
        constraints.add(">=", 5.0)
        constraints.add("!=", 5.0)
        assert not constraints.is_satisfiable()

    def test_conflicting_equalities(self):
        constraints = NumericConstraints()
        constraints.add("=", 3.0)
        constraints.add("=", 4.0)
        assert not constraints.is_satisfiable()
        assert not constraints.allows(3.0)
        assert not constraints.allows(4.0)

    def test_equality_outside_bounds(self):
        constraints = NumericConstraints()
        constraints.add("=", 3.0)
        constraints.add(">", 7.0)
        assert not constraints.is_satisfiable()

    def test_implies_from_equality(self):
        constraints = NumericConstraints()
        constraints.add("=", 6.0)
        assert constraints.implies(">", 5.0)
        assert constraints.implies("<=", 6.0)
        assert not constraints.implies(">", 6.0)

    def test_implies_from_bounds(self):
        constraints = NumericConstraints()
        constraints.add(">", 5.0)
        assert constraints.implies(">", 3.0)
        assert constraints.implies(">=", 5.0)
        assert constraints.implies("!=", 4.0)
        assert not constraints.implies(">", 6.0)
        assert not constraints.implies("<", 100.0)

    @given(
        op_a=st.sampled_from(NUMERIC_OPERATORS),
        value_a=st.integers(-5, 5),
        op_b=st.sampled_from(NUMERIC_OPERATORS),
        value_b=st.integers(-5, 5),
        probe=st.integers(-12, 12),
    )
    @prop_settings(max_examples=400)
    def test_predicate_implies_is_sound(
        self, op_a, value_a, op_b, value_b, probe
    ):
        """If A implies B, every point satisfying A satisfies B."""
        if predicate_implies(op_a, str(value_a), op_b, str(value_b), True):
            a = NumericConstraints()
            a.add(op_a, float(value_a))
            b = NumericConstraints()
            b.add(op_b, float(value_b))
            for candidate in (float(probe), probe + 0.5):
                if a.allows(candidate):
                    assert b.allows(candidate)


class TestStringConstraints:
    def test_conflicting_equalities(self):
        constraints = StringConstraints()
        constraints.add("=", "a")
        constraints.add("=", "b")
        assert not constraints.is_satisfiable()

    def test_equality_against_substring(self):
        constraints = StringConstraints()
        constraints.add("=", "tum.de")
        constraints.add("contains", "passau")
        assert not constraints.is_satisfiable()

    def test_equality_with_matching_substring(self):
        constraints = StringConstraints()
        constraints.add("=", "uni-passau.de")
        constraints.add("contains", "passau")
        assert constraints.is_satisfiable()

    def test_equality_excluded(self):
        constraints = StringConstraints()
        constraints.add("=", "a")
        constraints.add("!=", "a")
        assert not constraints.is_satisfiable()

    def test_contains_implies_shorter_contains(self):
        assert predicate_implies(
            "contains", "uni-passau", "contains", "passau", False
        )
        assert not predicate_implies(
            "contains", "passau", "contains", "uni-passau", False
        )

    def test_everything_implies_the_empty_needle(self):
        assert predicate_implies("!=", "x", "contains", "", False)
        assert predicate_implies("contains", "de", "contains", "", False)
        assert predicate_implies("=", "", "contains", "", False)

    def test_equality_implies_contains(self):
        assert predicate_implies("=", "uni-passau.de", "contains", "passau", False)
        assert not predicate_implies("=", "tum.de", "contains", "passau", False)

    def test_ordering_on_strings_only_trivially(self):
        assert predicate_implies("<", "5", "<", "5", True)
        assert not predicate_implies("<", "a", "<=", "b", False)
