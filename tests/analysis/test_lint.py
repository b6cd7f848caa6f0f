"""Linter tests: schema errors, satisfiability, redundancy, spans."""

import pytest

from repro.analysis import lint_rule_text
from repro.analysis.diagnostics import Severity


def codes(report):
    return [d.code for d in report]


class TestParseAndSchema:
    def test_clean_rule(self, schema):
        report = lint_rule_text("search CycleProvider c register c", schema)
        assert report.is_clean
        assert report.exit_code() == 0

    def test_parse_error(self, schema):
        report = lint_rule_text("search register where", schema)
        assert codes(report) == ["MDV001"]
        assert report.exit_code() == 2

    def test_unknown_class(self, schema):
        rule = "search NoSuchClass x register x"
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV002"]
        (diagnostic,) = report
        start, end = diagnostic.span
        assert rule[start:end] == "NoSuchClass x"

    def test_named_rule_extension_accepted(self, schema):
        report = lint_rule_text(
            "search FastProviders f register f",
            schema,
            named_extension_types={"FastProviders": "CycleProvider"},
        )
        assert report.is_clean

    def test_unknown_property(self, schema):
        rule = "search CycleProvider c register c where c.bogus = 'x'"
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV003"]
        (diagnostic,) = report
        start, end = diagnostic.span
        assert rule[start:end] == "c.bogus"

    def test_any_on_single_valued_property(self, schema):
        rule = "search CycleProvider c register c where c.serverPort? = 5"
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV004"]

    def test_multivalued_without_any(self, rich_schema):
        rule = "search CycleProvider c register c where c.tags = 'gpu'"
        report = lint_rule_text(rule, rich_schema)
        assert codes(report) == ["MDV005"]
        (diagnostic,) = report
        assert diagnostic.severity is Severity.WARNING

    def test_multivalued_with_any_is_clean(self, rich_schema):
        report = lint_rule_text(
            "search CycleProvider c register c where c.tags? = 'gpu'",
            rich_schema,
        )
        assert report.is_clean

    def test_numeric_property_string_constant(self, schema):
        rule = "search CycleProvider c register c where c.serverPort = 'abc'"
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV006"]

    def test_string_property_numeric_constant(self, schema):
        rule = "search CycleProvider c register c where c.serverHost = 42"
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV006"]

    def test_ordering_on_string_property(self, schema):
        rule = "search CycleProvider c register c where c.serverHost > 'a'"
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV006"]

    def test_contains_on_numeric_property(self, schema):
        rule = (
            "search CycleProvider c register c "
            "where c.serverPort contains 'x'"
        )
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV006"]

    def test_short_contains_needle_is_clean(self, schema):
        # Every needle length is indexed exactly, so a needle shorter
        # than three characters is no longer a finding.
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverHost contains 'de'",
            schema,
        )
        assert report.is_clean
        assert report.exit_code() == 0

    def test_indexable_contains_needle_is_clean(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverHost contains 'uni'",
            schema,
        )
        assert report.is_clean

    def test_two_constants(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c where 1 = 2", schema
        )
        assert codes(report) == ["MDV007"]

    def test_disconnected_variable(self, schema):
        rule = (
            "search CycleProvider c, ServerInformation s register c "
            "where s.memory > 64"
        )
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV008"]
        (diagnostic,) = report
        start, end = diagnostic.span
        assert rule[start:end] == "ServerInformation s"

    def test_connected_variable_is_clean(self, schema):
        report = lint_rule_text(
            "search CycleProvider c, ServerInformation s register c "
            "where c.serverInformation = s and s.memory > 64",
            schema,
        )
        assert report.is_clean

    def test_multiple_findings_reported_together(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.bogus = 'x' and c.serverPort = 'y'",
            schema,
        )
        assert sorted(codes(report)) == ["MDV003", "MDV006"]


class TestSatisfiability:
    def test_contradictory_interval(self, schema):
        rule = (
            "search CycleProvider c register c "
            "where c.serverPort < 5 and c.serverPort > 9"
        )
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV010"]
        (diagnostic,) = report
        start, end = diagnostic.span
        assert rule[start:end] == "c.serverPort < 5 and c.serverPort > 9"

    def test_conflicting_equalities(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverPort = 3 and c.serverPort = 4",
            schema,
        )
        assert codes(report) == ["MDV010"]

    def test_contains_contradicts_equality(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverHost = 'tum.de' "
            "and c.serverHost contains 'passau'",
            schema,
        )
        assert codes(report) == ["MDV010"]

    def test_satisfiable_conjunct_is_clean(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverPort > 5 and c.serverPort < 9",
            schema,
        )
        assert report.is_clean

    def test_or_branches_checked_independently(self, schema):
        # The first disjunct is contradictory, the second is fine.
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where (c.serverPort < 5 and c.serverPort > 9) "
            "or c.serverPort = 7",
            schema,
        )
        assert codes(report) == ["MDV010"]

    def test_redundant_predicate(self, schema):
        rule = (
            "search CycleProvider c register c "
            "where c.serverPort > 5 and c.serverPort > 3"
        )
        report = lint_rule_text(rule, schema)
        assert codes(report) == ["MDV011"]
        (diagnostic,) = report
        assert diagnostic.severity is Severity.WARNING
        start, end = diagnostic.span
        assert rule[start:end] == "c.serverPort > 3"
        assert report.exit_code() == 1

    def test_self_comparison_always_true(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverPort = c.serverPort",
            schema,
        )
        assert codes(report) == ["MDV011"]

    def test_self_comparison_never_true(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverPort != c.serverPort",
            schema,
        )
        assert codes(report) == ["MDV010"]

    def test_existential_predicates_do_not_conjoin(self, rich_schema):
        # Distinct elements of a set-valued property may satisfy the
        # two predicates separately: not a contradiction.
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.tags? = 'gpu' and c.tags? = 'fast'",
            rich_schema,
        )
        assert report.is_clean

    def test_path_slots_tracked_separately(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64 "
            "and c.serverInformation.cpu < 10",
            schema,
        )
        assert report.is_clean

    def test_contradiction_through_path(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64 "
            "and c.serverInformation.memory < 32",
            schema,
        )
        assert codes(report) == ["MDV010"]


class TestDiagnosticContract:
    def test_unknown_code_rejected(self):
        from repro.analysis.diagnostics import Diagnostic

        with pytest.raises(ValueError):
            Diagnostic(Severity.ERROR, "MDV999", "nope")

    def test_render_mentions_code_and_span(self, schema):
        report = lint_rule_text(
            "search CycleProvider c register c "
            "where c.serverPort < 5 and c.serverPort > 9",
            schema,
        )
        rendered = report.render()
        assert "MDV010" in rendered
        assert "error" in rendered
