"""Subsumption and duplication checks against the live registry."""

from repro.analysis import check_subsumption
from repro.analysis.diagnostics import Severity
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule


def decompose(rule_text, schema, registry):
    rule = parse_rule(rule_text)
    (normalized,) = normalize_rule(rule, schema, registry.named_rule_types())
    return decompose_rule(normalized, schema, registry.named_producers())


def register(registry, schema, subscriber, rule_text):
    decomposed = decompose(rule_text, schema, registry)
    return registry.register_subscription(subscriber, rule_text, decomposed)


def analyze(registry, schema, rule_text, subscriber=None):
    decomposed = decompose(rule_text, schema, registry)
    return check_subsumption(decomposed, registry, subscriber=subscriber)


class TestCheckSubsumption:
    def test_empty_registry_is_clean(self, registry, schema):
        report = analyze(
            registry, schema, "search CycleProvider c register c"
        )
        assert report.is_clean

    def test_exact_duplicate_other_subscriber(self, registry, schema):
        rule = "search CycleProvider c register c where c.serverPort > 5"
        register(registry, schema, "lmr1", rule)
        report = analyze(registry, schema, rule, subscriber="lmr2")
        assert [d.code for d in report] == ["MDV020"]
        (diagnostic,) = report
        assert diagnostic.severity is Severity.WARNING

    def test_exact_duplicate_same_subscriber_is_error(self, registry, schema):
        rule = "search CycleProvider c register c where c.serverPort > 5"
        register(registry, schema, "lmr1", rule)
        report = analyze(registry, schema, rule, subscriber="lmr1")
        (diagnostic,) = report
        assert diagnostic.code == "MDV020"
        assert diagnostic.severity is Severity.ERROR
        # A re-spelled duplicate passes the registry's textual duplicate
        # check; the analyzer still sees the same rule.
        respelled = "search CycleProvider x register x where x.serverPort > 5"
        report = analyze(registry, schema, respelled, subscriber="lmr1")
        assert [(d.code, d.severity) for d in report] == [
            ("MDV020", Severity.ERROR)
        ]

    def test_subsumed_candidate(self, registry, schema):
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c where c.serverPort > 5",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c where c.serverPort > 9",
        )
        assert [d.code for d in report] == ["MDV021"]

    def test_subsuming_candidate(self, registry, schema):
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c where c.serverPort > 9",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c where c.serverPort > 5",
        )
        assert [d.code for d in report] == ["MDV022"]
        (diagnostic,) = report
        assert diagnostic.severity is Severity.INFO

    def test_class_only_subsumes_predicate(self, registry, schema):
        register(registry, schema, "lmr1", "search CycleProvider c register c")
        report = analyze(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        assert [d.code for d in report] == ["MDV021"]

    def test_contains_subsumption(self, registry, schema):
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverHost contains 'uni-passau'",
        )
        assert [d.code for d in report] == ["MDV021"]

    def test_empty_needle_covers_inequality(self, registry, schema):
        # Every value contains the empty needle, so the live rule
        # matches whatever the new one does.
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c "
            "where c.serverHost contains ''",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverHost != 'x'",
        )
        assert [d.code for d in report] == ["MDV021"]

    def test_incomparable_rules_are_silent(self, registry, schema):
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c where c.serverPort > 5",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        assert report.is_clean

    def test_join_tree_subsumption(self, registry, schema):
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 128",
        )
        assert [d.code for d in report] == ["MDV021"]

    def test_join_trees_with_different_shapes_are_silent(
        self, registry, schema
    ):
        register(
            registry, schema, "lmr1",
            "search CycleProvider c register c "
            "where c.serverInformation.memory > 64",
        )
        report = analyze(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverInformation.cpu > 64",
        )
        assert report.is_clean

    def test_subclass_is_recognized_as_stricter(self, rich_schema, registry):
        register(registry, rich_schema, "lmr1", "search Provider p register p")
        report = analyze(
            registry, rich_schema, "search CycleProvider c register c"
        )
        assert [d.code for d in report] == ["MDV021"]
