"""Subsumption/duplication checks and the registration analyze policies."""

import pytest

from repro.analysis import check_subsumption
from repro.analysis.diagnostics import Severity
from repro.errors import RuleAnalysisError
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema
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


class TestRegistrationPolicy:
    def test_analyze_off_records_nothing(self, registry, schema):
        rule = "search CycleProvider c register c"
        register(registry, schema, "lmr1", rule)
        decomposed = decompose(rule, schema, registry)
        registration = registry.register_subscription(
            "lmr2", rule, decomposed, analyze="off"
        )
        assert registration.diagnostics == []

    def test_analyze_warn_attaches_diagnostics(self, registry, schema):
        rule = "search CycleProvider c register c"
        register(registry, schema, "lmr1", rule)
        decomposed = decompose(rule, schema, registry)
        registration = registry.register_subscription(
            "lmr2", rule, decomposed, analyze="warn"
        )
        assert [d.code for d in registration.diagnostics] == ["MDV020"]

    def test_analyze_reject_raises_and_stores_nothing(self, registry, schema):
        rule = "search CycleProvider c register c where c.serverPort > 5"
        register(registry, schema, "lmr1", rule)
        # A same-subscriber semantic duplicate under a different spelling
        # passes the registry's textual duplicate check but is an
        # analyzer error.
        respelled = "search CycleProvider x register x where x.serverPort > 5"
        decomposed = decompose(respelled, schema, registry)
        before = registry.atom_count()
        with pytest.raises(RuleAnalysisError) as excinfo:
            registry.register_subscription(
                "lmr1", respelled, decomposed, analyze="reject"
            )
        assert any(d.code == "MDV020" for d in excinfo.value.diagnostics)
        assert registry.atom_count() == before
        assert len(registry.subscriptions_of("lmr1")) == 1

    def test_analyze_reject_passes_clean_rule(self, registry, schema):
        rule = "search CycleProvider c register c"
        decomposed = decompose(rule, schema, registry)
        registration = registry.register_subscription(
            "lmr1", rule, decomposed, analyze="reject"
        )
        assert registration.diagnostics == []

    def test_unknown_policy_rejected(self, registry, schema):
        rule = "search CycleProvider c register c"
        decomposed = decompose(rule, schema, registry)
        with pytest.raises(ValueError):
            registry.register_subscription(
                "lmr1", rule, decomposed, analyze="strict"
            )


class TestProviderAnalysis:
    def test_analyze_rule_reports_lint_and_subsumption(self):
        mdp = MetadataProvider(objectglobe_schema())
        mdp.subscribe(
            "lmr1", "search CycleProvider c register c where c.serverPort > 5"
        )
        diagnostics = mdp.analyze_rule(
            "search CycleProvider c register c where c.serverPort > 9"
        )
        assert [d.code for d in diagnostics] == ["MDV021"]
        diagnostics = mdp.analyze_rule(
            "search CycleProvider c register c "
            "where c.serverPort < 5 and c.serverPort > 9"
        )
        assert [d.code for d in diagnostics] == ["MDV010"]

    def test_subscribe_warn_policy_surfaces_diagnostics(self):
        mdp = MetadataProvider(objectglobe_schema(), analyze="warn")
        mdp.subscribe("lmr1", "search CycleProvider c register c")
        assert mdp.last_diagnostics == []
        mdp.subscribe(
            "lmr2",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        assert [d.code for d in mdp.last_diagnostics] == ["MDV021"]

    def test_subscribe_reject_policy_blocks_unsatisfiable(self):
        mdp = MetadataProvider(objectglobe_schema(), analyze="reject")
        with pytest.raises(RuleAnalysisError):
            mdp.subscribe(
                "lmr1",
                "search CycleProvider c register c "
                "where c.serverPort < 5 and c.serverPort > 9",
            )
        assert mdp.registry.atom_count() == 0

    def test_per_call_override(self):
        mdp = MetadataProvider(objectglobe_schema(), analyze="reject")
        mdp.subscribe(
            "lmr1",
            "search CycleProvider c register c "
            "where c.serverPort < 5 and c.serverPort > 9",
            analyze="off",
        )
        assert mdp.registry.atom_count() > 0

    def test_invalid_policy_values(self):
        with pytest.raises(ValueError):
            MetadataProvider(objectglobe_schema(), analyze="nope")
        mdp = MetadataProvider(objectglobe_schema())
        with pytest.raises(ValueError):
            mdp.subscribe(
                "lmr1", "search CycleProvider c register c", analyze="nope"
            )


class TestRepositoryAnalysis:
    def test_subscribe_returns_diagnostics(self):
        from repro.mdv.repository import LocalMetadataRepository

        mdp = MetadataProvider(objectglobe_schema())
        lmr = LocalMetadataRepository("lmr1", mdp, analyze="warn")
        assert lmr.subscribe("search CycleProvider c register c") == []
        other = LocalMetadataRepository("lmr2", mdp, analyze="warn")
        diagnostics = other.subscribe(
            "search CycleProvider c register c where c.serverPort > 5"
        )
        assert [d.code for d in diagnostics] == ["MDV021"]

    def test_subscribe_reject_registers_nothing(self):
        from repro.mdv.repository import LocalMetadataRepository

        mdp = MetadataProvider(objectglobe_schema())
        lmr = LocalMetadataRepository("lmr1", mdp, analyze="reject")
        with pytest.raises(RuleAnalysisError):
            lmr.subscribe(
                "search CycleProvider c register c "
                "where c.serverPort < 5 and c.serverPort > 9"
            )
        assert lmr.subscriptions() == []
        assert mdp.registry.atom_count() == 0

    def test_analysis_works_over_the_bus(self):
        from repro.mdv.repository import LocalMetadataRepository
        from repro.net.bus import NetworkBus

        bus = NetworkBus()
        mdp = MetadataProvider(objectglobe_schema(), bus=bus)
        lmr = LocalMetadataRepository("lmr1", mdp, bus=bus, analyze="warn")
        lmr.subscribe("search CycleProvider c register c")
        other = LocalMetadataRepository("lmr2", mdp, bus=bus, analyze="warn")
        diagnostics = other.subscribe(
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        assert [d.code for d in diagnostics] == ["MDV021"]
