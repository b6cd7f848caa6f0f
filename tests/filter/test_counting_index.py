"""Unit tests of the counting matcher's index maintenance.

The differential suite (:mod:`tests.filter.test_counting_differential`)
pins end-to-end parity; these tests target the index's own edge cases —
incremental re-sync off the mutation log, unregistration mid-stream,
shape-changing updates (a predicate moving between index families),
deduplicated rules sharing one entry, class-only degenerate rules and
the log-gap rebuild fallback.
"""

from __future__ import annotations

import pytest

from repro.filter.counting import CountingMatcher
from repro.obs.metrics import default_registry
from repro.rdf.namespaces import RDF_SUBJECT
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry


def _subscribe(registry: RuleRegistry, schema, text: str, subscriber="lmr"):
    """Register one single-conjunct rule; returns its end rule id."""
    (normalized,) = normalize_rule(parse_rule(text), schema)
    registration = registry.register_subscription(
        subscriber, text, decompose_rule(normalized, schema)
    )
    return registration.end_rule


def _refresh(matcher: CountingMatcher, db, registry: RuleRegistry) -> bool:
    return matcher.refresh(
        db, registry.mutation_version, registry.mutation_log
    )


HOST_ATOM = ("d.rdf#h", "CycleProvider", "serverHost", "x.uni-passau.de")
SUBJECT_ATOM = ("d.rdf#h", "CycleProvider", RDF_SUBJECT, "d.rdf#h")


class TestIncrementalMaintenance:
    def test_fresh_matcher_rebuilds(self, db, registry, schema):
        _subscribe(registry, schema, "search CycleProvider c register c")
        matcher = CountingMatcher()
        assert _refresh(matcher, db, registry)
        assert default_registry().counter_values()["counting.rebuilds"] == 1
        assert matcher.rule_count == 1
        # Same version again: no work.
        assert not _refresh(matcher, db, registry)

    def test_incremental_equals_rebuild(self, db, registry, schema):
        rules = [
            "search CycleProvider c register c",
            "search CycleProvider c register c where c.synthValue > 3",
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
            "search CycleProvider c register c "
            "where c.serverHost = 'x.uni-passau.de'",
        ]
        incremental = CountingMatcher()
        _subscribe(registry, schema, rules[0])
        _refresh(incremental, db, registry)
        for text in rules[1:]:
            _subscribe(registry, schema, text)
            _refresh(incremental, db, registry)
        rebuilt = CountingMatcher()
        _refresh(rebuilt, db, registry)
        atoms = [
            SUBJECT_ATOM,
            HOST_ATOM,
            ("d.rdf#h", "CycleProvider", "synthValue", "5"),
        ]
        assert sorted(incremental.match(atoms)) == sorted(rebuilt.match(atoms))
        counters = default_registry().counter_values()
        # The three later rules arrived through the log, not rebuilds.
        assert counters["counting.incremental"] == 3.0

    def test_log_gap_falls_back_to_rebuild(self, db, registry, schema):
        matcher = CountingMatcher()
        _subscribe(registry, schema, "search CycleProvider c register c")
        _refresh(matcher, db, registry)
        rule = _subscribe(
            registry, schema,
            "search CycleProvider c register c where c.synthValue > 3",
        )
        # Pretend the log rotated past the gap: refresh sees the new
        # version but no covering entries and must rebuild.
        registry.mutation_log.clear()
        assert _refresh(matcher, db, registry)
        counters = default_registry().counter_values()
        assert counters["counting.rebuilds"] == 2.0
        hits = matcher.match(
            [("d.rdf#h", "CycleProvider", "synthValue", "5")]
        )
        assert ("d.rdf#h", rule) in hits

    def test_unregister_mid_stream(self, db, registry, schema):
        text = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        matcher = CountingMatcher()
        rule = _subscribe(registry, schema, text)
        keeper = _subscribe(
            registry, schema, "search CycleProvider c register c"
        )
        _refresh(matcher, db, registry)
        assert ("d.rdf#h", rule) in matcher.match([HOST_ATOM])

        registry.unsubscribe("lmr", text)
        # Incrementally applied (no rebuild): the dropped rule's postings
        # are gone, the survivor still fires.
        assert _refresh(matcher, db, registry)
        counters = default_registry().counter_values()
        assert counters["counting.rebuilds"] == 1.0
        hits = matcher.match([HOST_ATOM, SUBJECT_ATOM])
        assert ("d.rdf#h", rule) not in hits
        assert ("d.rdf#h", keeper) in hits
        assert matcher.rule_count == 1

    def test_shape_changing_update(self, db, registry, schema):
        # The subscriber's rule moves from the eq family to a range —
        # modelled as unsubscribe + re-subscribe, both picked up from
        # the log in one refresh.
        old = "search CycleProvider c register c where c.synthValue = 5"
        new = "search CycleProvider c register c where c.synthValue >= 5"
        matcher = CountingMatcher()
        old_rule = _subscribe(registry, schema, old)
        _refresh(matcher, db, registry)
        atom_eq = ("d.rdf#h", "CycleProvider", "synthValue", "5")
        atom_above = ("d.rdf#h", "CycleProvider", "synthValue", "7")
        assert matcher.match([atom_above]) == []

        registry.unsubscribe("lmr", old)
        new_rule = _subscribe(registry, schema, new)
        assert _refresh(matcher, db, registry)
        hits = matcher.match([atom_eq, atom_above])
        assert ("d.rdf#h", old_rule) not in hits
        assert ("d.rdf#h", new_rule) in hits
        assert matcher.rule_count == 1

    def test_duplicate_predicates_share_entry(self, db, registry, schema):
        text = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        matcher = CountingMatcher()
        first = _subscribe(registry, schema, text, subscriber="a")
        second = _subscribe(registry, schema, text, subscriber="b")
        assert first == second  # dedupe shares the stored rule
        _refresh(matcher, db, registry)
        assert matcher.rule_count == 1
        assert matcher.match([HOST_ATOM]) == [("d.rdf#h", first)]

        # Dropping one subscriber keeps the shared entry alive...
        registry.unsubscribe("a", text)
        _refresh(matcher, db, registry)
        assert matcher.match([HOST_ATOM]) == [("d.rdf#h", first)]
        # ...dropping the last one removes it.
        registry.unsubscribe("b", text)
        _refresh(matcher, db, registry)
        assert matcher.match([HOST_ATOM]) == []
        assert matcher.rule_count == 0

    def test_class_only_rule(self, db, registry, schema):
        rule = _subscribe(
            registry, schema, "search CycleProvider c register c"
        )
        matcher = CountingMatcher()
        _refresh(matcher, db, registry)
        # Fires on the identity atom, not on property atoms.
        assert matcher.match([SUBJECT_ATOM]) == [("d.rdf#h", rule)]
        assert matcher.match([HOST_ATOM]) == []
        # Other classes' subjects miss.
        assert (
            matcher.match(
                [("d.rdf#i", "ServerInformation", RDF_SUBJECT, "d.rdf#i")]
            )
            == []
        )


class TestMatching:
    def test_duplicate_atoms_dedupe(self, db, registry, schema):
        rule = _subscribe(
            registry, schema,
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'",
        )
        matcher = CountingMatcher()
        _refresh(matcher, db, registry)
        hits = matcher.match([HOST_ATOM, HOST_ATOM])
        assert hits == [("d.rdf#h", rule)]

    def test_empty_batch(self, db, registry, schema):
        matcher = CountingMatcher()
        _refresh(matcher, db, registry)
        assert matcher.match([]) == []

    def test_unknown_version_raises_nothing(self, db, registry, schema):
        # A matcher over an empty registry matches nothing anywhere.
        matcher = CountingMatcher()
        _refresh(matcher, db, registry)
        assert matcher.rule_count == 0
        assert matcher.match([HOST_ATOM, SUBJECT_ATOM]) == []


@pytest.mark.parametrize(
    "text,value,expected",
    [
        ("abc", "abc", 0.0),
        ("1.5x", "1.5x", 1.5),
        (" 42 ", " 42 ", 42.0),
        ("1e", "1e", 1.0),
        ("0x10", "0x10", 0.0),
        ("-.5", "-.5", -0.5),
    ],
)
def test_cast_real_spot_checks(db, text, value, expected):
    from repro.filter.counting import sqlite_cast_real

    assert sqlite_cast_real(text) == expected
    assert db.scalar("SELECT CAST(? AS REAL)", (value,)) == expected
