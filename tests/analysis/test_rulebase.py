"""Whole-registry optimizer tests: canonical forms, covering, audit.

Covers the ``repro.analysis.rulebase`` module end to end on small,
hand-checkable registries; the 100k-rule scalability contract lives in
the ``analysis`` bench figure, not here.
"""

from __future__ import annotations

import pytest

from repro.analysis.rulebase import (
    CanonicalRule,
    audit_registry,
    canonical_hash,
    canonicalize,
    find_covering_edges,
    load_registry_atoms,
)
from repro.rdf.schema import objectglobe_schema
from repro.rules.decompose import decompose_rule
from repro.rules.atoms import AtomNode
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from tests.conftest import PAPER_RULE, register_rule

SCHEMA = objectglobe_schema()


def _end(text: str) -> AtomNode:
    rule = parse_rule(text)
    normalized = normalize_rule(rule, SCHEMA)
    assert len(normalized) == 1
    return decompose_rule(normalized[0], SCHEMA).end


def _rule(where: str) -> str:
    return f"search CycleProvider c register c where {where}"


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------
class TestCanonicalize:
    def test_numeric_spelling_unified(self):
        assert canonical_hash(_end(_rule("c.synthValue > 5"))) == (
            canonical_hash(_end(_rule("c.synthValue > 5.0")))
        )

    def test_conjunct_order_irrelevant(self):
        left = _end(_rule("c.synthValue > 5 and c.serverPort > 3"))
        right = _end(_rule("c.serverPort > 3 and c.synthValue > 5"))
        assert canonicalize(left).key == canonicalize(right).key

    def test_redundant_bound_dropped(self):
        loose = _end(_rule("c.synthValue > 5 and c.synthValue > 3"))
        tight = _end(_rule("c.synthValue > 5"))
        assert canonicalize(loose).key == canonicalize(tight).key

    def test_subsumed_needle_dropped(self):
        both = _end(
            _rule(
                "c.serverHost contains 'passau' and c.serverHost "
                "contains 'pas'"
            )
        )
        one = _end(_rule("c.serverHost contains 'passau'"))
        assert canonicalize(both).key == canonicalize(one).key

    def test_distinct_rules_stay_distinct(self):
        assert canonical_hash(_end(_rule("c.synthValue > 5"))) != (
            canonical_hash(_end(_rule("c.synthValue > 6")))
        )
        assert canonical_hash(_end(_rule("c.synthValue > 5"))) != (
            canonical_hash(_end(_rule("c.synthValue >= 5")))
        )

    def test_idempotent(self):
        for text in (
            PAPER_RULE,
            _rule("c.synthValue > 5 and c.synthValue > 3"),
            _rule("c.serverHost contains 'passau'"),
        ):
            first = canonicalize(_end(text))
            again = canonicalize(first.node)
            assert again.key == first.key

    def test_canonical_rule_key_and_hash(self):
        canon = canonicalize(_end(_rule("c.synthValue > 5")))
        assert isinstance(canon, CanonicalRule)
        assert canon.satisfiable
        assert len(canon.hash) == 64

    def test_unsat_needs_schema(self):
        end = _end(_rule("c.serverPort < 5 and c.serverPort > 9"))
        # Without a schema the prop could be multivalued: one value
        # below 5 and another above 9 can coexist, so this must stay
        # satisfiable (conservative).
        assert canonicalize(end).satisfiable
        canon = canonicalize(end, SCHEMA)
        assert not canon.satisfiable
        assert canon.key == "UNSAT[CycleProvider]"

    def test_unsat_spellings_share_one_key(self):
        first = _end(_rule("c.serverPort < 5 and c.serverPort > 9"))
        second = _end(_rule("c.serverPort < 1 and c.serverPort > 2"))
        assert canonicalize(first, SCHEMA).key == (
            canonicalize(second, SCHEMA).key
        )

    def test_single_valued_interval_merge_needs_schema(self):
        # < and > on one single-valued prop collapse to an interval
        # only when the schema vouches for single-valuedness.
        end = _end(_rule("c.serverPort > 2 and c.serverPort > 4"))
        assert canonicalize(end, SCHEMA).key == (
            canonicalize(_end(_rule("c.serverPort > 4")), SCHEMA).key
        )


# ----------------------------------------------------------------------
# Bulk loading
# ----------------------------------------------------------------------
class TestLoadRegistryAtoms:
    def test_roundtrip_matches_load_atom(self, db, registry, engine, schema):
        register_rule(engine, registry, schema, PAPER_RULE)
        register_rule(
            engine, registry, schema, _rule("c.synthValue > 5"), "other"
        )
        nodes = load_registry_atoms(db)
        assert nodes
        for rule_id, node in nodes.items():
            assert node.key == registry.load_atom(rule_id).key

    def test_empty_registry(self, db):
        assert load_registry_atoms(db) == {}


# ----------------------------------------------------------------------
# Covering graph
# ----------------------------------------------------------------------
class TestCoveringEdges:
    def test_comparison_chain_immediate_predecessor(self):
        reps = [
            (1, _end(_rule("c.synthValue > 3"))),
            (2, _end(_rule("c.synthValue > 5"))),
            (3, _end(_rule("c.synthValue > 9"))),
        ]
        edges = {(e.covered, e.covering) for e in find_covering_edges(reps)}
        # One edge per covered rule, to its immediate coverer — the
        # transitive 3<-1 edge is implied, not materialized.
        assert edges == {(2, 1), (3, 2)}

    def test_needle_substring_coverage(self):
        reps = [
            (1, _end(_rule("c.serverHost contains 'pas'"))),
            (2, _end(_rule("c.serverHost contains 'passau'"))),
        ]
        edges = {(e.covered, e.covering) for e in find_covering_edges(reps)}
        assert edges == {(2, 1)}

    def test_unrelated_rules_no_edges(self):
        reps = [
            (1, _end(_rule("c.synthValue > 5"))),
            (2, _end(_rule("c.serverHost contains 'passau'"))),
        ]
        assert find_covering_edges(reps) == []

    def test_multi_atom_context_coverage(self):
        # Same second conjunct, one loosened bound: covered by the
        # looser spelling.
        reps = [
            (
                1,
                _end(
                    _rule(
                        "c.synthValue > 3 and c.serverHost contains 'pas'"
                    )
                ),
            ),
            (
                2,
                _end(
                    _rule(
                        "c.synthValue > 5 and c.serverHost contains 'pas'"
                    )
                ),
            ),
        ]
        edges = {(e.covered, e.covering) for e in find_covering_edges(reps)}
        assert (2, 1) in edges


# ----------------------------------------------------------------------
# Whole-registry audit
# ----------------------------------------------------------------------
def _codes(audit) -> set[str]:
    return {d.code for d in audit.report.diagnostics}


class TestAuditRegistry:
    def test_empty_database(self, db):
        audit = audit_registry(db)
        assert audit.end_rules == 0
        assert audit.covering_edges == []
        # Advisor recommendations are always emitted (MDV054 infos).
        assert _codes(audit) == {"MDV054"}
        assert audit.report.exit_code() == 0

    def test_duplicate_subscription_reported(
        self, db, registry, engine, schema
    ):
        register_rule(engine, registry, schema, PAPER_RULE, "a")
        register_rule(engine, registry, schema, PAPER_RULE, "b")
        audit = audit_registry(db)
        assert "MDV050" in _codes(audit)
        assert audit.duplicate_subscription_groups

    def test_equivalent_spellings_grouped(self, db, registry, engine, schema):
        first = register_rule(
            engine, registry, schema, _rule("c.synthValue > 5"), "a"
        )
        # Different stored atoms (a redundant extra bound), same
        # canonical form — the atom-level dedupe can't see this one.
        second = register_rule(
            engine,
            registry,
            schema,
            _rule("c.synthValue > 5.0 and c.synthValue > -1"),
            "b",
        )
        audit = audit_registry(db)
        assert "MDV051" in _codes(audit)
        groups = audit.to_dict()["equivalence"]["equivalent_groups"]
        assert sorted([first, second]) in groups

    def test_shadowed_rule_reported(self, db, registry, engine, schema):
        loose = register_rule(
            engine, registry, schema, _rule("c.synthValue > 3"), "a"
        )
        tight = register_rule(
            engine, registry, schema, _rule("c.synthValue > 5"), "b"
        )
        audit = audit_registry(db)
        assert "MDV052" in _codes(audit)
        pairs = {(e.covered, e.covering) for e in audit.covering_edges}
        assert (tight, loose) in pairs

    def test_dead_rule_needs_schema(self, db, registry, engine, schema):
        register_rule(
            engine,
            registry,
            schema,
            _rule("c.serverPort > 9 and c.serverPort < 5"),
            "a",
        )
        assert "MDV053" not in _codes(audit_registry(db))
        audit = audit_registry(db, schema)
        assert "MDV053" in _codes(audit)
        assert audit.dead_rules

    def test_payload_shape(self, db, registry, engine, schema):
        register_rule(engine, registry, schema, PAPER_RULE)
        payload = audit_registry(db, schema).to_dict()
        assert payload["generated_by"] == "repro.analysis.rulebase"
        assert set(payload) == {
            "generated_by",
            "registry",
            "equivalence",
            "subsumption",
            "advisor",
            "diagnostics",
        }
        assert payload["registry"]["end_rules"] == 1
        assert set(payload["advisor"]) == {
            "join_evaluation",
            "triggering",
            "stats",
        }

    def test_metrics_recorded(self, db, registry, engine, schema):
        from repro.obs.metrics import default_registry

        register_rule(engine, registry, schema, PAPER_RULE)
        audit_registry(db)
        counters = default_registry().counter_values()
        assert counters.get("analysis.audits") == 1
        assert counters.get("analysis.rules_audited") == 1


# ----------------------------------------------------------------------
# Index advisor
# ----------------------------------------------------------------------
class TestAdvisor:
    def test_small_base_recommends_scan(self, db, registry, engine, schema):
        register_rule(engine, registry, schema, PAPER_RULE)
        advice = audit_registry(db).advice
        assert advice.join_evaluation == "scan"

    def test_contains_needles_counted_by_length(
        self, db, registry, engine, schema
    ):
        from repro.workload.registry import build_registry

        # fig13 mix is half CON: 160 rules -> 80 contains rules, all
        # with 8-letter needles; one 2-letter needle joins them.
        build_registry(db, 160, mix="fig13", schema=schema)
        register_rule(
            engine, registry, schema,
            "search CycleProvider c register c "
            "where c.serverHost contains 'de'",
        )
        stats = audit_registry(db).advice.stats
        assert stats["contains_rules"] == 81
        assert stats["indexable_contains_rules"] == 80
        assert stats["short_needle_contains_rules"] == 1

    def test_small_base_recommends_sql_triggering(
        self, db, registry, engine, schema
    ):
        register_rule(engine, registry, schema, PAPER_RULE)
        assert audit_registry(db).advice.triggering == "sql"

    def test_large_base_recommends_counting(self, db, schema, monkeypatch):
        from repro.analysis import rulebase
        from repro.workload.registry import build_registry

        # Building 10k real rules is slow; lower the threshold instead —
        # the recommendation logic is a comparison, not the build.
        monkeypatch.setattr(rulebase, "COUNTING_RULE_THRESHOLD", 100)
        build_registry(db, 160, mix="fig13", schema=schema)
        assert audit_registry(db).advice.triggering == "counting"


@pytest.mark.parametrize("count,mix", [(10, "comp"), (12, "uniform")])
def test_build_registry_counts(db, schema, count, mix):
    from repro.workload.registry import build_registry

    build_registry(db, count, mix=mix, schema=schema)
    audit = audit_registry(db)
    assert audit.end_rules == count
