"""Unit tests for the persistent rule registry (paper, §3.3.2–3.3.4)."""

import pytest

from repro.errors import SubscriptionError
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry

from tests.conftest import PAPER_RULE


def decomposed(text, schema, named=None, producers=None):
    normalized = normalize_rule(parse_rule(text), schema, named)[0]
    return decompose_rule(normalized, schema, producers)


PATH_MEMORY = (
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64"
)
PATH_CPU = (
    "search CycleProvider c register c "
    "where c.serverInformation.cpu > 500"
)


class TestEnsureAtoms:
    def test_paper_example_counts(self, registry, schema, db):
        registry.register_subscription(
            "lmr", PAPER_RULE, decomposed(PAPER_RULE, schema)
        )
        assert registry.triggering_count() == 3
        assert registry.join_count() == 2
        assert registry.group_count() == 2

    def test_dedup_across_subscriptions(self, registry, schema):
        """Section 3.3.3: RuleA and the join group are shared."""
        registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        before = registry.atom_count()
        registration = registry.register_subscription(
            "lmr2", PATH_CPU, decomposed(PATH_CPU, schema)
        )
        # Class-only CycleProvider atom reused; 2 new atoms (cpu + join).
        assert registry.atom_count() == before + 2
        assert len(registration.created) == 2
        assert registration.reused_existing_atoms
        # Both joins share one rule group (C1/C2 of the paper).
        assert registry.group_count() == 1

    def test_identical_rule_twice_creates_nothing(self, registry, schema):
        registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        registration = registry.register_subscription(
            "lmr2", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        assert registration.created == []

    def test_duplicate_subscription_rejected(self, registry, schema):
        registry.register_subscription(
            "lmr", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        with pytest.raises(SubscriptionError):
            registry.register_subscription(
                "lmr", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
            )

    def test_no_duplicate_rule_texts(self, registry, schema, db):
        registry.register_subscription(
            "lmr", PAPER_RULE, decomposed(PAPER_RULE, schema)
        )
        total = db.scalar("SELECT COUNT(*) FROM atomic_rules")
        distinct = db.scalar("SELECT COUNT(DISTINCT rule_text) FROM atomic_rules")
        assert total == distinct

    def test_dedup_disabled_shares_nothing(self, db, schema):
        registry = RuleRegistry(db, deduplicate=False)
        registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        before = registry.atom_count()
        registration = registry.register_subscription(
            "lmr2", PATH_CPU, decomposed(PATH_CPU, schema)
        )
        assert registry.atom_count() == before + len(registration.all_rule_ids)


class TestTriggeringIndexRows:
    def test_oid_rule_lands_in_eq_table(self, registry, schema, db):
        rule = "search CycleProvider c register c where c = 'd.rdf#h'"
        registry.register_subscription("lmr", rule, decomposed(rule, schema))
        row = db.query_one("SELECT * FROM filter_rules_eq")
        assert row["property"] == "rdf#subject"
        assert row["value"] == "d.rdf#h"

    def test_contains_rule_lands_in_con_table(self, registry, schema, db):
        rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'de'"
        )
        registry.register_subscription("lmr", rule, decomposed(rule, schema))
        assert db.count("filter_rules_con") == 1

    def test_class_only_rule_lands_in_class_table(self, registry, schema, db):
        rule = "search CycleProvider c register c"
        registry.register_subscription("lmr", rule, decomposed(rule, schema))
        assert db.count("filter_rules_class") == 1

    def test_subclass_extension_rows(self, db, rich_schema):
        registry = RuleRegistry(db)
        rule = "search Provider p register p"
        registry.register_subscription(
            "lmr", rule, decomposed(rule, rich_schema)
        )
        rows = db.query_all("SELECT class FROM filter_rules_class ORDER BY class")
        assert [r["class"] for r in rows] == [
            "CycleProvider",
            "DataProvider",
            "Provider",
        ]

    def test_each_comparison_operator_routed(self, registry, schema, db):
        operators = {
            "<": "filter_rules_lt",
            "<=": "filter_rules_le",
            ">": "filter_rules_gt",
            ">=": "filter_rules_ge",
        }
        for index, (op, table) in enumerate(operators.items()):
            rule = (
                f"search ServerInformation s register s "
                f"where s.memory {op} {index}"
            )
            registry.register_subscription(
                f"lmr{index}", rule, decomposed(rule, schema)
            )
            assert db.count(table) == 1, table


class TestDependencies:
    def test_dependency_rows_carry_group(self, registry, schema, db):
        registry.register_subscription(
            "lmr", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        rows = db.query_all("SELECT * FROM rule_dependencies")
        assert len(rows) == 2  # left + right input of the join rule
        assert all(r["group_id"] is not None for r in rows)

    def test_graph_is_acyclic(self, registry, schema, db):
        from repro.rules.graph import DependencyGraph

        registry.register_subscription(
            "lmr", PAPER_RULE, decomposed(PAPER_RULE, schema)
        )
        graph = DependencyGraph.load(db)
        assert graph.is_acyclic()
        assert graph.longest_path_length() == 2


class TestUnsubscribe:
    def test_full_cleanup(self, registry, schema, db):
        registry.register_subscription(
            "lmr", PAPER_RULE, decomposed(PAPER_RULE, schema)
        )
        end_rule = registry.subscriptions_of("lmr")[0].end_rule
        removed = registry.unsubscribe("lmr", PAPER_RULE)
        assert len(removed) == 5
        assert removed[0] == end_rule  # dependents go before their inputs
        assert registry.atom_count() == 0
        assert db.count("rule_dependencies") == 0
        assert db.count("filter_rules_con") == 0
        assert db.count("subscription_rules") == 0

    def test_shared_atoms_survive(self, registry, schema):
        registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        registry.register_subscription(
            "lmr2", PATH_CPU, decomposed(PATH_CPU, schema)
        )
        registry.unsubscribe("lmr2", PATH_CPU)
        # lmr1's three atoms remain, lmr2's private two are gone.
        assert registry.atom_count() == 3
        assert registry.subscriptions_of("lmr1")

    def test_unknown_unsubscribe_rejected(self, registry, schema):
        with pytest.raises(SubscriptionError):
            registry.unsubscribe("lmr", "search CycleProvider c register c")


class TestLookups:
    def test_end_rule_ids_and_subscriptions_for(self, registry, schema):
        first = registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        second = registry.register_subscription(
            "lmr2", PATH_CPU, decomposed(PATH_CPU, schema)
        )
        assert registry.end_rule_ids() == {first.end_rule, second.end_rule}
        subs = registry.subscriptions_for({first.end_rule})
        assert [s.subscriber for s in subs] == ["lmr1"]

    def test_shared_end_rule_routes_to_both(self, registry, schema):
        first = registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        registry.register_subscription(
            "lmr2", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        subs = registry.subscriptions_for({first.end_rule})
        assert sorted(s.subscriber for s in subs) == ["lmr1", "lmr2"]


    def test_end_rules_among_picks_the_end_rules(self, registry, schema):
        first = registry.register_subscription(
            "lmr1", PATH_MEMORY, decomposed(PATH_MEMORY, schema)
        )
        second = registry.register_subscription(
            "lmr2", PATH_CPU, decomposed(PATH_CPU, schema)
        )
        every_atom = set(first.all_rule_ids) | set(second.all_rule_ids)
        assert len(every_atom) == 5
        assert registry.end_rules_among(every_atom | {999}) == {
            first.end_rule, second.end_rule
        }
        assert registry.end_rules_among({first.end_rule}) == {first.end_rule}
        assert registry.end_rules_among(set()) == set()

    def test_subscribers_lists_every_name_once_in_order(
        self, registry, schema
    ):
        assert registry.subscribers() == []
        named = "search CycleProvider c register c"
        registry.register_named_rule("N", named, decomposed(named, schema))
        for subscriber in ("lmr2", "lmr10", "lmr1"):
            for rule in (PATH_MEMORY, PATH_CPU):
                registry.register_subscription(
                    subscriber, rule, decomposed(rule, schema)
                )
        assert registry.subscribers() == ["lmr1", "lmr10", "lmr2", "~named~N"]
        registry.unsubscribe("lmr10", PATH_MEMORY)
        registry.unsubscribe("lmr10", PATH_CPU)
        assert registry.subscribers() == ["lmr1", "lmr2", "~named~N"]


class TestAtomReconstruction:
    def test_roundtrip_triggering(self, registry, schema):
        rule = "search ServerInformation s register s where s.memory > 64"
        registration = registry.register_subscription(
            "lmr", rule, decomposed(rule, schema)
        )
        node = registry.load_atom(registration.end_rule)
        registry._node_cache.clear()
        reloaded = registry.load_atom(registration.end_rule)
        assert reloaded.key == node.key

    def test_roundtrip_join_tree(self, registry, schema):
        registration = registry.register_subscription(
            "lmr", PAPER_RULE, decomposed(PAPER_RULE, schema)
        )
        registry._node_cache.clear()
        node = registry.load_atom(registration.end_rule)
        assert node.key == decomposed(PAPER_RULE, schema).end.key

    def test_missing_atom_raises(self, registry):
        with pytest.raises(SubscriptionError):
            registry.load_atom(999)


class TestNamedRules:
    def test_register_and_lookup(self, registry, schema):
        rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        registration = registry.register_named_rule(
            "PassauHosts", rule, decomposed(rule, schema)
        )
        assert registry.named_rule("PassauHosts") == (
            registration.end_rule,
            "CycleProvider",
        )
        assert registry.named_rule_types() == {"PassauHosts": "CycleProvider"}

    def test_duplicate_name_rejected(self, registry, schema):
        rule = "search CycleProvider c register c"
        registry.register_named_rule("N", rule, decomposed(rule, schema))
        with pytest.raises(SubscriptionError):
            registry.register_named_rule("N", rule, decomposed(rule, schema))

    def test_named_producer_embedding(self, registry, schema):
        base_rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        registry.register_named_rule(
            "PassauHosts", base_rule, decomposed(base_rule, schema)
        )
        producers = registry.named_producers()
        derived = decomposed(
            "search PassauHosts p register p where p.serverPort = 80",
            schema,
            named={"PassauHosts": "CycleProvider"},
            producers=producers,
        )
        registration = registry.register_subscription(
            "lmr", "derived", derived
        )
        # The named rule's atom is shared, not re-created.
        created_keys = {atom.key for __, atom in registration.created}
        assert producers["PassauHosts"].key not in created_keys


class TestNamedRuleSharing:
    def test_unsubscribe_keeps_named_rule_atoms(self, registry, schema):
        """Atoms shared with a named rule survive subscriber churn."""
        base_rule = (
            "search CycleProvider c register c "
            "where c.serverHost contains 'passau'"
        )
        registry.register_named_rule(
            "PassauHosts", base_rule, decomposed(base_rule, schema)
        )
        atoms_after_named = registry.atom_count()

        derived = decomposed(
            "search PassauHosts p register p where p.serverPort = 80",
            schema,
            named={"PassauHosts": "CycleProvider"},
            producers=registry.named_producers(),
        )
        registry.register_subscription("lmr", "derived-rule", derived)
        registry.unsubscribe("lmr", "derived-rule")
        # The named rule's own atom is still there; the derived-only
        # atoms are gone.
        assert registry.atom_count() == atoms_after_named
        assert registry.named_rule("PassauHosts") is not None


class TestBulkRegisterTriggering:
    """The bench-scale bulk loader must be indistinguishable from the
    normal registration path at the storage layer."""

    def _mirror_tables(self, db):
        """Every table the triggering path writes, as sorted row sets."""
        tables = [
            "atomic_rules", "filter_rules_class", "filter_rules_eq",
            "filter_rules_con", "filter_rules_gt", "subscriptions",
            "subscription_rules",
        ]
        return {
            table: sorted(
                tuple(row) for row in db.query_all(f"SELECT * FROM {table}")
            )
            for table in tables
        }

    def _atoms(self, registry, schema, texts):
        for text in texts:
            node = decomposed(text, schema)
            yield text, node.end

    RULES = [
        "search CycleProvider c register c",
        "search CycleProvider c register c where c.synthValue > 5",
        "search CycleProvider c register c "
        "where c.serverHost contains 'passau'",
        "search CycleProvider c register c "
        "where c.serverHost = 'a.uni-passau.de'",
    ]

    def test_equivalent_to_normal_path(self, db, schema):
        registry = RuleRegistry(db)
        created = registry.bulk_register_triggering(
            "bulk", self._atoms(registry, schema, self.RULES)
        )
        assert len(created) == len(self.RULES)
        bulk_rows = self._mirror_tables(db)
        bulk_version = registry.mutation_version

        from repro.storage.engine import Database
        from repro.storage.schema import create_all

        other = Database()
        create_all(other)
        normal = RuleRegistry(other)
        for text in self.RULES:
            normal.register_subscription("bulk", text, decomposed(text, schema))
        assert self._mirror_tables(other) == bulk_rows
        assert normal.mutation_version == bulk_version
        other.close()

    def test_mutation_log_covers_bulk_inserts(self, db, schema):
        registry = RuleRegistry(db)
        before = registry.mutation_version
        created = registry.bulk_register_triggering(
            "bulk", self._atoms(registry, schema, self.RULES)
        )
        assert registry.mutation_version == before + len(created)
        versions = [m.version for m in registry.mutation_log]
        assert versions == sorted(versions)
        logged = {m.rule_id for m in registry.mutation_log}
        assert {rule_id for rule_id, __ in created} <= logged

    def test_dedupe_shares_rules(self, db, schema):
        registry = RuleRegistry(db)
        text = self.RULES[1]
        created = registry.bulk_register_triggering(
            "a", self._atoms(registry, schema, [text])
        )
        again = registry.bulk_register_triggering(
            "b", self._atoms(registry, schema, [text])
        )
        assert len(created) == 1 and again == []
        assert db.count("atomic_rules") == 1
        assert db.count("subscriptions") == 2

    def test_rejects_nothing_but_triggering(self, db, schema):
        registry = RuleRegistry(db)
        node = decomposed(PATH_MEMORY, schema)
        from repro.rules.atoms import TriggeringAtom

        assert not isinstance(node.end, TriggeringAtom)
