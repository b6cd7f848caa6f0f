"""Unit tests for the physical schema DDL and typed table accessors."""

import pytest

from repro.analysis import audit_database
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database
from repro.storage.schema import (
    COMPARISON_TABLES,
    TRIGGER_TABLES,
    create_all,
    filter_rules_table,
)
from repro.storage.tables import (
    DocumentTable,
    FilterDataTable,
    FilterInputTable,
    MaterializedTable,
    ResourceTable,
    ResultObjectsTable,
)

from tests.conftest import figure1_document

PATH_RULE = (
    "search CycleProvider c register c where c.serverInformation.memory > 64"
)


def index_names(db: Database) -> set[str]:
    rows = db.query_all("SELECT name FROM sqlite_master WHERE type = 'index'")
    return {row["name"] for row in rows}


class TestDDL:
    def test_all_tables_created(self, db):
        names = set(db.table_names())
        expected = {
            "documents",
            "resources",
            "filter_data",
            "filter_input",
            "atomic_rules",
            "rule_dependencies",
            "rule_groups",
            "result_objects",
            "materialized",
            "subscriptions",
            "subscription_rules",
            "named_rules",
            *COMPARISON_TABLES.values(),
            "filter_rules_class",
        }
        assert expected <= names

    def test_create_all_idempotent(self, db):
        create_all(db)
        create_all(db)

    def test_filter_rules_table_mapping(self):
        assert filter_rules_table(">") == "filter_rules_gt"
        assert filter_rules_table("contains") == "filter_rules_con"
        with pytest.raises(ValueError):
            filter_rules_table("between")

    def test_trigger_tables_inventory(self):
        assert "filter_rules_class" in TRIGGER_TABLES
        assert len(TRIGGER_TABLES) == 8  # class + 7 comparison operators

    def test_core_indexes_exist(self, db):
        names = index_names(db)
        assert "idx_fd_class_prop_value" in names
        assert "idx_ar_group" in names
        assert "idx_rd_source_group" in names
        assert "idx_rd_source" not in names

    def test_an_older_store_loses_the_superseded_index(self, tmp_path):
        """A store created while ``idx_rd_source(source_rule)`` was in the
        DDL keeps it under ``CREATE INDEX IF NOT EXISTS`` alone: a write
        per join-rule insert that no query reads."""
        path = str(tmp_path / "mdp.db")
        old = Database(path)
        (subscription,) = MetadataProvider(
            objectglobe_schema(), db=old
        ).subscribe("lmr", PATH_RULE)
        old.executescript(
            "DROP INDEX idx_rd_source_group;"
            "CREATE INDEX idx_rd_source ON rule_dependencies(source_rule);"
        )
        old.close()

        with Database(path) as db, Database() as fresh:
            mdp = MetadataProvider(objectglobe_schema(), db=db)
            create_all(fresh)
            assert index_names(db) == index_names(fresh)
            assert audit_database(db).is_clean
            mdp.engine.process_insertions(list(figure1_document()))
            assert mdp.engine.current_matches(subscription.end_rule) == [
                "doc.rdf#host"
            ]


class TestDocumentTable:
    def test_upsert_and_get(self, db):
        table = DocumentTable(db)
        table.upsert("d.rdf", "<xml1/>")
        table.upsert("d.rdf", "<xml2/>")
        assert table.get_xml("d.rdf") == "<xml2/>"
        assert table.count() == 1
        assert table.exists("d.rdf")

    def test_delete_and_uris(self, db):
        table = DocumentTable(db)
        table.upsert("b.rdf", "<b/>")
        table.upsert("a.rdf", "<a/>")
        assert table.uris() == ["a.rdf", "b.rdf"]
        table.delete("a.rdf")
        assert table.uris() == ["b.rdf"]
        assert not table.exists("a.rdf")


class TestResourceTable:
    def test_insert_and_lookups(self, db):
        DocumentTable(db).upsert("d.rdf", "<x/>")
        table = ResourceTable(db)
        table.insert_many(
            [("d.rdf#a", "C", "d.rdf"), ("d.rdf#b", "D", "d.rdf")]
        )
        assert table.class_of("d.rdf#a") == "C"
        assert table.document_of("d.rdf#b") == "d.rdf"
        assert [str(u) for u in table.by_document("d.rdf")] == [
            "d.rdf#a",
            "d.rdf#b",
        ]
        assert table.count() == 2

    def test_upsert_semantics(self, db):
        DocumentTable(db).upsert("d.rdf", "<x/>")
        table = ResourceTable(db)
        table.insert_many([("d.rdf#a", "C", "d.rdf")])
        table.insert_many([("d.rdf#a", "C2", "d.rdf")])
        assert table.class_of("d.rdf#a") == "C2"
        assert table.count() == 1

    def test_delete_many(self, db):
        DocumentTable(db).upsert("d.rdf", "<x/>")
        table = ResourceTable(db)
        table.insert_many([("d.rdf#a", "C", "d.rdf")])
        table.delete_many(["d.rdf#a", "d.rdf#missing"])
        assert table.count() == 0


class TestFilterDataTable:
    def test_insert_and_atoms_of(self, db):
        table = FilterDataTable(db)
        table.insert_atoms(
            [
                ("d#a", "C", "p", "1"),
                ("d#a", "C", "q", "2"),
                ("d#b", "C", "p", "3"),
            ]
        )
        assert table.count() == 3
        assert table.atoms_of("d#a") == [
            ("d#a", "C", "p", "1"),
            ("d#a", "C", "q", "2"),
        ]

    def test_delete_for(self, db):
        table = FilterDataTable(db)
        table.insert_atoms([("d#a", "C", "p", "1"), ("d#b", "C", "p", "2")])
        table.delete_for(["d#a"])
        assert table.count() == 1


class TestTransientTables:
    def test_filter_input_clear_and_load(self, db):
        table = FilterInputTable(db)
        table.load([("d#a", "C", "p", "1")])
        assert table.count() == 1
        table.clear()
        assert table.count() == 0

    def test_result_objects(self, db):
        table = ResultObjectsTable(db)
        table.insert("d#a", 1, 0)
        table.insert("d#a", 1, 0)  # duplicate ignored
        table.insert("d#a", 2, 1)
        assert table.rows_at(0) == [("d#a", 1)]
        assert table.count_at(1) == 1
        assert table.all_pairs() == {("d#a", 1), ("d#a", 2)}
        table.clear()
        assert table.all_pairs() == set()


class TestMaterializedTable:
    def test_insert_and_query(self, db):
        table = MaterializedTable(db)
        table.insert_pairs([(1, "d#a"), (1, "d#a"), (1, "d#b")])
        assert [str(u) for u in table.uris_for(1)] == ["d#a", "d#b"]
        assert table.contains(1, "d#a")
        assert not table.contains(2, "d#a")
        assert table.count() == 2

    def test_delete_pairs_and_rules(self, db):
        table = MaterializedTable(db)
        table.insert_pairs([(1, "d#a"), (1, "d#b"), (2, "d#a")])
        table.delete_pairs([(1, "d#a")])
        assert table.count() == 2
        table.delete_rules([1])
        assert table.count() == 1
