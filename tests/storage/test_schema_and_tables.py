"""Unit tests for the physical schema DDL and typed table accessors."""

import pytest

from repro.analysis import audit_database
from repro.errors import StorageError
from repro.mdv.provider import MetadataProvider
from repro.rdf.schema import objectglobe_schema
from repro.storage.engine import Database
from repro.storage.schema import (
    COMPARISON_TABLES,
    STORE_VERSION,
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


def user_version(db: Database) -> int:
    return int(db.scalar("PRAGMA user_version"))


class TestStoreVersion:
    def test_a_new_store_is_stamped(self, db):
        assert STORE_VERSION > 0
        assert user_version(db) == STORE_VERSION

    def test_a_reopened_store_keeps_its_stamp(self, schema, tmp_path):
        path = str(tmp_path / "mdp.db")
        with Database(path) as first:
            MetadataProvider(schema, db=first).register_document(
                figure1_document()
            )
        with Database(path) as db:
            mdp = MetadataProvider(schema, db=db)
            assert user_version(db) == STORE_VERSION
            assert mdp.document_count() == 1
            snapshot = mdp.snapshot()
            assert user_version(snapshot) == STORE_VERSION
            assert MetadataProvider(schema, db=snapshot).document_count() == 1

    def test_a_store_of_the_unversioned_layout_is_refused(
        self, schema, tmp_path
    ):
        """Stores written before the stamp are version 0 and kept each
        document's RDF/XML text; opening one names both versions."""
        path = str(tmp_path / "old.db")
        with Database(path) as old:
            old.executescript(
                "CREATE TABLE documents (uri TEXT PRIMARY KEY, "
                "xml TEXT NOT NULL, registered_at INTEGER NOT NULL "
                "DEFAULT 0);"
                "INSERT INTO documents VALUES ('doc.rdf', '<rdf:RDF/>', 0);"
            )
        with Database(path) as db:
            message = (
                f"layout version 0, but this tree reads layout version "
                f"{STORE_VERSION}"
            )
            with pytest.raises(StorageError, match=message):
                create_all(db)
            with pytest.raises(StorageError, match=message):
                MetadataProvider(schema, db=db)
            assert user_version(db) == 0

    def test_a_store_of_layout_1_is_refused(self, schema, tmp_path):
        """Layout 1 kept ``outbox_messages`` WITHOUT ROWID, an overflow
        page per batch; the tables are the same, so only the stamp
        tells them apart."""
        path = str(tmp_path / "v1.db")
        with Database(path) as old:
            create_all(old)
            old.executescript("PRAGMA user_version = 1;")
        with Database(path) as db:
            with pytest.raises(StorageError, match="layout version 1, but"):
                MetadataProvider(schema, db=db)


class TestDocumentTable:
    def test_upsert_keeps_one_narrow_row_per_document(self, db):
        table = DocumentTable(db)
        table.upsert("d.rdf")
        table.upsert("d.rdf")
        table.upsert_many(["e.rdf", "d.rdf"])
        assert table.count() == 2
        assert table.exists("d.rdf")
        assert table.existing(["d.rdf", "x.rdf", "e.rdf"]) == {
            "d.rdf", "e.rdf",
        }
        columns = [
            row["name"]
            for row in db.query_all("PRAGMA table_info(documents)")
        ]
        assert columns == ["uri", "registered_at"]

    def test_delete_and_uris(self, db):
        table = DocumentTable(db)
        table.upsert("b.rdf")
        table.upsert("a.rdf")
        assert table.uris() == ["a.rdf", "b.rdf"]
        table.delete("a.rdf")
        assert table.uris() == ["b.rdf"]
        assert not table.exists("a.rdf")
        assert table.existing(["a.rdf"]) == set()


class TestResourceTable:
    def test_insert_and_lookups(self, db):
        DocumentTable(db).upsert("d.rdf")
        table = ResourceTable(db)
        table.insert_many(
            [("d.rdf#a", "C", "d.rdf"), ("d.rdf#b", "D", "d.rdf")]
        )
        assert table.class_of("d.rdf#a") == "C"
        assert table.document_of("d.rdf#b") == "d.rdf"
        assert table.owners_of(["d.rdf#a", "d.rdf#b", "d.rdf#c"]) == {
            "d.rdf#a": "d.rdf",
            "d.rdf#b": "d.rdf",
        }
        assert table.count() == 2

    def test_upsert_semantics(self, db):
        DocumentTable(db).upsert("d.rdf")
        table = ResourceTable(db)
        table.insert_many([("d.rdf#a", "C", "d.rdf")])
        table.insert_many([("d.rdf#a", "C2", "d.rdf")])
        assert table.class_of("d.rdf#a") == "C2"
        assert table.count() == 1

    def test_delete_many(self, db):
        DocumentTable(db).upsert("d.rdf")
        table = ResourceTable(db)
        table.insert_many([("d.rdf#a", "C", "d.rdf")])
        table.delete_many(["d.rdf#a", "d.rdf#missing"])
        assert table.count() == 0


class TestFilterDataTable:
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

    def test_delete_pairs(self, db):
        table = MaterializedTable(db)
        table.insert_pairs([(1, "d#a"), (1, "d#b"), (2, "d#a")])
        table.delete_pairs([(1, "d#a")])
        assert table.count() == 2
        assert not table.contains(1, "d#a")
        assert table.contains(2, "d#a")
