"""Typed accessors for the document/atom side of the store.

The *algorithmic* SQL — triggering-rule matching and join-rule group
evaluation — lives with the algorithm in :mod:`repro.filter`; the rule
catalogue lives in :mod:`repro.rules.registry`.  This module wraps the
bookkeeping tables (documents, resources, atoms, transient run tables)
so call sites stay declarative.
"""

from __future__ import annotations

import json
import time
from collections.abc import Iterable, Sequence

from repro.rdf.model import URIRef
from repro.storage.engine import Database

__all__ = [
    "AtomRow",
    "DocumentTable",
    "ResourceTable",
    "FilterDataTable",
    "FilterInputTable",
    "ResultObjectsTable",
    "MaterializedTable",
]

#: ``(uri_reference, class, property, value)`` — one FilterData row.
AtomRow = tuple[str, str, str, str]


class DocumentTable:
    """Access to the ``documents`` table (registered RDF documents)."""

    def __init__(self, db: Database):
        self._db = db

    def upsert(self, uri: str, xml: str) -> None:
        self.upsert_many([(uri, xml)])

    def upsert_many(self, rows: Iterable[tuple[str, str]]) -> None:
        """Insert or replace ``(uri, xml)`` rows in one statement."""
        # Registration timestamps are metadata, not control flow;
        # the lone sanctioned wall-clock read in the storage layer.
        now = int(time.time())  # mdv: allow(MDV062)
        self._db.executemany(
            "INSERT INTO documents (uri, xml, registered_at) "
            "VALUES (?, ?, ?) "
            "ON CONFLICT (uri) DO UPDATE SET xml = excluded.xml, "
            "registered_at = excluded.registered_at",
            ((uri, xml, now) for uri, xml in rows),
        )

    def get_xml(self, uri: str) -> str | None:
        return self._db.scalar("SELECT xml FROM documents WHERE uri = ?", (uri,))

    def exists(self, uri: str) -> bool:
        return self.get_xml(uri) is not None

    def delete(self, uri: str) -> None:
        self._db.execute("DELETE FROM documents WHERE uri = ?", (uri,))

    def uris(self) -> list[str]:
        rows = self._db.query_all("SELECT uri FROM documents ORDER BY uri")
        return [row["uri"] for row in rows]

    def count(self) -> int:
        return self._db.count("documents")


class ResourceTable:
    """Access to the ``resources`` table (resource → document mapping)."""

    def __init__(self, db: Database):
        self._db = db

    def insert_many(self, rows: Iterable[tuple[str, str, str]]) -> None:
        """Insert ``(uri_reference, class, document_uri)`` rows (upsert)."""
        self._db.executemany(
            "INSERT INTO resources (uri_reference, class, document_uri) "
            "VALUES (?, ?, ?) "
            "ON CONFLICT (uri_reference) DO UPDATE SET "
            "class = excluded.class, document_uri = excluded.document_uri",
            rows,
        )

    def delete_many(self, uris: Iterable[str]) -> None:
        self._db.executemany(
            "DELETE FROM resources WHERE uri_reference = ?",
            ((uri,) for uri in uris),
        )

    def class_of(self, uri: str) -> str | None:
        return self._db.scalar(
            "SELECT class FROM resources WHERE uri_reference = ?", (uri,)
        )

    def document_of(self, uri: str) -> str | None:
        return self._db.scalar(
            "SELECT document_uri FROM resources WHERE uri_reference = ?", (uri,)
        )

    def owners_of(self, uris: Iterable[str]) -> dict[str, str]:
        """Resource → owning document for those of ``uris`` that are
        stored; one statement however many are asked for."""
        rows = self._db.query_all(
            "SELECT uri_reference, document_uri FROM resources "
            "WHERE uri_reference IN (SELECT value FROM json_each(?))",
            (json.dumps(list(uris)),),
        )
        return {row["uri_reference"]: row["document_uri"] for row in rows}

    def by_document(self, document_uri: str) -> list[URIRef]:
        rows = self._db.query_all(
            "SELECT uri_reference FROM resources WHERE document_uri = ? "
            "ORDER BY uri_reference",
            (document_uri,),
        )
        return [URIRef(row["uri_reference"]) for row in rows]

    def count(self) -> int:
        return self._db.count("resources")


class FilterDataTable:
    """Access to ``filter_data`` — the persistent atom store (Figure 4)."""

    def __init__(self, db: Database):
        self._db = db

    def insert_atoms(self, rows: Iterable[AtomRow]) -> None:
        self._db.executemany(
            "INSERT INTO filter_data (uri_reference, class, property, value) "
            "VALUES (?, ?, ?, ?)",
            rows,
        )

    def delete_for(self, uris: Iterable[str]) -> None:
        """Remove every atom of the given subject resources."""
        self._db.executemany(
            "DELETE FROM filter_data WHERE uri_reference = ?",
            ((uri,) for uri in uris),
        )

    def atoms_of(self, uri: str) -> list[AtomRow]:
        rows = self._db.query_all(
            "SELECT uri_reference, class, property, value "
            "FROM filter_data WHERE uri_reference = ? "
            "ORDER BY property, value",
            (uri,),
        )
        return [tuple(row) for row in rows]

    def count(self) -> int:
        return self._db.count("filter_data")


class FilterInputTable:
    """Access to ``filter_input`` — the atoms one filter run consumes.

    A separate table (rather than a batch column on ``filter_data``)
    because the update algorithm's first pass feeds *old* atom versions
    that are no longer part of the current database state.
    """

    def __init__(self, db: Database):
        self._db = db

    def clear(self) -> None:
        self._db.execute("DELETE FROM filter_input")

    def load(self, rows: Iterable[AtomRow]) -> None:
        self._db.executemany(
            "INSERT INTO filter_input (uri_reference, class, property, value) "
            "VALUES (?, ?, ?, ?)",
            rows,
        )

    def count(self) -> int:
        return self._db.count("filter_input")


class ResultObjectsTable:
    """Access to ``result_objects`` — per-iteration filter results (Fig. 9)."""

    def __init__(self, db: Database):
        self._db = db

    def clear(self) -> None:
        self._db.execute("DELETE FROM result_objects")

    def insert(self, uri: str, rule_id: int, iteration: int) -> None:
        self._db.execute(
            "INSERT OR IGNORE INTO result_objects "
            "(uri_reference, rule_id, iteration) VALUES (?, ?, ?)",
            (uri, rule_id, iteration),
        )

    def rows_at(self, iteration: int) -> list[tuple[str, int]]:
        rows = self._db.query_all(
            "SELECT uri_reference, rule_id FROM result_objects "
            "WHERE iteration = ? ORDER BY rule_id, uri_reference",
            (iteration,),
        )
        return [(row["uri_reference"], row["rule_id"]) for row in rows]

    def count_at(self, iteration: int) -> int:
        return self._db.count("result_objects", "iteration = ?", (iteration,))

    def all_pairs(self) -> set[tuple[str, int]]:
        rows = self._db.query_all(
            "SELECT DISTINCT uri_reference, rule_id FROM result_objects"
        )
        return {(row["uri_reference"], row["rule_id"]) for row in rows}


class MaterializedTable:
    """Access to ``materialized`` — per-atomic-rule materialized results."""

    def __init__(self, db: Database):
        self._db = db

    def insert_pairs(self, pairs: Iterable[tuple[int, str]]) -> None:
        """Insert ``(rule_id, uri_reference)`` pairs, ignoring duplicates."""
        self._db.executemany(
            "INSERT OR IGNORE INTO materialized (rule_id, uri_reference) "
            "VALUES (?, ?)",
            pairs,
        )

    def delete_pairs(self, pairs: Iterable[tuple[int, str]]) -> None:
        self._db.executemany(
            "DELETE FROM materialized WHERE rule_id = ? AND uri_reference = ?",
            pairs,
        )

    def delete_rules(self, rule_ids: Sequence[int]) -> None:
        self._db.executemany(
            "DELETE FROM materialized WHERE rule_id = ?",
            ((rule_id,) for rule_id in rule_ids),
        )

    def delete_uris(self, uris: Iterable[str]) -> None:
        """Remove every materialized row of the given resources."""
        self._db.executemany(
            "DELETE FROM materialized WHERE uri_reference = ?",
            ((uri,) for uri in uris),
        )

    def uris_for(self, rule_id: int) -> list[URIRef]:
        rows = self._db.query_all(
            "SELECT uri_reference FROM materialized WHERE rule_id = ? "
            "ORDER BY uri_reference",
            (rule_id,),
        )
        return [URIRef(row["uri_reference"]) for row in rows]

    def contains(self, rule_id: int, uri: str) -> bool:
        return (
            self._db.query_one(
                "SELECT 1 FROM materialized WHERE rule_id = ? AND "
                "uri_reference = ?",
                (rule_id, uri),
            )
            is not None
        )

    def count(self) -> int:
        return self._db.count("materialized")
