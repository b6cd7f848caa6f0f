"""Typed accessors for the document/atom side of the store.

The *algorithmic* SQL — triggering-rule matching and join-rule group
evaluation — lives with the algorithm in :mod:`repro.filter`; the rule
catalogue lives in :mod:`repro.rules.registry`.  This module wraps the
bookkeeping tables (documents, resources, atoms, transient run tables)
so call sites stay declarative, and rebuilds stored documents from their
atoms (:class:`DocumentLoader`).
"""

from __future__ import annotations

import json
import time
from collections.abc import Callable, Iterable, Sequence
from operator import itemgetter

from repro.errors import UnknownPropertyError
from repro.rdf.model import Document, Literal, Resource, URIRef, Value
from repro.rdf.namespaces import RDF_SUBJECT
from repro.rdf.schema import PropertyKind, Schema
from repro.storage.engine import Database

__all__ = [
    "AtomRow",
    "DocumentLoader",
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
    """Access to the ``documents`` table: one row per live document.

    A document's content is its resources' ``filter_data`` rows (see
    :class:`DocumentLoader`); this row only says that the document
    exists — an empty one too — and when it was last registered.
    """

    def __init__(self, db: Database):
        self._db = db

    def upsert(self, uri: str) -> None:
        self.upsert_many([uri])

    def upsert_many(self, uris: Iterable[str]) -> None:
        """Insert or re-stamp the rows of ``uris`` in one statement."""
        # Registration timestamps are metadata, not control flow;
        # the lone sanctioned wall-clock read in the storage layer.
        now = int(time.time())  # mdv: allow(MDV062)
        self._db.executemany(
            "INSERT INTO documents (uri, registered_at) VALUES (?, ?) "
            "ON CONFLICT (uri) DO UPDATE SET "
            "registered_at = excluded.registered_at",
            ((uri, now) for uri in uris),
        )

    def exists(self, uri: str) -> bool:
        return uri in self.existing([uri])

    def existing(self, uris: Iterable[str]) -> set[str]:
        """Those of ``uris`` that are stored; one statement for all."""
        rows = self._db.query_all(
            "SELECT uri FROM documents "
            "WHERE uri IN (SELECT value FROM json_each(?))",
            (json.dumps(list(uris)),),
        )
        return {row["uri"] for row in rows}

    def delete(self, uri: str) -> None:
        self._db.execute("DELETE FROM documents WHERE uri = ?", (uri,))

    def uris(self) -> list[str]:
        rows = self._db.query_all("SELECT uri FROM documents ORDER BY uri")
        return [row["uri"] for row in rows]

    def count(self) -> int:
        return self._db.count("documents")


#: A stored value string back to a value, by its property's kind.
_CONVERTERS: dict[PropertyKind, Callable[[str], Value]] = {
    PropertyKind.REFERENCE: URIRef,
    PropertyKind.INTEGER: lambda text: Literal(int(text)),
    PropertyKind.FLOAT: lambda text: Literal(float(text)),
    PropertyKind.STRING: Literal,
}

#: Sort key of ``(rowid, uri_reference, …)`` rows: by resource, then in
#: the order the rows were written.
_BY_RESOURCE = itemgetter(1, 0)


class DocumentLoader:
    """Documents and resources rebuilt from their ``filter_data`` rows.

    The rows are the store of record (docs/DURABILITY.md): ``resources``
    says which document owns a resource, each resource's rows come in
    ``rowid`` order with its ``rdf#subject`` row first, and the schema's
    :class:`~repro.rdf.schema.PropertyKind` types each stored string
    back into a value, with no stripping.  Every call builds new
    objects; nothing is cached but each property's converter.
    """

    def __init__(self, db: Database, schema: Schema):
        self._db = db
        self._schema = schema
        self._converters: dict[tuple[str, str], Callable[[str], Value]] = {}

    def document(self, uri: str) -> Document | None:
        """The stored document ``uri`` (resources in URI order), or
        ``None`` when no such document is stored."""
        rows = self._db.query_all(
            "SELECT f.rowid, f.uri_reference, f.class, f.property, f.value "
            "FROM documents d "
            "LEFT JOIN resources r ON r.document_uri = d.uri "
            "LEFT JOIN filter_data f ON f.uri_reference = r.uri_reference "
            "WHERE d.uri = ?",
            (uri,),
        )
        if not rows:
            return None
        document = Document(uri)
        document.resources = self._resources(
            [row for row in rows if row[1] is not None]
        )
        return document

    def resource(self, uri: str) -> Resource | None:
        """The stored resource ``uri``, or ``None``."""
        rows = self._db.query_all(
            "SELECT rowid, uri_reference, class, property, value "
            "FROM filter_data WHERE uri_reference = ?",
            (str(uri),),
        )
        return self._resources(rows).get(URIRef(uri))

    def stored_version(
        self, document_uri: str, claimed: Iterable[str]
    ) -> tuple[Document, dict[str, str]]:
        """What registering ``document_uri`` with the resources
        ``claimed`` must know, in one statement: the stored version
        (empty when there is none) and the other documents that own
        any of ``claimed``, by resource."""
        rows = self._db.query_all(
            "SELECT r.document_uri, f.rowid, f.uri_reference, f.class, "
            "f.property, f.value "
            "FROM resources r "
            "JOIN filter_data f ON f.uri_reference = r.uri_reference "
            "WHERE r.document_uri = ?1 "
            "UNION ALL "
            "SELECT document_uri, NULL, uri_reference, NULL, NULL, NULL "
            "FROM resources "
            "WHERE uri_reference IN (SELECT value FROM json_each(?2)) "
            "AND document_uri != ?1",
            (document_uri, json.dumps(list(claimed))),
        )
        mine = []
        owners = {}
        for row in rows:
            if row[0] == document_uri:
                mine.append(row[1:])
            else:
                owners[row[2]] = row[0]
        document = Document(document_uri)
        document.resources = self._resources(mine)
        return document, owners

    def _resources(self, rows: Iterable[Sequence]) -> dict[URIRef, Resource]:
        """Resources from ``(rowid, uri_reference, class, property,
        value)`` rows, in URI order, each starting at its subject row."""
        resources: dict[URIRef, Resource] = {}
        resource: Resource | None = None
        for __, uri, rdf_class, name, text in sorted(rows, key=_BY_RESOURCE):
            if name == RDF_SUBJECT:
                resource = Resource(uri, rdf_class)
                resources[resource.uri] = resource
            elif resource is not None:
                resource.add(name, self._value(rdf_class, name, text))
        return resources

    def _value(self, rdf_class: str, name: str, text: str) -> Value:
        convert = self._converters.get((rdf_class, name))
        if convert is None:
            try:
                kind = self._schema.property_def(rdf_class, name).kind
            except UnknownPropertyError:
                kind = PropertyKind.STRING
            convert = self._converters[(rdf_class, name)] = _CONVERTERS[kind]
        return convert(text)


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
        """Delete the rows of ``uris``; no statement when there are none."""
        rows = [(uri,) for uri in uris]
        if rows:
            self._db.executemany(
                "DELETE FROM resources WHERE uri_reference = ?", rows
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
