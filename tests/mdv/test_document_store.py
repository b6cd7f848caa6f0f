"""The document store of record: ``filter_data`` rows (docs/DURABILITY.md).

A provider keeps no copy of a document: every lookup rebuilds it from
its rows, typed by the schema.  Two families of tests hold that design:

- **Round trip.**  Document → rows → document gives back an equal
  document for every property kind, set-valued properties with repeated
  values, strong, weak and cross-document references, resources
  without properties, empty documents, integral floats and strings that
  look like numbers or carry surrounding whitespace.
- **Reopen guards.**  A provider reopened on a stored store parses
  nothing, and its memory does not grow with the documents stored.
"""

from __future__ import annotations

import gc
import tracemalloc

from hypothesis import given, strategies as st

from repro.mdv.provider import MetadataProvider
from repro.rdf.model import Document, Literal, URIRef
from repro.rdf.schema import PropertyDef, PropertyKind, RefStrength, Schema
from repro.storage.engine import Database
from repro.workload.documents import benchmark_document
from tests.conftest import prop_settings


def _node_schema() -> Schema:
    """One class with a property of every kind and shape."""
    schema = Schema()
    schema.define_class(
        "Node",
        [
            PropertyDef("name", PropertyKind.STRING),
            PropertyDef("count", PropertyKind.INTEGER),
            PropertyDef("load", PropertyKind.FLOAT),
            PropertyDef("tags", PropertyKind.STRING, multivalued=True),
            PropertyDef("scores", PropertyKind.INTEGER, multivalued=True),
            PropertyDef(
                "child", PropertyKind.REFERENCE, target_class="Node",
                strength=RefStrength.STRONG,
            ),
            PropertyDef(
                "peer", PropertyKind.REFERENCE, target_class="Node",
                strength=RefStrength.WEAK,
            ),
            PropertyDef(
                "links", PropertyKind.REFERENCE, target_class="Node",
                multivalued=True,
            ),
        ],
    )
    schema.freeze_check()
    return schema


SCHEMA = _node_schema()
DOCUMENT = "doc.rdf"
LOCAL_IDS = ("a", "b", "c")

strings = st.one_of(
    st.text(max_size=6),
    st.from_regex(r"\s*-?\d+(\.\d+)?(e\d)?\s*", fullmatch=True),
    st.sampled_from(["", " ", "  spaced  ", "007", "1.0", "-0", "nan"]),
)
integers = st.integers(min_value=-(2**63), max_value=2**63 - 1)
floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(min_value=-(10**6), max_value=10**6).map(float),
    st.integers(min_value=-(10**6), max_value=10**6),
)
#: A reference into this document or into another one.
targets = st.one_of(
    st.sampled_from(LOCAL_IDS).map(lambda local: f"{DOCUMENT}#{local}"),
    st.sampled_from(["other.rdf#a", "other.rdf#deep#b"]),
).map(URIRef)

#: Property name → strategy of one value, and how many values it takes.
SHAPES = {
    "name": (strings, 1),
    "count": (integers, 1),
    "load": (floats, 1),
    "tags": (strings, 4),
    "scores": (st.sampled_from([1, 1, 2, -3]), 4),
    "child": (targets, 1),
    "peer": (targets, 1),
    "links": (targets, 3),
}


@st.composite
def node_documents(draw):
    """A version of ``doc.rdf``: zero to three nodes, each with a drawn
    subset of properties in drawn order (possibly none)."""
    document = Document(DOCUMENT)
    for local in draw(st.lists(st.sampled_from(LOCAL_IDS), unique=True)):
        node = document.new_resource(local, "Node")
        names = draw(st.permutations(list(SHAPES)))
        for name in names[: draw(st.integers(0, len(names)))]:
            values, most = SHAPES[name]
            for value in draw(st.lists(values, min_size=1, max_size=most)):
                node.add(name, value)
    return document


def _typed(document: Document) -> dict:
    """Each value with its Python type, a FLOAT property's as a float
    (a stored ``5`` cannot say whether it was registered as 5 or 5.0)."""
    image = {}
    for resource in document:
        for name in resource.property_names():
            kind = SCHEMA.property_def("Node", name).kind
            image[resource.uri, name] = [
                Literal(float(v.value))
                if kind is PropertyKind.FLOAT
                else v
                for v in resource.get(name)
            ]
    return {
        key: [(type(v), type(getattr(v, "value", v)), v) for v in values]
        for key, values in image.items()
    }


@prop_settings(60)
@given(versions=st.lists(node_documents(), min_size=1, max_size=2))
def test_document_rows_document_round_trip(versions):
    """Registering versions of a document and reading it back gives the
    last version, value types included; with one registration the
    property order of every resource is kept as well."""
    mdp = MetadataProvider(SCHEMA)
    for version in versions:
        mdp.register_document(version)
    last = versions[-1]
    loaded = mdp.document(DOCUMENT)
    assert loaded == last
    assert _typed(loaded) == _typed(last)
    for resource in last:
        assert mdp.resource(resource.uri) == resource
        if len(versions) == 1:
            assert (
                loaded.get(resource.uri).property_names()
                == resource.property_names()
            )
    assert mdp.document_count() == 1
    assert mdp.resource_count() == len(last)


def test_an_empty_document_exists_and_deletes():
    mdp = MetadataProvider(SCHEMA)
    mdp.register_document(Document("empty.rdf"))
    assert mdp.document("empty.rdf") == Document("empty.rdf")
    assert mdp.document_uris() == ["empty.rdf"]
    mdp.delete_document("empty.rdf")
    assert mdp.document("empty.rdf") is None
    assert mdp.document_count() == 0


# ----------------------------------------------------------------------
# Reopen guards
# ----------------------------------------------------------------------
def _store(schema, path: str, documents: int) -> None:
    mdp = MetadataProvider(schema, db=Database(path))
    mdp.subscribe(
        "lmr", "search CycleProvider c register c where c.synthValue > 10"
    )
    mdp.register_documents(
        [benchmark_document(index, synth_value=index % 20)
         for index in range(documents)]
    )
    mdp.db.close()


def test_a_reopen_parses_nothing(schema, tmp_path, monkeypatch):
    path = str(tmp_path / "mdp.db")
    _store(schema, path, 20)

    def refuse(*args, **kwargs):
        raise AssertionError("parse_document called")

    monkeypatch.setattr("repro.rdf.parser.parse_document", refuse)
    monkeypatch.setattr("repro.mdv.provider.parse_document", refuse)
    with Database(path) as db:
        mdp = MetadataProvider(schema, db=db)
        assert mdp.document_count() == 20
        host = mdp.resource("doc3.rdf#host")
        assert host.get_one("serverHost").value == "host3.uni-passau.de"
        assert mdp.document("doc3.rdf").get("doc3.rdf#info") is not None
        outcome = mdp.register_document(benchmark_document(3, synth_value=50))
        assert outcome.matched
        mdp.delete_document("doc4.rdf")
        assert mdp.document_count() == 19


def _reopened_footprint(schema, path: str) -> int:
    """Bytes the Python heap holds for a provider reopened on ``path``."""
    db = Database(path)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        provider = MetadataProvider(schema, db=db)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert provider.document_count() > 0
    db.close()
    return held


def test_reopened_memory_is_flat_in_the_documents_stored(schema, tmp_path):
    """A reopen holds no per-document state: 2 000 stored documents cost
    a reopened provider at most 1.2x what 200 do."""
    footprints = []
    for documents in (200, 2000):
        path = str(tmp_path / f"mdp-{documents}.db")
        _store(schema, path, documents)
        footprints.append(_reopened_footprint(schema, path))
    small, large = footprints
    assert large <= 1.2 * small, footprints


def test_a_snapshot_catch_up_reads_rows(schema, monkeypatch):
    """An LMR caught up from a snapshot gets its resources, strong
    closure included, from the snapshot's rows, without a parse."""
    from repro.mdv.repository import LocalMetadataRepository

    mdp = MetadataProvider(schema, durable_delivery=True)
    live = LocalMetadataRepository("lmr", mdp)
    live.subscribe("search CycleProvider c register c where c.synthValue > 10")
    mdp.register_documents(
        [benchmark_document(i, synth_value=i * 5) for i in range(6)]
    )
    snapshot = mdp.snapshot()

    def refuse(*args, **kwargs):
        raise AssertionError("parse_document called")

    monkeypatch.setattr("repro.rdf.parser.parse_document", refuse)
    fresh = LocalMetadataRepository("lmr", mdp)
    assert fresh.catch_up_from_snapshot(snapshot) == 3
    assert set(fresh.cache.uris()) == set(live.cache.uris())
    assert "doc5.rdf#info" in fresh.cache
    assert fresh.cache.get("doc5.rdf#host").resource == mdp.resource(
        "doc5.rdf#host"
    )
    snapshot.close()
