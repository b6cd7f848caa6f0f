"""Unit tests for the persisted semantic vocabulary (SemanticStore)."""

from __future__ import annotations

import pytest

from repro.errors import SemanticError
from repro.rdf.schema import PropertyDef, PropertyKind, Schema
from repro.semantics import SemanticStore
from repro.storage.engine import Database
from repro.workload.marketplace import marketplace_schema


@pytest.fixture()
def store(db: Database) -> SemanticStore:
    return SemanticStore(db)


# ----------------------------------------------------------------------
# Synonyms
# ----------------------------------------------------------------------
def test_synonyms_are_symmetric(store):
    store.register_synonyms("property", ["price", "cost", "amount"])
    assert store.synonyms_of("property", "price") == ("amount", "cost")
    assert store.synonyms_of("property", "amount") == ("cost", "price")
    assert store.synonyms_of("property", "unknown") == ()
    # Value synonyms live in a separate namespace.
    assert store.synonyms_of("value", "price") == ()


def test_overlapping_sets_merge(store):
    store.register_synonyms("value", ["car", "automobile"])
    store.register_synonyms("value", ["automobile", "motorcar"])
    assert store.synonyms_of("value", "car") == ("automobile", "motorcar")
    assert store.synonyms_of("value", "motorcar") == ("automobile", "car")


def test_synonym_validation(store):
    with pytest.raises(ValueError):
        store.register_synonyms("class", ["a", "b"])
    with pytest.raises(ValueError):
        store.register_synonyms("property", ["only-one"])
    with pytest.raises(ValueError):
        store.register_synonyms("property", ["same", "same"])


# ----------------------------------------------------------------------
# Taxonomy
# ----------------------------------------------------------------------
def test_taxonomy_closure_is_transitive(store):
    assert store.register_taxonomy_edge("pickup", "truck") is True
    assert store.register_taxonomy_edge("truck", "vehicle") is True
    # Re-registering an edge is a no-op, not an error.
    assert store.register_taxonomy_edge("pickup", "truck") is False
    assert store.descendants("vehicle") == ("pickup", "truck")
    assert store.ancestors("pickup") == ("truck", "vehicle")
    assert store.closure_size() == 3


def test_self_edge_rejected(store):
    with pytest.raises(SemanticError) as excinfo:
        store.register_taxonomy_edge("vehicle", "vehicle")
    assert excinfo.value.code == "MDV071"


def test_cycle_rejected(store):
    store.register_taxonomy_edge("a", "b")
    store.register_taxonomy_edge("b", "c")
    with pytest.raises(SemanticError) as excinfo:
        store.register_taxonomy_edge("c", "a")
    assert excinfo.value.code == "MDV071"
    # The rejected edge left no trace.
    assert store.descendants("a") == ()
    assert store.closure_size() == 3


def test_seed_schema_taxonomy_idempotent(store):
    schema = marketplace_schema()
    added = store.seed_schema_taxonomy(schema)
    assert added > 0
    assert store.descendants("Listing") == ("Pickup", "Truck", "Vehicle")
    assert store.descendants("Vehicle") == ("Truck",)
    # Pickup is deliberately standalone in the marketplace schema.
    assert "Pickup" not in store.descendants("Vehicle")
    assert store.seed_schema_taxonomy(schema) == 0


# ----------------------------------------------------------------------
# Mapping functions
# ----------------------------------------------------------------------
def test_affine_mapping_roundtrip(store):
    map_id = store.register_affine_mapping("priceCents", "price", scale=0.01)
    mappings = store.mappings_to("price")
    assert len(mappings) == 1
    assert mappings[0].map_id == map_id
    assert mappings[0].kind == "affine"
    assert mappings[0].scale == 0.01


def test_affine_zero_scale_rejected(store):
    with pytest.raises(SemanticError) as excinfo:
        store.register_affine_mapping("a", "b", scale=0.0)
    assert excinfo.value.code == "MDV072"


def test_identity_mapping_rejected(store):
    with pytest.raises(SemanticError) as excinfo:
        store.register_affine_mapping("price", "price", scale=1.0)
    assert excinfo.value.code == "MDV073"


def test_affine_type_mismatch_rejected(db):
    schema = Schema()
    schema.define_class(
        "Listing",
        [
            PropertyDef("title", PropertyKind.STRING),
            PropertyDef("price", PropertyKind.INTEGER),
        ],
    )
    schema.freeze_check()
    store = SemanticStore(db, schema)
    with pytest.raises(SemanticError) as excinfo:
        store.register_affine_mapping("title", "price", scale=2.0)
    assert excinfo.value.code == "MDV073"


def test_enum_mapping_and_sources(store):
    map_id = store.register_enum_mapping(
        "grade", "condition", [("A", "new"), ("B", "used"), ("C", "used")]
    )
    assert store.enum_sources(map_id, "new") == ("A",)
    assert store.enum_sources(map_id, "used") == ("B", "C")
    assert store.enum_sources(map_id, "parts") == ()


def test_enum_duplicate_source_rejected(store):
    with pytest.raises(SemanticError) as excinfo:
        store.register_enum_mapping(
            "grade", "condition", [("A", "new"), ("A", "used")]
        )
    assert excinfo.value.code == "MDV072"

