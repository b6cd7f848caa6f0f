"""Unit tests for RDF Schema support (classes, references, validation)."""

import pytest

from repro.errors import (
    SchemaError,
    SchemaValidationError,
    UnknownClassError,
    UnknownPropertyError,
)
from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.schema import (
    PropertyDef,
    PropertyKind,
    RefStrength,
    Schema,
    objectglobe_schema,
)


class TestPropertyDef:
    def test_reference_requires_target(self):
        with pytest.raises(SchemaError):
            PropertyDef("ref", PropertyKind.REFERENCE)

    def test_literal_rejects_target(self):
        with pytest.raises(SchemaError):
            PropertyDef("p", PropertyKind.STRING, target_class="C")

    def test_strength_flags(self):
        strong = PropertyDef(
            "ref",
            PropertyKind.REFERENCE,
            target_class="C",
            strength=RefStrength.STRONG,
        )
        weak = PropertyDef("ref2", PropertyKind.REFERENCE, target_class="C")
        assert strong.is_strong
        assert not weak.is_strong

    def test_is_numeric(self):
        assert PropertyDef("i", PropertyKind.INTEGER).is_numeric
        assert PropertyDef("f", PropertyKind.FLOAT).is_numeric
        assert not PropertyDef("s", PropertyKind.STRING).is_numeric


class TestSchemaLookups:
    def test_duplicate_class_rejected(self, schema):
        with pytest.raises(SchemaError):
            schema.define_class("CycleProvider")

    def test_unknown_class(self, schema):
        with pytest.raises(UnknownClassError):
            schema.class_def("Nope")

    def test_property_resolution_via_superclass(self, rich_schema):
        # serverHost is defined on Provider; visible on CycleProvider.
        prop = rich_schema.property_def("CycleProvider", "serverHost")
        assert prop.kind is PropertyKind.STRING

    def test_unknown_property(self, schema):
        with pytest.raises(UnknownPropertyError):
            schema.property_def("CycleProvider", "nope")

    def test_subclasses_of(self, rich_schema):
        assert sorted(rich_schema.subclasses_of("Provider")) == [
            "CycleProvider",
            "DataProvider",
            "Provider",
        ]
        assert rich_schema.subclasses_of("CycleProvider") == ["CycleProvider"]

    def test_superclass_chain(self, rich_schema):
        assert list(rich_schema.superclass_chain("CycleProvider")) == [
            "CycleProvider",
            "Provider",
        ]

    def test_resolve_path(self, schema):
        prop = schema.resolve_path(
            "CycleProvider", ["serverInformation", "memory"]
        )
        assert prop.name == "memory"
        assert prop.kind is PropertyKind.INTEGER

    def test_resolve_path_through_non_reference_fails(self, schema):
        with pytest.raises(SchemaError):
            schema.resolve_path("CycleProvider", ["serverHost", "memory"])

    def test_resolve_empty_path_fails(self, schema):
        with pytest.raises(SchemaError):
            schema.resolve_path("CycleProvider", [])

    def test_strong_reference_properties(self, schema):
        strong = schema.strong_reference_properties("CycleProvider")
        assert [p.name for p in strong] == ["serverInformation"]
        assert schema.strong_reference_properties("ServerInformation") == []


class TestFreezeCheck:
    def test_detects_missing_superclass(self):
        schema = Schema()
        schema.define_class("A", superclass="Missing")
        with pytest.raises(UnknownClassError):
            schema.freeze_check()

    def test_detects_missing_reference_target(self):
        schema = Schema()
        schema.define_class(
            "A",
            [PropertyDef("r", PropertyKind.REFERENCE, target_class="Missing")],
        )
        with pytest.raises(UnknownClassError):
            schema.freeze_check()

    def test_detects_superclass_cycle(self):
        schema = Schema()
        schema.define_class("A", superclass="B")
        schema.define_class("B", superclass="A")
        with pytest.raises(SchemaError):
            schema.freeze_check()


class TestValidation:
    def test_figure1_document_validates(self, schema, figure1):
        schema.validate_document(figure1)

    def test_unknown_class_rejected(self, schema):
        doc = Document("d.rdf")
        doc.new_resource("x", "Mystery")
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_unknown_property_rejected(self, schema):
        doc = Document("d.rdf")
        doc.new_resource("x", "CycleProvider").add("bogus", 1)
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_type_mismatch_rejected(self, schema):
        doc = Document("d.rdf")
        doc.new_resource("x", "ServerInformation").add("memory", "lots")
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_float_property_accepts_int(self, rich_schema):
        doc = Document("d.rdf")
        doc.new_resource("x", "ServerInformation").add("load", 1)
        rich_schema.validate_document(doc)

    def test_reference_needs_uri(self, schema):
        doc = Document("d.rdf")
        doc.new_resource("x", "CycleProvider").add("serverInformation", "oops")
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_literal_property_rejects_uri(self, schema):
        doc = Document("d.rdf")
        doc.new_resource("x", "ServerInformation").add(
            "memory", URIRef("d.rdf#y")
        )
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_multivalue_on_single_valued_rejected(self, schema):
        doc = Document("d.rdf")
        resource = doc.new_resource("x", "ServerInformation")
        resource.add("memory", 1)
        resource.add("memory", 2)
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_multivalued_property_accepts_many(self, rich_schema):
        doc = Document("d.rdf")
        resource = doc.new_resource("x", "CycleProvider")
        resource.add("tags", "fast")
        resource.add("tags", "cheap")
        rich_schema.validate_document(doc)

    def test_local_reference_class_checked(self, schema):
        doc = Document("d.rdf")
        host = doc.new_resource("host", "CycleProvider")
        host.add("serverInformation", URIRef("d.rdf#wrong"))
        doc.new_resource("wrong", "CycleProvider")
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_external_reference_accepted(self, schema):
        doc = Document("d.rdf")
        host = doc.new_resource("host", "CycleProvider")
        host.add("serverInformation", URIRef("elsewhere.rdf#info"))
        schema.validate_document(doc)

    def test_required_property_enforced(self):
        schema = Schema()
        schema.define_class(
            "A", [PropertyDef("must", PropertyKind.STRING, required=True)]
        )
        schema.freeze_check()
        doc = Document("d.rdf")
        doc.new_resource("x", "A")
        with pytest.raises(SchemaValidationError):
            schema.validate_document(doc)

    def test_subclass_instance_valid_against_superclass_reference(
        self, rich_schema
    ):
        doc = Document("d.rdf")
        data = doc.new_resource("d", "DataProvider")
        data.add("host", URIRef("d.rdf#c"))
        doc.new_resource("c", "CycleProvider")
        rich_schema.validate_document(doc)


def test_objectglobe_schema_is_consistent():
    schema = objectglobe_schema()
    assert schema.has_class("CycleProvider")
    assert schema.property_def("CycleProvider", "serverInformation").is_strong
