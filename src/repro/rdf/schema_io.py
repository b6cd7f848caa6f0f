"""RDF Schema serialization of MDV schemas (paper, Sections 2 and 2.4).

MDV "uses RDF Schema to define the schema the RDF metadata must conform
to" and "augments RDF schema with the necessary RDF properties to allow
the definition of strong and weak references" (Section 2.4).  This
module implements that document format:

- classes appear as ``rdfs:Class`` elements with optional
  ``rdfs:subClassOf``;
- properties appear as ``rdf:Property`` elements with ``rdfs:domain``
  and ``rdfs:range`` (XSD datatypes for literals, a class reference for
  references);
- the MDV vocabulary contributes ``mdv:referenceStrength``
  (``strong``/``weak``), ``mdv:multivalued`` and ``mdv:required``.

Because MDV property definitions are scoped per class (two classes may
define a property of the same name differently) while RDF properties
are global, property elements are identified as ``Class.property`` and
carry the plain name in ``mdv:name``.

``schema_to_rdfxml`` and ``parse_schema`` round-trip exactly; a
property-based test pins this down over random schemas.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.errors import DocumentParseError, SchemaError
from repro.rdf.namespaces import MDV_NS, RDF_NS, RDFS_NS, split_qualified
from repro.rdf.schema import (
    ClassDef,
    PropertyDef,
    PropertyKind,
    RefStrength,
    Schema,
)
from repro.rdf.serializer import escape_xml

__all__ = ["schema_to_rdfxml", "parse_schema"]

#: XSD datatype URIs for the literal property kinds.
XSD_NS = "http://www.w3.org/2001/XMLSchema#"
_KIND_TO_XSD = {
    PropertyKind.STRING: f"{XSD_NS}string",
    PropertyKind.INTEGER: f"{XSD_NS}integer",
    PropertyKind.FLOAT: f"{XSD_NS}double",
}
_XSD_TO_KIND = {uri: kind for kind, uri in _KIND_TO_XSD.items()}


def _attr(value: str) -> str:
    return escape_xml(value, quote=True)


def schema_to_rdfxml(schema: Schema) -> str:
    """Serialize a schema as an RDF Schema document with MDV vocabulary."""
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<rdf:RDF xmlns:rdf="{RDF_NS}"',
        f'         xmlns:rdfs="{RDFS_NS}"',
        f'         xmlns:mdv="{MDV_NS}">',
    ]
    for class_name in sorted(schema.class_names()):
        class_def = schema.class_def(class_name)
        if class_def.superclass:
            lines.append(f'  <rdfs:Class rdf:ID="{_attr(class_name)}">')
            lines.append(
                f'    <rdfs:subClassOf rdf:resource="#'
                f'{_attr(class_def.superclass)}"/>'
            )
            lines.append("  </rdfs:Class>")
        else:
            lines.append(f'  <rdfs:Class rdf:ID="{_attr(class_name)}"/>')
        for prop_name in sorted(class_def.properties):
            prop = class_def.properties[prop_name]
            lines.extend(_property_element(class_name, prop))
    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"


def _property_element(class_name: str, prop: PropertyDef) -> list[str]:
    identity = f"{class_name}.{prop.name}"
    lines = [f'  <rdf:Property rdf:ID="{_attr(identity)}">']
    lines.append(f"    <mdv:name>{escape_xml(prop.name)}</mdv:name>")
    lines.append(
        f'    <rdfs:domain rdf:resource="#{_attr(class_name)}"/>'
    )
    if prop.is_reference:
        lines.append(
            f'    <rdfs:range rdf:resource="#{_attr(str(prop.target_class))}"/>'
        )
        lines.append(
            f"    <mdv:referenceStrength>{prop.strength.value}"
            f"</mdv:referenceStrength>"
        )
    else:
        lines.append(
            f'    <rdfs:range rdf:resource="{_KIND_TO_XSD[prop.kind]}"/>'
        )
    if prop.multivalued:
        lines.append("    <mdv:multivalued>true</mdv:multivalued>")
    if prop.required:
        lines.append("    <mdv:required>true</mdv:required>")
    lines.append("  </rdf:Property>")
    return lines


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _local_ref(value: str) -> str:
    """Strip the leading ``#`` of a document-local resource reference."""
    return value[1:] if value.startswith("#") else value


def parse_schema(xml_text: str) -> Schema:
    """Parse an RDF Schema document produced by :func:`schema_to_rdfxml`.

    The parser is two-pass (classes first, then properties) so property
    order in the document does not matter; the resulting schema is
    :meth:`~repro.rdf.schema.Schema.freeze_check`-ed before returning.
    """
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise DocumentParseError(f"malformed schema XML: {exc}") from exc

    classes: dict[str, ClassDef] = {}
    property_elements = []
    for element in root:
        namespace, local = split_qualified(element.tag)
        if namespace == RDFS_NS and local == "Class":
            class_def = _parse_class(element)
            if class_def.name in classes:
                raise DocumentParseError(
                    f"class {class_def.name!r} defined twice"
                )
            classes[class_def.name] = class_def
        elif namespace == RDF_NS and local == "Property":
            property_elements.append(element)
        else:
            raise DocumentParseError(
                f"unexpected schema element {element.tag!r}"
            )

    for element in property_elements:
        owner, prop = _parse_property(element)
        if owner not in classes:
            raise DocumentParseError(
                f"property {prop.name!r} declares unknown domain {owner!r}"
            )
        try:
            classes[owner].add(prop)
        except SchemaError as exc:
            raise DocumentParseError(str(exc)) from exc

    schema = Schema(classes.values())
    try:
        schema.freeze_check()
    except SchemaError as exc:
        raise DocumentParseError(str(exc)) from exc
    return schema


def _parse_class(element: ET.Element) -> ClassDef:
    name = element.get(f"{{{RDF_NS}}}ID")
    if not name:
        raise DocumentParseError("rdfs:Class without rdf:ID")
    superclass = None
    for child in element:
        namespace, local = split_qualified(child.tag)
        if namespace == RDFS_NS and local == "subClassOf":
            resource = child.get(f"{{{RDF_NS}}}resource")
            if not resource:
                raise DocumentParseError(
                    f"subClassOf of {name!r} lacks rdf:resource"
                )
            superclass = _local_ref(resource)
    return ClassDef(name, superclass=superclass)


def _parse_property(element: ET.Element) -> tuple[str, PropertyDef]:
    identity = element.get(f"{{{RDF_NS}}}ID") or ""
    name = None
    domain = None
    range_uri = None
    strength = RefStrength.WEAK
    multivalued = False
    required = False
    for child in element:
        namespace, local = split_qualified(child.tag)
        text = (child.text or "").strip()
        if namespace == MDV_NS and local == "name":
            name = text
        elif namespace == RDFS_NS and local == "domain":
            domain = _local_ref(child.get(f"{{{RDF_NS}}}resource") or "")
        elif namespace == RDFS_NS and local == "range":
            range_uri = child.get(f"{{{RDF_NS}}}resource") or ""
        elif namespace == MDV_NS and local == "referenceStrength":
            try:
                strength = RefStrength(text)
            except ValueError:
                raise DocumentParseError(
                    f"bad referenceStrength {text!r}"
                ) from None
        elif namespace == MDV_NS and local == "multivalued":
            multivalued = text == "true"
        elif namespace == MDV_NS and local == "required":
            required = text == "true"
    if name is None:
        # Fall back to the Class.property identity convention.
        name = identity.partition(".")[2] or identity
    if not name or domain is None or range_uri is None:
        raise DocumentParseError(
            f"property {identity!r} needs mdv:name, rdfs:domain and "
            f"rdfs:range"
        )
    if range_uri in _XSD_TO_KIND:
        prop = PropertyDef(
            name,
            _XSD_TO_KIND[range_uri],
            multivalued=multivalued,
            required=required,
        )
    else:
        prop = PropertyDef(
            name,
            PropertyKind.REFERENCE,
            target_class=_local_ref(range_uri),
            strength=strength,
            multivalued=multivalued,
            required=required,
        )
    return domain, prop
