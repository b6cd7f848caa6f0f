"""Serializers for RDF documents.

Two formats are provided:

- :func:`to_rdfxml` — the RDF/XML subset accepted by
  :mod:`repro.rdf.parser`, written in the flat (non-nested) form where
  every resource is a top-level element and references use
  ``rdf:resource`` attributes.  Round-trips with the parser.
- :func:`to_ntriples` — one line per statement, useful for debugging and
  for stable textual fixtures in tests.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.rdf.model import Document, Literal, Resource, URIRef
from repro.rdf.namespaces import MDV_NS, RDF_NS

__all__ = ["escape_xml", "to_rdfxml", "to_ntriples"]


def escape_xml(text: str, quote: bool = False) -> str:
    """Escape ``&``, ``<`` and ``>``, and with ``quote`` also ``"``.

    The output of ``xml.sax.saxutils.escape`` (with ``{'"': "&quot;"}``
    for ``quote``), without importing that module: it loads
    ``urllib.request`` and with it ``http.client``, ``ssl`` and
    ``email``, several MB in every process that writes RDF/XML.
    """
    text = text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")
    return text.replace('"', "&quot;") if quote else text


def _rdfxml_resource(resource: Resource, lines: list[str]) -> None:
    local = resource.uri.local_name
    if local and resource.uri.document_uri:
        identity = f'rdf:ID="{escape_xml(local, quote=True)}"'
        # rdf:ID only encodes the local part; rely on the enclosing
        # document URI for reconstruction (handled by the parser).
    else:
        identity = f'rdf:about="{escape_xml(str(resource.uri), quote=True)}"'
    lines.append(f"  <{resource.rdf_class} {identity}>")
    for name in resource.property_names():
        for value in resource.get(name):
            if isinstance(value, URIRef):
                target = escape_xml(str(value), quote=True)
                lines.append(f'    <{name} rdf:resource="{target}"/>')
            else:
                lines.append(f"    <{name}>{escape_xml(str(value))}</{name}>")
    lines.append(f"  </{resource.rdf_class}>")


def to_rdfxml(document: Document, schema_namespace: str = MDV_NS) -> str:
    """Serialize ``document`` to RDF/XML (flat form).

    The default namespace is the schema namespace so class and property
    elements need no prefix, mirroring the paper's Figure 1.
    """
    lines = [
        '<?xml version="1.0" encoding="utf-8"?>',
        f'<rdf:RDF xmlns:rdf="{RDF_NS}" xmlns="{schema_namespace}">',
    ]
    for resource in document:
        _rdfxml_resource(resource, lines)
    lines.append("</rdf:RDF>")
    return "\n".join(lines) + "\n"


def to_ntriples(document: Document) -> str:
    """Serialize ``document`` as one ``<subject> property value`` per line.

    Statements are emitted in a deterministic order (sorted by subject,
    property, value) so the output is stable across runs.
    """
    lines = []
    for statement in document.statements():
        if isinstance(statement.value, URIRef):
            rendered = f"<{statement.value}>"
        else:
            literal = statement.value
            assert isinstance(literal, Literal)
            if literal.is_numeric:
                rendered = literal.sql_value()
            else:
                rendered = '"' + str(literal.value).replace('"', '\\"') + '"'
        lines.append(f"<{statement.subject}> {statement.predicate} {rendered} .")
    return "\n".join(sorted(lines)) + ("\n" if lines else "")


def indent_xml(xml_text: str) -> str:
    """Re-indent an XML string (debugging helper; not used in hot paths)."""
    element = ET.fromstring(xml_text)
    ET.indent(element)
    return ET.tostring(element, encoding="unicode")


__all__.append("indent_xml")
