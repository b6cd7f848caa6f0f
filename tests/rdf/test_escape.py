"""The RDF writers' XML escape against ``xml.sax.saxutils.escape``.

``repro`` does not import ``xml.sax.saxutils`` (it loads
``urllib.request`` and with it the HTTP, TLS and e-mail modules); only
this test does, as the oracle.  The two writers' output on values full
of ``& < > " '`` is pinned byte for byte as the saxutils-based writers
produced it.
"""

from xml.sax.saxutils import escape

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.schema import ClassDef, PropertyDef, PropertyKind, RefStrength, Schema
from repro.rdf.schema_io import schema_to_rdfxml
from repro.rdf.serializer import escape_xml, to_rdfxml

QUOTE = {'"': "&quot;"}


@pytest.mark.parametrize("text", [
    "", "plain", "&", "<>", "&amp;", "&quot;", '"', "'", "&<>\"'",
    "a<b&c>d", "Tom & Jerry's <\"cheese\"> &quot;", "&&<<>>\"\"''",
])
def test_escape_matches_saxutils(text):
    assert escape_xml(text) == escape(text)
    assert escape_xml(text, quote=True) == escape(text, QUOTE)


@given(st.text(alphabet="&<>\"'aq;#uot "))
def test_escape_matches_saxutils_on_generated_text(text):
    assert escape_xml(text) == escape(text)
    assert escape_xml(text, quote=True) == escape(text, QUOTE)


def test_document_writer_output_is_unchanged():
    doc = Document("a&b.rdf")
    host = doc.new_resource("h<1>", "Host")
    host.add("name", "Tom & Jerry's <\"cheese\"> &quot;")
    host.add("port", 443)
    host.add("peer", URIRef("a&b.rdf#\"p\"'"))
    about = URIRef("x<y>&'z\"")
    doc.resources[about] = Resource(about, "Host", [("name", "a>b")])
    assert to_rdfxml(doc) == (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"'
        ' xmlns="http://mdv.db.fmi.uni-passau.de/schema#">\n'
        '  <Host rdf:ID="h&lt;1&gt;">\n'
        "    <name>Tom &amp; Jerry's &lt;\"cheese\"&gt; &amp;quot;</name>\n"
        "    <port>443</port>\n"
        "    <peer rdf:resource=\"a&amp;b.rdf#&quot;p&quot;'\"/>\n"
        "  </Host>\n"
        "  <Host rdf:about=\"x&lt;y&gt;&amp;'z&quot;\">\n"
        "    <name>a&gt;b</name>\n"
        "  </Host>\n"
        "</rdf:RDF>\n"
    )


def test_schema_writer_output_is_unchanged():
    schema = Schema([
        ClassDef("Host", {
            "name": PropertyDef("name", PropertyKind.STRING),
            "peer&<x>": PropertyDef(
                "peer&<x>", PropertyKind.REFERENCE, target_class="Sub\"'",
                strength=RefStrength.STRONG,
            ),
        }),
        ClassDef("Sub\"'", {}, superclass="Host"),
    ])
    assert schema_to_rdfxml(schema) == (
        '<?xml version="1.0" encoding="utf-8"?>\n'
        '<rdf:RDF xmlns:rdf="http://www.w3.org/1999/02/22-rdf-syntax-ns#"\n'
        '         xmlns:rdfs="http://www.w3.org/2000/01/rdf-schema#"\n'
        '         xmlns:mdv="http://mdv.db.fmi.uni-passau.de/schema#">\n'
        '  <rdfs:Class rdf:ID="Host"/>\n'
        '  <rdf:Property rdf:ID="Host.name">\n'
        "    <mdv:name>name</mdv:name>\n"
        '    <rdfs:domain rdf:resource="#Host"/>\n'
        '    <rdfs:range rdf:resource="http://www.w3.org/2001/XMLSchema#string"/>\n'
        "  </rdf:Property>\n"
        '  <rdf:Property rdf:ID="Host.peer&amp;&lt;x&gt;">\n'
        "    <mdv:name>peer&amp;&lt;x&gt;</mdv:name>\n"
        '    <rdfs:domain rdf:resource="#Host"/>\n'
        "    <rdfs:range rdf:resource=\"#Sub&quot;'\"/>\n"
        "    <mdv:referenceStrength>strong</mdv:referenceStrength>\n"
        "  </rdf:Property>\n"
        "  <rdfs:Class rdf:ID=\"Sub&quot;'\">\n"
        '    <rdfs:subClassOf rdf:resource="#Host"/>\n'
        "  </rdfs:Class>\n"
        "</rdf:RDF>\n"
    )
