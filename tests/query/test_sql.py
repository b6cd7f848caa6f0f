"""The MDP's browse path: queries answered by the filter's SQL joins.

A browsed query is initialized like a new rule over the stored metadata
and read from its end rule's materialized matches (paper §2.2: "search
requests are translated into SQL join queries").  Every case runs under
both ``triggering`` modes, which must answer alike.
"""

import pytest

from repro.mdv.provider import MetadataProvider
from repro.query.evaluator import evaluate_query
from repro.rdf.model import Document, URIRef
from repro.rules.parser import parse_query

SPECS = [
    (0, "a.uni-passau.de", 92, 600, 1),
    (1, "b.tum.de", 128, 400, 2),
    (2, "c.uni-passau.de", 32, 700, 3),
]


def _documents():
    documents = []
    for index, host, memory, cpu, synth in SPECS:
        doc = Document(f"doc{index}.rdf")
        provider = doc.new_resource("host", "CycleProvider")
        provider.add("serverHost", host)
        provider.add("synthValue", synth)
        provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
        info = doc.new_resource("info", "ServerInformation")
        info.add("memory", memory)
        info.add("cpu", cpu)
        documents.append(doc)
    return documents


@pytest.fixture()
def providers(schema):
    """One loaded provider per triggering mode."""
    mdps = []
    for triggering in ("sql", "counting"):
        mdp = MetadataProvider(schema, triggering=triggering)
        mdp.register_documents(_documents())
        mdps.append(mdp)
    yield mdps
    for mdp in mdps:
        mdp.close()


def run(providers, text):
    """The browse answer, asserted equal under every triggering mode."""
    answers = [[str(r.uri) for r in mdp.browse(text)] for mdp in providers]
    assert all(answer == answers[0] for answer in answers), text
    return answers[0]


def test_class_query(providers):
    assert run(providers, "search ServerInformation s") == [
        "doc0.rdf#info",
        "doc1.rdf#info",
        "doc2.rdf#info",
    ]


def test_constant_predicates(providers):
    assert run(
        providers,
        "search CycleProvider c where c.serverHost contains 'passau'",
    ) == ["doc0.rdf#host", "doc2.rdf#host"]


def test_numeric_comparison(providers):
    assert run(
        providers,
        "search ServerInformation s where s.memory > 64",
    ) == ["doc0.rdf#info", "doc1.rdf#info"]


def test_path_join(providers):
    assert run(
        providers,
        "search CycleProvider c where c.serverInformation.cpu >= 600",
    ) == ["doc0.rdf#host", "doc2.rdf#host"]


def test_multi_hop_and_multi_predicate(providers):
    assert run(
        providers,
        "search CycleProvider c where c.serverInformation.memory > 64 "
        "and c.serverInformation.cpu > 500",
    ) == ["doc0.rdf#host"]


def test_oid_query(providers):
    assert run(
        providers, "search CycleProvider c where c = 'doc1.rdf#host'"
    ) == ["doc1.rdf#host"]


def test_or_union(providers):
    assert run(
        providers,
        "search CycleProvider c where c.synthValue = 1 or c.synthValue = 3",
    ) == ["doc0.rdf#host", "doc2.rdf#host"]


def test_explicit_join_registers_chosen_variable(providers):
    assert run(
        providers,
        "search ServerInformation s, CycleProvider c "
        "where c.serverInformation = s and c.serverHost contains 'tum'",
    ) == ["doc1.rdf#info"]


def test_string_constant_with_quote_is_safe(providers):
    assert (
        run(
            providers,
            "search CycleProvider c where c.serverHost = 'o''neil'",
        )
        == []
    )


def test_agreement_with_evaluator(providers, schema):
    """Browse and the in-memory evaluator agree on a batch of queries."""
    resources = {}
    for doc in _documents():
        resources.update(doc.resources)
    queries = [
        "search CycleProvider c",
        "search CycleProvider c where c.synthValue != 2",
        "search CycleProvider c where c.serverInformation.memory <= 92",
        "search ServerInformation s where s.cpu < 650",
        "search CycleProvider c where c.serverHost contains 'de' "
        "and c.serverInformation.memory > 50",
    ]
    for text in queries:
        expected = [
            str(r.uri)
            for r in evaluate_query(parse_query(text), resources, schema)
        ]
        assert run(providers, text) == expected, text
