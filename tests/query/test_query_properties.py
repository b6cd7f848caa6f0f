"""Property-based equivalence: in-memory evaluator vs. MDP browse.

The two query paths — the LMR's in-memory evaluation and the MDP's
browse, which initializes the query like a rule through the filter's
SQL joins — must agree on arbitrary documents and queries, under both
``triggering`` modes.  They share only the normalizer, so agreement
pins down the semantics of both.
"""

from tests.conftest import prop_settings
from hypothesis import given, settings, strategies as st

from repro.mdv.provider import MetadataProvider
from repro.query.evaluator import evaluate_query
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.parser import parse_query

SCHEMA = objectglobe_schema()

hosts = st.sampled_from(
    ["a.uni-passau.de", "b.tum.de", "c.uni-passau.de", "plain"]
)
small_ints = st.integers(min_value=0, max_value=6)


@st.composite
def document_sets(draw):
    count = draw(st.integers(min_value=1, max_value=5))
    documents = []
    for index in range(count):
        doc = Document(f"doc{index}.rdf")
        provider = doc.new_resource("host", "CycleProvider")
        provider.add("serverHost", draw(hosts))
        provider.add("synthValue", draw(small_ints))
        target = draw(st.integers(min_value=0, max_value=count))
        provider.add("serverInformation", URIRef(f"doc{target}.rdf#info"))
        info = doc.new_resource("info", "ServerInformation")
        info.add("memory", draw(small_ints))
        info.add("cpu", draw(small_ints))
        documents.append(doc)
    return documents


comparison_ops = st.sampled_from(["=", "!=", "<", "<=", ">", ">="])


@st.composite
def query_texts(draw):
    kind = draw(
        st.sampled_from(
            ["class", "comp", "contains", "path", "multi", "or", "join_var", "oid"]
        )
    )
    if kind == "class":
        cls = draw(st.sampled_from(["CycleProvider", "ServerInformation"]))
        return f"search {cls} x"
    if kind == "comp":
        return (
            f"search CycleProvider c where c.synthValue "
            f"{draw(comparison_ops)} {draw(small_ints)}"
        )
    if kind == "contains":
        needle = draw(st.sampled_from(["passau", "tum", ".de", "x"]))
        return f"search CycleProvider c where c.serverHost contains '{needle}'"
    if kind == "path":
        prop = draw(st.sampled_from(["memory", "cpu"]))
        return (
            f"search CycleProvider c where c.serverInformation.{prop} "
            f"{draw(comparison_ops)} {draw(small_ints)}"
        )
    if kind == "multi":
        return (
            f"search CycleProvider c "
            f"where c.serverInformation.memory {draw(comparison_ops)} "
            f"{draw(small_ints)} "
            f"and c.serverInformation.cpu {draw(comparison_ops)} "
            f"{draw(small_ints)}"
        )
    if kind == "or":
        return (
            f"search CycleProvider c where c.synthValue = {draw(small_ints)} "
            f"or c.serverHost contains 'passau'"
        )
    if kind == "join_var":
        return (
            f"search ServerInformation s, CycleProvider c "
            f"where c.serverInformation = s "
            f"and c.synthValue >= {draw(small_ints)}"
        )
    return "search CycleProvider c where c = 'doc0.rdf#host'"


@prop_settings(60)
@given(documents=document_sets(), text=query_texts())
def test_sql_translation_agrees_with_evaluator(documents, text):
    resources = [r for doc in documents for r in doc]
    pool = {r.uri: r for r in resources}
    expected = [
        str(r.uri) for r in evaluate_query(parse_query(text), pool, SCHEMA)
    ]
    for triggering in ("sql", "counting"):
        mdp = MetadataProvider(SCHEMA, triggering=triggering)
        try:
            mdp.register_documents(documents)
            browsed = [str(r.uri) for r in mdp.browse(text)]
            assert browsed == expected, (triggering, text)
        finally:
            mdp.close()
