"""One ``contains`` semantics across every evaluation path.

Three consumers evaluate ``contains`` predicates: the in-memory query
evaluator, and the filter's triggering stage under each ``triggering``
mode — the paper's scan join (``"sql"``) and the counting matcher's
trigram postings (``"counting"``) — which the MDP's browse runs too,
initializing the query like a new rule.  All of them must agree — exact, case-sensitive substring over canonical string
values (see :mod:`repro.text.ngrams`) — on every value/needle shape the
language can produce: case variants, numeric-looking text, unicode, and
needles shorter than a trigram (the counting matcher's short list).
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.filter.counting import CountingMatcher
from repro.filter.engine import FilterEngine
from repro.obs.metrics import MetricsRegistry
from repro.mdv.provider import MetadataProvider
from repro.query.evaluator import evaluate_query
from repro.rdf.diff import diff_documents
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.parser import parse_query
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.text.ngrams import contains_match
from tests.conftest import prop_settings, register_rule

SCHEMA = objectglobe_schema()

_HOSTS = [
    "a.uni-passau.de",
    "A.UNI-PASSAU.DE",
    "b.tum.de",
    "münchen.de",
    "12345",
    "abc-xbc-cde.org",  # trigram false-positive bait for needle "abcde"
    "abcde.org",
    "pa",
]

_NEEDLES = [
    "uni",          # plain indexable needle
    "UNI",          # case variant — must NOT match the lowercase hosts
    "234",          # numeric-looking text; affinity must not kick in
    "ünch",         # unicode codepoints
    "de",           # shorter than a trigram — counting short list
    "abcde",        # scattered-trigram false positive on one host
    "passau",
    ".org",
]


def _documents() -> list[Document]:
    documents = []
    for index, host in enumerate(_HOSTS):
        doc = Document(f"doc{index}.rdf")
        provider = doc.new_resource("host", "CycleProvider")
        provider.add("serverHost", host)
        documents.append(doc)
    return documents


def _expected(needle: str) -> list[str]:
    return sorted(
        f"doc{index}.rdf#host"
        for index, host in enumerate(_HOSTS)
        if contains_match(host, needle)
    )


def _rule(needle: str) -> str:
    return (
        "search CycleProvider c register c "
        f"where c.serverHost contains '{needle}'"
    )


#: The ``contains`` algorithm each triggering mode runs, by name.
_CONTAINS_PATHS = {"scan": "sql", "trigram": "counting"}


@pytest.fixture(scope="module")
def filter_state():
    """Both engines fed the same documents, rules registered per needle."""
    state = {}
    for path, triggering in _CONTAINS_PATHS.items():
        db = Database()
        create_all(db)
        registry = RuleRegistry(db)
        engine = FilterEngine(db, registry, triggering=triggering)
        ends = {
            needle: register_rule(
                engine, registry, SCHEMA, _rule(needle), subscriber=f"s{i}"
            )
            for i, needle in enumerate(_NEEDLES)
        }
        for doc in _documents():
            engine.process_diff(diff_documents(None, doc))
        state[path] = (db, engine, ends)
    yield state
    for db, engine, __ in state.values():
        engine.close()
        db.close()


@pytest.mark.parametrize("needle", _NEEDLES)
def test_evaluator_agrees(needle):
    resources = [r for doc in _documents() for r in doc]
    query = parse_query(
        f"search CycleProvider c where c.serverHost contains '{needle}'"
    )
    matches = evaluate_query(query, resources, SCHEMA)
    assert [str(r.uri) for r in matches] == _expected(needle)


@pytest.fixture(scope="module")
def browsers():
    """One provider per triggering mode, documents stored, no rules."""
    mdps = [
        MetadataProvider(SCHEMA, triggering=triggering)
        for triggering in _CONTAINS_PATHS.values()
    ]
    for mdp in mdps:
        mdp.register_documents(_documents())
    yield mdps
    for mdp in mdps:
        mdp.close()


@pytest.mark.parametrize("needle", _NEEDLES)
def test_sql_browse_agrees(browsers, needle):
    for mdp in browsers:
        resources = mdp.browse(
            f"search CycleProvider c where c.serverHost contains '{needle}'"
        )
        assert [str(r.uri) for r in resources] == _expected(needle)


@pytest.mark.parametrize("path", _CONTAINS_PATHS)
@pytest.mark.parametrize("needle", _NEEDLES)
def test_triggering_agrees(filter_state, needle, path):
    __, engine, ends = filter_state[path]
    matches = engine.current_matches(ends[needle])
    assert sorted(str(u) for u in matches) == _expected(needle)


# -- the superset property ------------------------------------------------

_value = st.text(
    alphabet=st.characters(
        blacklist_categories=("Cs",), blacklist_characters="\x00"
    ),
    max_size=12,
)


@prop_settings(60)
@given(
    values=st.lists(_value, min_size=1, max_size=8, unique=True),
    needle=st.text(alphabet="abcde.", min_size=3, max_size=6),
)
def test_trigram_candidates_superset_of_true_matches(values, needle):
    """The counting matcher's contains bucket: trigram candidates ⊇ true
    matches, and verification restores equality."""
    metrics = MetricsRegistry()
    db = Database()
    try:
        create_all(db)
        db.execute(
            "INSERT INTO atomic_rules (rule_id, kind, rule_text, class) "
            "VALUES (1, 'triggering', 'synthetic', 'CycleProvider')"
        )
        db.execute(
            "INSERT INTO filter_rules_con (rule_id, class, property, value) "
            "VALUES (1, 'CycleProvider', 'serverHost', ?)",
            (needle,),
        )
        matcher = CountingMatcher(metrics=metrics)
        matcher.refresh(db, 1)
        hits = matcher.match(
            [
                (f"doc{index}.rdf#host", "CycleProvider", "serverHost", value)
                for index, value in enumerate(values)
            ]
        )
        truth = sorted(
            (f"doc{index}.rdf#host", 1)
            for index, value in enumerate(values)
            if contains_match(value, needle)
        )
        assert sorted(hits) == truth
        counters = metrics.counter_values()
        candidates = counters.get("counting.candidates", 0)
        assert candidates >= len(truth)
        assert candidates - counters.get("counting.false_positives", 0) == (
            len(truth)
        )
    finally:
        db.close()
