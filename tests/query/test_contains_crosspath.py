"""One ``contains`` semantics across every evaluation path.

Three consumers evaluate ``contains`` predicates: the in-memory query
evaluator, and the filter's triggering stage under each ``triggering``
mode — the paper's scan join (``"sql"``) and the counting matcher's
substring dictionary (``"counting"``) — which the MDP's browse runs
too, initializing the query like a new rule.  All of them must agree —
exact, case-sensitive substring over canonical string values (see
:mod:`repro.text.ngrams`) — on every value/needle shape the language
can produce: case variants, numeric-looking text, unicode, short
needles and needles whose characters occur only scattered in a value.
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
from repro.workload.rules import con_token
from tests.conftest import prop_settings, register_rule

SCHEMA = objectglobe_schema()

_HOSTS = [
    "a.uni-passau.de",
    "A.UNI-PASSAU.DE",
    "b.tum.de",
    "münchen.de",
    "12345",
    "abc-xbc-cde.org",  # every 3-window of "abcde", but not "abcde"
    "abcde.org",
    "pa",
]

_NEEDLES = [
    "uni",          # plain indexable needle
    "UNI",          # case variant — must NOT match the lowercase hosts
    "234",          # numeric-looking text; affinity must not kick in
    "ünch",         # unicode codepoints
    "de",           # short needle
    "abcde",        # its 3-windows occur scattered in one host
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


#: The ``contains`` algorithm each triggering mode runs, by name (the
#: ``counting`` path keeps its historical test id, ``trigram``).
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


# -- the substring dictionary --------------------------------------------

_alphabet = "abü.é"
_value = st.text(alphabet=_alphabet, max_size=12)
#: Longer than every generated value.
_LONG_NEEDLE = "aüb.é" * 3


def _contains_matcher(
    db: Database, needles: list[str], metrics: MetricsRegistry
) -> CountingMatcher:
    """A counting matcher whose one contains bucket holds ``needles``,
    rule ``i + 1`` for ``needles[i]``."""
    create_all(db)
    db.executemany(
        "INSERT INTO atomic_rules (rule_id, kind, rule_text, class) "
        "VALUES (?, 'triggering', ?, 'CycleProvider')",
        [
            (rule_id, f"synthetic {rule_id}")
            for rule_id in range(1, len(needles) + 1)
        ],
    )
    db.executemany(
        "INSERT INTO filter_rules_con (rule_id, class, property, value) "
        "VALUES (?, 'CycleProvider', 'serverHost', ?)",
        list(enumerate(needles, start=1)),
    )
    matcher = CountingMatcher(metrics=metrics)
    matcher.refresh(db, 1)
    return matcher


def _host_rows(values: list[str]) -> list[tuple[str, str, str, str]]:
    return [
        (f"doc{index}.rdf#host", "CycleProvider", "serverHost", value)
        for index, value in enumerate(values)
    ]


@prop_settings(60)
@given(
    values=st.lists(_value, min_size=1, max_size=8, unique=True),
    drawn=st.lists(
        st.text(alphabet=_alphabet, min_size=1, max_size=4),
        max_size=6,
        unique=True,
    ),
)
def test_contains_dictionary_is_exact(values, drawn):
    """The counting matcher's contains bucket returns exactly the
    canonical matches, at one lookup per window of each needle length."""
    needles = list(dict.fromkeys(["", "ü", "é.", _LONG_NEEDLE, *drawn]))
    metrics = MetricsRegistry()
    db = Database()
    try:
        matcher = _contains_matcher(db, needles, metrics)
        hits = matcher.match(_host_rows(values))
        truth = sorted(
            (f"doc{index}.rdf#host", rule_id)
            for index, value in enumerate(values)
            for rule_id, needle in enumerate(needles, start=1)
            if contains_match(value, needle)
        )
        assert sorted(hits) == truth
        lengths = {len(needle) for needle in needles}
        assert metrics.counter_values()["counting.contains_lookups"] == sum(
            max(0, len(value) - length + 1)
            for value in values
            for length in lengths
        )
    finally:
        db.close()


def test_contains_lookups_flat_in_needle_count():
    """Lookups per probed value do not grow with the needles indexed."""
    values = [
        f"host{index}.{con_token(index)}.{con_token(index + 7)}.uni-passau.de"
        for index in range(5)
    ]
    observed = []
    for size in (1_000, 50_000):
        needles = ["", "uni-passau.de", *map(con_token, range(size))]
        metrics = MetricsRegistry()
        db = Database()
        try:
            hits = _contains_matcher(db, needles, metrics).match(
                _host_rows(values)
            )
            lookups = metrics.counter_values()["counting.contains_lookups"]
        finally:
            db.close()
        observed.append((lookups / len(values), sorted(hits)))
    assert observed[0][0] > 0
    assert observed[0] == observed[1]
