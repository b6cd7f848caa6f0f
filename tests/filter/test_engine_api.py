"""Tests for FilterEngine's less-traveled API surface."""

import pytest

from repro.filter.decompose import resources_atoms
from repro.filter.engine import FilterEngine
from repro.rdf.diff import diff_documents
from repro.rdf.model import Document, URIRef

from tests.conftest import register_rule


def make_pair(index, memory=92, cpu=600):
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", "a.uni-passau.de")
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", cpu)
    return doc


MEMORY_RULE = (
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64"
)


def test_invalid_join_evaluation_rejected(db, registry):
    with pytest.raises(ValueError):
        FilterEngine(db, registry, join_evaluation="turbo")


def test_run_with_input_uris_reads_filter_data(db, registry, engine, schema):
    end = register_rule(engine, registry, schema, MEMORY_RULE)
    doc = make_pair(1)
    engine.process_insertions(list(doc))
    # Re-running the filter over the stored atoms of the same resources
    # must re-derive the same matches.
    result = engine.run(
        input_uris=[str(r.uri) for r in doc], materialize=False
    )
    assert (end, URIRef("doc1.rdf#host")) in result.pairs


def test_run_with_unknown_uris_is_empty(db, registry, engine, schema):
    register_rule(engine, registry, schema, MEMORY_RULE)
    result = engine.run(input_uris=["ghost.rdf#x"])
    assert result.pairs == set()
    assert result.triggering_hits == 0


def test_collect_modes(db, registry, engine, schema):
    end = register_rule(engine, registry, schema, MEMORY_RULE)
    doc = make_pair(1)
    atoms = resources_atoms(list(doc))
    engine._filter_data.insert_atoms(atoms)

    all_result = engine.run(input_atoms=atoms, materialize=False, collect="all")
    assert len(all_result.pairs) > 1  # intermediate rules included

    end_result = engine.run(input_atoms=atoms, materialize=False, collect="end")
    assert {rule for rule, __ in end_result.pairs} == {end}

    none_result = engine.run(input_atoms=atoms, materialize=False, collect="none")
    assert none_result.pairs == set()
    assert engine.result_count() > 0  # SQL-side count still available


def test_runs_executed_counter(db, registry, engine, schema):
    register_rule(engine, registry, schema, MEMORY_RULE)
    before = engine.runs_executed
    engine.process_insertions(list(make_pair(1)))
    assert engine.runs_executed == before + 1
    doc = make_pair(2)
    engine.process_insertions(list(doc))
    updated = doc.copy()
    updated.get("doc2.rdf#info").set("memory", 10)
    engine.process_diff(diff_documents(doc, updated))
    assert engine.runs_executed == before + 5  # +1 insert, +3 update


def test_current_matches_sorted(db, registry, engine, schema):
    end = register_rule(engine, registry, schema, MEMORY_RULE)
    for index in (3, 1, 2):
        engine.process_insertions(list(make_pair(index)))
    assert engine.current_matches(end) == [
        "doc1.rdf#host",
        "doc2.rdf#host",
        "doc3.rdf#host",
    ]


def test_filter_run_result_helpers(db, registry, engine, schema):
    end = register_rule(engine, registry, schema, MEMORY_RULE)
    doc = make_pair(1)
    outcome = engine.process_insertions(list(doc))
    run = outcome.passes[0]
    assert run.uris_of({end}) == {URIRef("doc1.rdf#host")}
    assert URIRef("doc1.rdf#host") in run.all_uris()
    assert run.by_rule[end] == {URIRef("doc1.rdf#host")}


def test_publish_outcome_helpers(db, registry, engine, schema):
    end = register_rule(engine, registry, schema, MEMORY_RULE)
    doc = make_pair(1)
    outcome = engine.process_insertions(list(doc))
    assert outcome.has_notifications
    assert outcome.matched_uris() == {URIRef("doc1.rdf#host")}
    assert "matched=1" in outcome.summary()


def test_phase_timings_recorded(db, registry, engine, schema):
    register_rule(engine, registry, schema, MEMORY_RULE)
    outcome = engine.process_insertions(list(make_pair(1)))
    run = outcome.passes[0]
    assert run.triggering_seconds > 0
    assert run.join_seconds > 0  # join iterations ran
