"""``result_objects`` is the working set of the join closure, nothing else.

The counting merge routes each triggering hit by its rule's role: a
hit some join reads enters ``result_objects``; a hit of an end rule
nothing joins on goes straight to ``materialized`` and the run's pairs
(docs/FILTER_ALGORITHM.md, step 2).  Checked on the provider path, by table contents and by the
statements executed — no timings.
"""

from __future__ import annotations

from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.rdf.schema import objectglobe_schema
from tests.mdv.test_provider_flat_path import (
    HEAD,
    PROFILE,
    StatementLog,
    make_doc,
    oid_rule,
)


def comp_rule(bound: int) -> str:
    return HEAD + f"c.synthValue > {bound}"


def path_rule(memory: int) -> str:
    return HEAD + f"c.serverInformation.memory = {memory}"


def working_rows(mdp: MetadataProvider) -> list[tuple[int, str, int]]:
    rows = mdp.db.query_all(
        "SELECT rule_id, uri_reference, iteration FROM result_objects "
        "ORDER BY rule_id, uri_reference, iteration"
    )
    return [(int(r[0]), str(r[1]), int(r[2])) for r in rows]


def test_end_rule_hits_never_enter_the_working_table(monkeypatch):
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    for bound in range(8):
        lmr.subscribe(comp_rule(bound))
    lmr.subscribe(oid_rule(3))

    log = StatementLog(mdp.db, monkeypatch)
    mdp.register_documents([make_doc(i, synth=i) for i in range(10)])
    touching = [sql for sql in log.seen if "result_objects" in sql]

    # The per-run clear is all that names the table: no group
    # discovery, delta, materialise-select or collect statement ran.
    assert touching == ["DELETE FROM result_objects"]
    assert working_rows(mdp) == []
    # doc i matches `synthValue > k` for k < i, doc 3 its OID rule too.
    hits = sum(min(i, 8) for i in range(10)) + 1
    assert mdp.engine.result_count() == hits
    assert mdp.db.count("materialized") == hits
    assert len(lmr.cache.get("doc9.rdf#host").matched_subs) == 8
    assert lmr.cache.get("doc0.rdf#host") is None


def test_feeding_hits_and_join_results_share_the_working_table():
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    for bound in range(4):
        lmr.subscribe(comp_rule(bound))
    for memory in (60, 61, 62):
        lmr.subscribe(path_rule(memory))

    mdp.register_documents(
        [make_doc(i, memory=60 + i % 4, synth=9) for i in range(8)]
    )

    join_inputs = {
        int(row[0])
        for row in mdp.db.query_all(
            "SELECT DISTINCT source_rule FROM rule_dependencies"
        )
    }
    joins = {
        int(row[0])
        for row in mdp.db.query_all(
            "SELECT rule_id FROM atomic_rules WHERE kind = 'join'"
        )
    }
    rows = working_rows(mdp)
    # Iteration 0: the class atom for each of the 8 hosts, `memory = k`
    # for the 6 infos with k in 60..62; iteration 1: their 6 joins.
    assert len(rows) == 8 + 6 + 6
    assert {rule for rule, __, iteration in rows if iteration == 0} <= (
        join_inputs
    )
    assert {rule for rule, __, iteration in rows if iteration == 1} == joins
    # The 8 x 4 COMP hits went round it and are counted all the same.
    assert mdp.engine.result_count() == len(rows) + 32
    assert len(lmr.cache.get("doc1.rdf#host").matched_subs) == 5
    assert len(lmr.cache.get("doc3.rdf#host").matched_subs) == 4


def test_update_and_delete_behind_direct_hits_reach_the_lmr():
    """Pass 1 reports hits that took the direct route, so the true
    candidates of an update or a deletion are still unmatched."""
    mdp = MetadataProvider(objectglobe_schema(), **PROFILE)
    lmr = LocalMetadataRepository("lmr", mdp)
    lmr.subscribe(comp_rule(5))

    mdp.register_document(make_doc(1, synth=10))
    mdp.register_document(make_doc(2, synth=10))
    assert lmr.cache.get("doc1.rdf#host") is not None

    mdp.register_document(make_doc(1, synth=1))
    assert lmr.cache.get("doc1.rdf#host") is None
    assert mdp.db.count("materialized") == 1

    mdp.delete_document("doc2.rdf")
    assert len(lmr.cache) == 0
    assert mdp.db.count("materialized") == 0
    assert working_rows(mdp) == []
