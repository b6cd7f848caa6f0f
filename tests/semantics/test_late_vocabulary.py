"""Vocabulary registered after a join rule widens the whole rule.

A late synonym or taxonomy edge widens a stored triggering rule; every
join that reads it must then see the widened matches, as if the
vocabulary had come first.  S-ToPSS (PAPERS.md) defines semantic
matching per predicate, so a join over widened atoms equals the join
of the widened extensions.  Here the host input widens while the
memory input gains nothing, so the join must run although one of its
inputs added no row.
"""

from __future__ import annotations

import pytest

from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.rdf.schema import objectglobe_schema
from repro.workload.differential import _host_document

CONDITION = (
    "c.serverHost = '{host}' and c.serverInformation.memory > 64"
)

#: semantics degree, the host the rule asks for, and the vocabulary
#: that makes the stored ``beta`` host one of its answers.
VOCABULARY = {
    "synonyms": (
        "synonyms", "alpha",
        lambda mdp: mdp.register_synonyms("value", ["alpha", "beta"]),
    ),
    "taxonomy-edge": (
        "taxonomy", "hosts",
        lambda mdp: mdp.register_taxonomy_edge("beta", "hosts"),
    ),
}


def _run(triggering, case, late):
    semantics, host, register = VOCABULARY[case]
    condition = CONDITION.format(host=host)
    mdp = MetadataProvider(
        objectglobe_schema(), semantics=semantics, triggering=triggering
    )
    lmr = LocalMetadataRepository("lmr1", mdp)
    batches = []
    apply_batch = lmr.apply_batch

    def recording(batch):
        batches.append(batch)
        return apply_batch(batch)

    mdp.connect_subscriber("lmr1", recording)
    if not late:
        register(mdp)
    lmr.subscribe(f"search CycleProvider c register c where {condition}")
    mdp.register_document(_host_document(0, "beta", 128, 500))
    if late:
        register(mdp)
    notified = [
        str(notification.uri)
        for batch in batches
        for notification in batch.notifications
        if str(notification.uri) == "doc0.rdf#host"
    ]
    browsed = [
        str(resource.uri)
        for resource in mdp.browse(f"search CycleProvider c where {condition}")
    ]
    mdp.close()
    return notified, browsed, len(lmr.cache)


@pytest.mark.parametrize("case", sorted(VOCABULARY))
@pytest.mark.parametrize("triggering", ["sql", "counting"])
def test_late_vocabulary_widens_a_join(triggering, case):
    late = _run(triggering, case, late=True)
    # The host and its strongly referenced server information.
    assert late == (["doc0.rdf#host"], ["doc0.rdf#host"], 2)
    assert late == _run(triggering, case, late=False)
