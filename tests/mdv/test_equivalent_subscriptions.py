"""Equivalent spellings of one rule deliver equal notification streams.

The registry shares work between subscriptions by merging *equal*
atomic rules into the dependency graph (paper §3.3.2).  A rule spelled
differently — a float threshold plus a vacuous bound — registers a tree
of its own, and its subscriber must still see exactly what the plainly
spelled subscriber sees, publish by publish.
"""

from __future__ import annotations

import random

import pytest

from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema

PLAIN = "search CycleProvider c register c where c.synthValue > 5"
RESPELLED = (
    "search CycleProvider c register c "
    "where c.synthValue > 5.0 and c.synthValue > -1"
)


def _document(d: int, synth: int) -> Document:
    document = Document(f"doc{d}.rdf")
    host = document.new_resource("host", "CycleProvider")
    host.add("serverHost", f"host{d}.uni-passau.de")
    host.add("synthValue", synth)
    host.add("serverInformation", URIRef(f"doc{d}.rdf#info"))
    info = document.new_resource("info", "ServerInformation")
    info.add("memory", 64 + d)
    return document


def _cache(lmr: LocalMetadataRepository) -> dict:
    """The cache minus subscription ids, which differ per LMR."""
    return {
        str(entry.resource.uri): (
            entry.resource, entry.strong_refcount, len(entry.matched_subs)
        )
        for entry in lmr.cache.entries()
    }


@pytest.mark.parametrize("triggering", ["sql", "counting"])
def test_respelled_rule_sees_what_the_plain_rule_sees(triggering):
    mdp = MetadataProvider(objectglobe_schema(), triggering=triggering)
    plain = LocalMetadataRepository("plain", mdp)
    respelled = LocalMetadataRepository("respelled", mdp)
    plain.subscribe(PLAIN)
    respelled.subscribe(RESPELLED)
    # Two trees: nothing but atom merging shares work between them.
    end_rules = {
        subscription.end_rule
        for subscriber in ("plain", "respelled")
        for subscription in mdp.registry.subscriptions_of(subscriber)
    }
    assert len(end_rules) == 2

    rng = random.Random(7)
    synth_of: dict[int, int] = {}
    for __ in range(60):
        d = rng.randrange(8)
        if d in synth_of and rng.random() < 0.25:
            mdp.delete_document(f"doc{d}.rdf")
            del synth_of[d]
        else:  # a publish, or an update that may cross the threshold
            synth_of[d] = rng.choice([-3, 0, 5, 6, 9, 100])
            mdp.register_document(_document(d, synth_of[d]))
        assert plain.notifications_received == respelled.notifications_received
        assert _cache(plain) == _cache(respelled)

    expected = {f"doc{d}.rdf#host" for d, s in synth_of.items() if s > 5}
    expected |= {f"doc{d}.rdf#info" for d, s in synth_of.items() if s > 5}
    assert set(_cache(plain)) == expected
    assert expected  # the stream ends with matches to compare
    mdp.close()
